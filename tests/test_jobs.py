"""Tests for jobs, lifecycle state machine, and DAGs."""

import math

import pytest

from repro.core import ConfigurationError
from repro.middleware import Dag, Job, JobState


def job(i=1, length=100.0, **kw):
    return Job(id=i, length=length, **kw)


class TestJobLifecycle:
    def test_legal_path(self):
        j = job()
        for state in (JobState.QUEUED, JobState.STAGING, JobState.RUNNING, JobState.DONE):
            j.transition(state, 1.0)
        assert j.state is JobState.DONE
        assert len(j.history) == 4

    def test_skip_staging_allowed(self):
        j = job()
        j.transition(JobState.QUEUED, 0.0)
        j.transition(JobState.RUNNING, 1.0)
        assert j.started == 1.0

    def test_illegal_transition_rejected(self):
        j = job()
        with pytest.raises(ConfigurationError, match="illegal transition"):
            j.transition(JobState.DONE, 0.0)

    def test_done_is_terminal(self):
        j = job()
        j.transition(JobState.QUEUED, 0.0)
        j.transition(JobState.RUNNING, 0.0)
        j.transition(JobState.DONE, 5.0)
        with pytest.raises(ConfigurationError):
            j.transition(JobState.RUNNING, 6.0)

    def test_turnaround_and_deadline(self):
        j = job(deadline=10.0)
        j.submitted = 1.0
        j.transition(JobState.QUEUED, 1.0)
        j.transition(JobState.RUNNING, 2.0)
        j.transition(JobState.DONE, 8.0)
        assert j.turnaround == 7.0
        assert j.met_deadline

    def test_unfinished_turnaround_nan(self):
        assert math.isnan(job().turnaround)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Job(id=1, length=0.0)
        with pytest.raises(ConfigurationError):
            Job(id=1, length=10.0, output_size=-1.0)


class TestDag:
    def diamond(self):
        d = Dag()
        for i in range(4):
            d.add_job(job(i))
        d.add_edge(0, 1, data=10.0)
        d.add_edge(0, 2, data=20.0)
        d.add_edge(1, 3)
        d.add_edge(2, 3)
        return d

    def test_roots_and_leaves(self):
        d = self.diamond()
        assert [j.id for j in d.roots()] == [0]

    def test_topological_order_valid(self):
        d = self.diamond()
        order = [j.id for j in d.topological_order()]
        assert order.index(0) < order.index(1) < order.index(3)
        assert order.index(0) < order.index(2) < order.index(3)

    def test_duplicate_job_rejected(self):
        d = Dag()
        d.add_job(job(1))
        with pytest.raises(ConfigurationError, match="duplicate"):
            d.add_job(job(1))

    def test_cycle_rejected(self):
        d = self.diamond()
        with pytest.raises(ConfigurationError, match="cycle"):
            d.add_edge(3, 0)
        # the failed edge must not have been half-added
        assert 0 not in d.successors(3)

    def test_self_edge_rejected(self):
        d = self.diamond()
        with pytest.raises(ConfigurationError):
            d.add_edge(1, 1)

    def test_unknown_endpoint_rejected(self):
        d = self.diamond()
        with pytest.raises(ConfigurationError):
            d.add_edge(0, 99)

    def test_edge_data_recorded(self):
        d = self.diamond()
        assert d.successors(0) == {1: 10.0, 2: 20.0}
        assert d.predecessors(3) == {1: 0.0, 2: 0.0}

    def test_empty_dag(self):
        d = Dag()
        assert d.topological_order() == []
        assert len(d) == 0
