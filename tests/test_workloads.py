"""Tests for workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, StreamFactory
from repro.workloads import (
    ACCESS_PATTERNS,
    ATLAS_2005,
    CMS_2005,
    ExperimentSpec,
    gaussian_walk_requests,
    layered_dag,
    poisson_arrivals,
    production_schedule,
    random_requests,
    sequential_requests,
    task_farm,
    unitary_walk_requests,
    zipf_requests,
)
from repro.middleware import Job
from repro.network import FileSpec
from repro.workloads import jobs_from_trace, jobs_to_trace


def stream(name="w", seed=0):
    return StreamFactory(seed).stream(name)


class TestArrivals:
    def test_poisson_rate_approximation(self):
        times = poisson_arrivals(stream(), rate=2.0, horizon=5000.0)
        assert abs(len(times) / 5000.0 - 2.0) < 0.15
        assert all(0 < t < 5000.0 for t in times)
        assert times == sorted(times)

    def test_poisson_validation(self):
        with pytest.raises(ConfigurationError):
            poisson_arrivals(stream(), rate=0.0, horizon=10.0)
        with pytest.raises(ConfigurationError):
            poisson_arrivals(stream(), rate=1.0, horizon=0.0)


class TestTaskFarm:
    def test_farm_shape(self):
        jobs = task_farm(stream(), 50, mean_length=500.0)
        assert len(jobs) == 50
        assert all(j.length > 0 for j in jobs)
        assert [j.id for j in jobs] == list(range(50))

    def test_length_models_differ(self):
        u = task_farm(stream("u"), 500, length_model="uniform")
        h = task_farm(stream("h"), 500, length_model="heavy")
        lu = np.array([j.length for j in u])
        lh = np.array([j.length for j in h])
        assert lh.max() / np.median(lh) > lu.max() / np.median(lu)

    def test_arrival_times_attached(self):
        jobs = task_farm(stream(), 3, arrival_times=[1.0, 2.0, 3.0])
        assert [j.submitted for j in jobs] == [1.0, 2.0, 3.0]

    def test_round_robin_input_files(self):
        files = [FileSpec("a", 1.0), FileSpec("b", 1.0)]
        jobs = task_farm(stream(), 4, input_files=files)
        assert [j.input_files[0].name for j in jobs] == ["a", "b", "a", "b"]

    def test_constraints_attached(self):
        jobs = task_farm(stream(), 2, deadline=10.0, budget=5.0)
        assert all(j.deadline == 10.0 and j.budget == 5.0 for j in jobs)

    def test_first_id_offset(self):
        jobs = task_farm(stream(), 3, first_id=100)
        assert [j.id for j in jobs] == [100, 101, 102]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            task_farm(stream(), 0)
        with pytest.raises(ConfigurationError):
            task_farm(stream(), 5, length_model="bogus")
        with pytest.raises(ConfigurationError):
            task_farm(stream(), 5, arrival_times=[1.0])


class TestDags:
    def test_layered_every_nonroot_has_parent(self):
        dag = layered_dag(stream(), layers=4, width=5, edge_prob=0.3)
        assert len(dag) == 20
        roots = {j.id for j in dag.roots()}
        for job in dag.jobs:
            if job.id not in roots:
                assert dag.predecessors(job.id)
        assert all(r < 5 for r in roots)  # roots only in layer 0

    def test_generated_dags_are_acyclic(self):
        for seed in range(5):
            dag = layered_dag(stream(f"d{seed}", seed), layers=3, width=4)
            assert len(dag.topological_order()) == len(dag)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            layered_dag(stream(), layers=0, width=1)


class TestAccessPatterns:
    def test_sequential_wraps(self):
        assert sequential_requests(stream(), 3, 7) == [0, 1, 2, 0, 1, 2, 0]

    def test_random_in_range(self):
        reqs = random_requests(stream(), 10, 200)
        assert min(reqs) >= 0 and max(reqs) < 10
        assert len(set(reqs)) > 3

    def test_unitary_walk_steps_by_one(self):
        reqs = unitary_walk_requests(stream(), 100, 500)
        steps = np.abs(np.diff(reqs))
        assert set(steps.tolist()) <= {0, 1}  # 0 only at reflections

    def test_gaussian_walk_locality(self):
        reqs = gaussian_walk_requests(stream(), 1000, 500, sigma_frac=0.01)
        steps = np.abs(np.diff(reqs))
        assert np.median(steps) < 50

    def test_zipf_concentrates_on_rank0(self):
        reqs = zipf_requests(stream(), 100, 2000, s=1.2)
        assert reqs.count(0) > reqs.count(50)

    def test_registry_complete(self):
        assert set(ACCESS_PATTERNS) == {"sequential", "random", "unitary",
                                        "gaussian", "zipf"}
        for fn in ACCESS_PATTERNS.values():
            reqs = fn(stream(), 10, 20)
            assert len(reqs) == 20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            sequential_requests(stream(), 0, 5)
        with pytest.raises(ConfigurationError):
            random_requests(stream(), 5, -1)


class TestLhc:
    def test_production_rate_matches_spec(self):
        horizon = 3600.0
        sched = production_schedule(stream(), [CMS_2005], horizon, jitter=0.0)
        total = sum(f.size for _, f in sched)
        expected = CMS_2005.rate_bytes_per_s * horizon
        assert abs(total - expected) / expected < 0.05

    def test_two_experiments_interleave(self):
        sched = production_schedule(stream(), [CMS_2005, ATLAS_2005], 1000.0)
        names = {f.name.split("-")[0] for _, f in sched}
        assert names == {"CMS", "ATLAS"}
        times = [t for t, _ in sched]
        assert times == sorted(times)

    def test_file_names_unique(self):
        sched = production_schedule(stream(), [CMS_2005], 500.0)
        names = [f.name for _, f in sched]
        assert len(names) == len(set(names))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec("X", rate_bytes_per_s=0.0, file_size=1.0)
        with pytest.raises(ConfigurationError):
            production_schedule(stream(), [], 100.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_workloads_reproducible(seed):
    a = task_farm(stream("x", seed), 20)
    b = task_farm(stream("x", seed), 20)
    assert [j.length for j in a] == [j.length for j in b]


class TestMonitoredWorkloads:
    """The input-data axis end-to-end: generator -> trace -> monitored import."""

    def make_jobs(self):
        return [
            Job(id=1, length=500.0, submitted=0.0),
            Job(id=2, length=800.0, submitted=3.5,
                input_files=(FileSpec("a", 100.0), FileSpec("b", 25.5)),
                output_size=64.0),
            Job(id=3, length=120.0, submitted=7.0, deadline=100.0, budget=50.0),
        ]

    def test_roundtrip_exact(self):
        jobs = self.make_jobs()
        back = jobs_from_trace(jobs_to_trace(jobs))
        assert len(back) == 3
        for orig, restored in zip(jobs, back):
            assert restored.id == orig.id
            assert restored.length == orig.length
            assert restored.submitted == orig.submitted
            assert restored.input_files == orig.input_files
            assert restored.output_size == orig.output_size
            assert restored.deadline == orig.deadline
            assert restored.budget == orig.budget

    def test_file_format_roundtrip(self):
        import io

        from repro.core import read_trace, write_trace

        jobs = self.make_jobs()
        buf = io.StringIO()
        write_trace(jobs_to_trace(jobs), buf)
        buf.seek(0)
        back = jobs_from_trace(read_trace(buf))
        assert [j.id for j in back] == [1, 2, 3]
        assert back[1].input_files[1].size == 25.5

    def test_records_time_ordered(self):
        jobs = list(reversed(self.make_jobs()))
        recs = jobs_to_trace(jobs)
        assert [r.time for r in recs] == sorted(r.time for r in recs)

    def test_foreign_kinds_ignored(self):
        from repro.core import TraceRecord

        recs = jobs_to_trace(self.make_jobs())
        recs.append(TraceRecord(9.0, "x", "heartbeat", 1.0))
        assert len(jobs_from_trace(recs)) == 3

    def test_missing_job_id_rejected(self):
        from repro.core import TraceFormatError, TraceRecord

        bad = [TraceRecord(0.0, "w", "job_submit", 100.0, {})]
        with pytest.raises(TraceFormatError, match="job_id"):
            jobs_from_trace(bad)

    def test_bad_inputs_attribute_rejected(self):
        from repro.core import TraceFormatError, TraceRecord

        bad = [TraceRecord(0.0, "w", "job_submit", 100.0,
                           {"job_id": "1", "inputs": "broken"})]
        with pytest.raises(TraceFormatError, match="inputs"):
            jobs_from_trace(bad)

    def test_monitored_workload_drives_identical_simulation(self):
        """Generator-built vs trace-imported workloads give identical runs."""
        from repro.core import Simulator
        from repro.hosts import Grid, Site, SpaceSharedMachine
        from repro.middleware import GridRunner, RoundRobinScheduler
        from repro.network import Topology

        def run(jobs):
            sim = Simulator(seed=1)
            topo = Topology()
            topo.add_link("x", "y", 1e8, 0.001)
            grid = Grid(sim, topo, [
                Site(sim, "x", machines=[SpaceSharedMachine(sim, rating=100.0)]),
                Site(sim, "y", machines=[SpaceSharedMachine(sim, rating=100.0)]),
            ])
            runner = GridRunner(sim, grid, scheduler=RoundRobinScheduler())
            runner.submit_all(jobs)
            sim.run()
            return [(j.id, j.finished, j.site) for j in runner.completed]

        generated = task_farm(stream("mon", 9), 15, mean_length=300.0,
                              arrival_times=[float(i) for i in range(15)])
        imported = jobs_from_trace(jobs_to_trace(generated))
        assert run(generated) == run(imported)
