"""Tests for machines: space-shared, time-shared, background load."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ConfigurationError, Process, Simulator
from repro.hosts import SpaceSharedMachine, TimeSharedMachine


class FakeJob:
    def __init__(self, length):
        self.length = length


class TestSpaceShared:
    def test_single_job_timing(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=1, rating=100.0)
        run = m.submit(FakeJob(1000.0))
        sim.run()
        assert run.finished == pytest.approx(10.0)
        assert run.started == run.submitted == 0.0

    def test_fcfs_queueing(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=1, rating=100.0)
        r1 = m.submit(FakeJob(1000.0))
        r2 = m.submit(FakeJob(500.0))
        sim.run()
        assert r1.finished == pytest.approx(10.0)
        assert r2.started == pytest.approx(10.0)
        assert r2.finished == pytest.approx(15.0)

    def test_multiple_pes_run_in_parallel(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=2, rating=100.0)
        runs = [m.submit(FakeJob(1000.0)) for _ in range(3)]
        sim.run()
        assert sorted(r.finished for r in runs) == pytest.approx([10.0, 10.0, 20.0])

    def test_job_monopolizes_one_pe(self):
        """Space-shared: a lone job cannot use more than one PE."""
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=4, rating=100.0)
        run = m.submit(FakeJob(1000.0))
        sim.run()
        assert run.finished == pytest.approx(10.0)  # not 2.5

    def test_counts(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=1, rating=100.0)
        m.submit(FakeJob(100.0))
        m.submit(FakeJob(100.0))
        assert m.running == 1 and m.queued == 1
        sim.run()
        assert m.running == 0 and m.queued == 0 and m.completed == 2

    def test_estimated_completion_accounts_for_queue(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=1, rating=100.0)
        m.submit(FakeJob(1000.0))
        m.submit(FakeJob(1000.0))
        est = m.estimated_completion(1000.0)
        assert est == pytest.approx(30.0)

    def test_background_load_slows_running_job(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=1, rating=100.0)
        run = m.submit(FakeJob(1000.0))
        # at t=5, half done; then 50% load doubles the remaining time
        sim.schedule(5.0, m.set_background_load, 0.5)
        sim.run()
        assert run.finished == pytest.approx(15.0)


def _slow_down(sim, m):
    sim.schedule(5.0, m.set_background_load, 0.5)


def _crash_then_repair(sim, m):
    sim.schedule(4.0, m.fail)
    sim.schedule(6.0, m.repair)


class TestProcessHistoryIndependence:
    """Equal jobs keep submission (FIFO) order whatever the process
    allocated before: the running set is insertion-ordered, not hashed by
    address."""

    @pytest.mark.parametrize("throwaway", [0, 10_000])
    @pytest.mark.parametrize("disturb", [_slow_down, _crash_then_repair])
    def test_retiming_and_eviction_keep_submission_order(self, disturb,
                                                         throwaway):
        junk = [object() for _ in range(throwaway)]   # shifts later addresses
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=8, rating=100.0)
        order = []
        for k in range(8):
            m.submit(FakeJob(1000.0))._subscribe(
                lambda run, k=k: order.append(k))
        disturb(sim, m)
        sim.run()
        assert order == list(range(8))
        assert len(junk) == throwaway

    def test_run_ids_count_per_machine(self):
        sim = Simulator()
        for _ in range(2):
            m = SpaceSharedMachine(sim, pes=1, rating=100.0)
            assert [m.submit(FakeJob(10.0)).id for _ in range(3)] == [1, 2, 3]
        t = TimeSharedMachine(sim, pes=1, rating=100.0)
        assert t.submit(FakeJob(10.0)).id == 1


class TestTimeShared:
    def test_single_job_full_speed(self):
        sim = Simulator()
        m = TimeSharedMachine(sim, pes=2, rating=100.0)
        run = m.submit(FakeJob(1000.0))
        sim.run()
        assert run.finished == pytest.approx(10.0)  # capped at one PE

    def test_processor_sharing_two_jobs_one_pe(self):
        sim = Simulator()
        m = TimeSharedMachine(sim, pes=1, rating=100.0)
        r1 = m.submit(FakeJob(1000.0))
        r2 = m.submit(FakeJob(1000.0))
        sim.run()
        assert r1.finished == pytest.approx(20.0)
        assert r2.finished == pytest.approx(20.0)

    def test_two_pes_two_jobs_no_interference(self):
        sim = Simulator()
        m = TimeSharedMachine(sim, pes=2, rating=100.0)
        r1 = m.submit(FakeJob(1000.0))
        r2 = m.submit(FakeJob(1000.0))
        sim.run()
        assert r1.finished == pytest.approx(10.0)
        assert r2.finished == pytest.approx(10.0)

    def test_short_job_departure_speeds_up_survivor(self):
        sim = Simulator()
        m = TimeSharedMachine(sim, pes=1, rating=100.0)
        long = m.submit(FakeJob(1000.0))
        short = m.submit(FakeJob(100.0))
        sim.run()
        # share 50 MIPS each; short done at t=2 (100MI), long then solo:
        # 900MI left at 100 MIPS -> t = 2 + 9 = 11
        assert short.finished == pytest.approx(2.0)
        assert long.finished == pytest.approx(11.0)

    def test_no_queue_in_ps(self):
        sim = Simulator()
        m = TimeSharedMachine(sim, pes=1, rating=100.0)
        for _ in range(5):
            m.submit(FakeJob(100.0))
        assert m.queued == 0 and m.running == 5
        sim.run()

    def test_background_load_reallocates(self):
        sim = Simulator()
        m = TimeSharedMachine(sim, pes=1, rating=100.0)
        run = m.submit(FakeJob(1000.0))
        sim.schedule(5.0, m.set_background_load, 0.5)
        sim.run()
        assert run.finished == pytest.approx(15.0)

    def test_process_can_yield_run(self):
        sim = Simulator()
        m = TimeSharedMachine(sim, rating=10.0)
        log = []

        def body():
            run = yield m.submit(FakeJob(100.0))
            log.append((sim.now, run.finished - run.submitted))

        Process(sim, body)
        sim.run()
        assert log == [(10.0, 10.0)]


class TestValidation:
    def test_bad_machine_params(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            SpaceSharedMachine(sim, pes=0)
        with pytest.raises(ConfigurationError):
            TimeSharedMachine(sim, rating=0.0)

    def test_bad_job_length(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim)
        with pytest.raises(ConfigurationError):
            m.submit(FakeJob(0.0))

    def test_bad_background_load(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim)
        with pytest.raises(ConfigurationError):
            m.set_background_load(1.0)
        with pytest.raises(ConfigurationError):
            m.set_background_load(-0.1)

    def test_raw_number_accepted_as_job(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=10.0)
        run = m.submit(50.0)
        sim.run()
        assert run.finished == pytest.approx(5.0)


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.floats(min_value=1.0, max_value=1e4),
                        min_size=1, max_size=10),
       rating=st.floats(min_value=1.0, max_value=1e3))
def test_property_ps_work_conservation(lengths, rating):
    """Time-shared, 1 PE: the last completion is exactly total_work/rate."""
    sim = Simulator()
    m = TimeSharedMachine(sim, pes=1, rating=rating)
    runs = [m.submit(FakeJob(l)) for l in lengths]
    sim.run()
    assert max(r.finished for r in runs) == pytest.approx(sum(lengths) / rating, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.floats(min_value=1.0, max_value=1e3),
                        min_size=1, max_size=12),
       pes=st.integers(min_value=1, max_value=4))
def test_property_space_shared_completes_everything(lengths, pes):
    sim = Simulator()
    m = SpaceSharedMachine(sim, pes=pes, rating=100.0)
    runs = [m.submit(FakeJob(l)) for l in lengths]
    sim.run()
    assert all(r.finished is not None for r in runs)
    assert m.completed == len(lengths)
