"""Tests for failure injection: crash/repair semantics and work loss."""

import math

import pytest

from repro.core import ConfigurationError, Simulator
from repro.faults import CorrelatedFaultInjector, FaultGraph
from repro.hosts import SpaceSharedMachine, TimeSharedMachine


def _inject(sim, machine, **rates):
    """A one-host fault graph under the injector: (graph, injector)."""
    g = FaultGraph(sim)
    g.add_host("m", machine)
    return g, CorrelatedFaultInjector(sim, g, sim.streams.spawn("fail"),
                                      **rates)


class TestFailRepairSemantics:
    def test_fail_evicts_running_jobs(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=2, rating=100.0)
        m.submit(1000.0)
        m.submit(1000.0)
        assert m.fail() == 2
        assert m.failed and m.running == 0 and m.queued == 2

    def test_fail_idempotent(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0)
        m.fail()
        assert m.fail() == 0
        assert m.failures == 1

    def test_submissions_queue_during_downtime(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0)
        m.fail()
        run = m.submit(100.0)
        assert m.queued == 1 and run.started is None
        m.repair()
        assert m.running == 1

    def test_checkpoint_preserves_completed_work(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0, restart_policy="checkpoint")
        run = m.submit(1000.0)  # 10s of work
        sim.schedule(5.0, m.fail)    # crash halfway
        sim.schedule(7.0, m.repair)  # 2s outage
        sim.run()
        # 5s done + 2s down + 5s remaining = 12s
        assert run.finished == pytest.approx(12.0)

    def test_restart_loses_work(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0, restart_policy="restart")
        run = m.submit(1000.0)
        sim.schedule(5.0, m.fail)
        sim.schedule(7.0, m.repair)
        sim.run()
        # 5s lost + 2s down + full 10s again = 17s
        assert run.finished == pytest.approx(17.0)

    def test_checkpoint_beats_restart(self):
        """The checkpointing argument, as an inequality."""
        def total(policy):
            sim = Simulator()
            m = SpaceSharedMachine(sim, rating=100.0, restart_policy=policy)
            runs = [m.submit(500.0) for _ in range(3)]
            sim.schedule(3.0, m.fail)
            sim.schedule(4.0, m.repair)
            sim.run()
            return max(r.finished for r in runs)

        assert total("checkpoint") < total("restart")

    def test_evicted_jobs_restart_in_submission_order(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, pes=2, rating=100.0)
        r1 = m.submit(1000.0)
        r2 = m.submit(1000.0)
        r3 = m.submit(1000.0)  # queued
        sim.schedule(1.0, m.fail)
        sim.schedule(2.0, m.repair)
        sim.run()
        # evicted r1, r2 go back before the never-started r3
        assert r3.finished > max(r1.finished, r2.finished)

    def test_failure_during_idle_harmless(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0)
        assert m.fail() == 0
        m.repair()
        run = m.submit(100.0)
        sim.run()
        assert run.finished == pytest.approx(1.0)

    def test_bad_restart_policy(self):
        with pytest.raises(ConfigurationError):
            SpaceSharedMachine(Simulator(), restart_policy="pray")

    def test_crash_at_completion_instant_completes_job(self):
        """A crash event tied with a completion must not re-queue a
        zero-residue job: the work is done, the victim is a completion."""
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0,
                               restart_policy="checkpoint")
        # schedule the crash BEFORE submitting so its event fires first
        # at the shared timestamp (lower sequence number)
        sim.schedule(5.0, m.fail)
        run = m.submit(500.0)  # completes at exactly t=5
        sim.run()
        assert run.finished == pytest.approx(5.0)
        assert m.completed == 1
        assert m.evictions == 0
        assert m.queued == 0

    def test_crash_at_completion_instant_then_repair_runs_backlog(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0,
                               restart_policy="checkpoint")
        sim.schedule(5.0, m.fail)
        sim.schedule(7.0, m.repair)
        r1 = m.submit(500.0)   # done exactly at the crash instant
        r2 = m.submit(500.0)   # queued; runs after the repair
        sim.run()
        assert r1.finished == pytest.approx(5.0)
        assert r2.finished == pytest.approx(12.0)
        assert m.completed == 2


class TestEstimatedCompletion:
    def test_failed_machine_without_eta_estimates_inf(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0)
        m.fail()
        assert m.estimated_completion(100.0) == math.inf

    def test_failed_machine_uses_repair_eta(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0)
        m.fail(repair_eta=8.0)
        # repair at 8, then 1s of work
        assert m.estimated_completion(100.0) == pytest.approx(9.0)

    def test_repair_clears_eta(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0)
        m.fail(repair_eta=8.0)
        m.repair()
        assert m.repair_eta is None
        assert m.estimated_completion(100.0) == pytest.approx(1.0)

    def test_queue_drain_estimate_uses_checkpoint_residue(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0,
                               restart_policy="checkpoint")
        m.submit(1000.0)
        sim.schedule(5.0, m.fail)  # 5s done, 5s of residue at eviction
        sim.run(until=6.0)
        m.fail(repair_eta=8.0)  # idempotent: refreshes the repair hint
        # repair at 8, drain 5s of residue, then 1s for the new job
        assert m.estimated_completion(100.0) == pytest.approx(14.0)


class TestInjector:
    def test_cycles_and_availability(self):
        sim = Simulator(seed=3)
        m = SpaceSharedMachine(sim, rating=100.0)
        g, inj = _inject(sim, m, mtbf=50.0, mttr=10.0, horizon=1000.0)
        sim.schedule_at(1500.0, lambda: None)  # pin a horizon to observe
        sim.run()
        assert inj.crashes == m.failures > 5
        # availability should be in the MTBF/(MTBF+MTTR) ballpark ≈ 0.83
        assert 0.6 < inj.availability < 0.98
        assert g.availability("m") == inj.availability == m.availability

    def test_jobs_complete_despite_failures(self):
        sim = Simulator(seed=4)
        m = SpaceSharedMachine(sim, pes=2, rating=100.0)
        g, inj = _inject(sim, m, mtbf=30.0, mttr=5.0, horizon=2000.0)
        runs = [m.submit(500.0) for _ in range(10)]
        sim.run()
        assert all(r.finished is not None for r in runs)
        assert m.completed == 10
        assert inj.crashes > 0
        assert g.monitor.counter("jobs_evicted").count > 0

    def test_failures_extend_turnaround(self):
        def makespan(inject):
            sim = Simulator(seed=5)
            m = SpaceSharedMachine(sim, pes=1, rating=100.0)
            if inject:
                _inject(sim, m, mtbf=4.0, mttr=8.0, horizon=500.0)
            runs = [m.submit(300.0) for _ in range(5)]
            sim.run()
            return max(r.finished for r in runs)

        assert makespan(True) > makespan(False)

    def test_validation(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim)
        with pytest.raises(ConfigurationError):
            _inject(sim, m, mtbf=0.0)
        with pytest.raises(ConfigurationError):
            _inject(sim, m, mttr=0.0)
        with pytest.raises(ConfigurationError):
            _inject(sim, TimeSharedMachine(sim))

    def test_external_fail_repair_does_not_corrupt_injector(self):
        """Out-of-band fail()/repair() on the graph (an operator) must
        leave the injector's view and the downtime books consistent."""
        sim = Simulator(seed=9)
        m = SpaceSharedMachine(sim, rating=100.0)
        g, inj = _inject(sim, m, mtbf=10.0, mttr=3.0, horizon=300.0)
        for t in range(0, 300, 11):
            sim.schedule_at(t + 0.25, g.fail, "m")
            sim.schedule_at(t + 0.75, g.repair, "m")
        sim.schedule_at(400.0, lambda: None)
        sim.run()
        assert not m.failed and not g.is_down("m")
        # graph and machine each clock the same empty<->non-empty cause
        # transitions, so external overlap can never double-count downtime
        assert g.downtime("m") == m.total_downtime
        assert 0.0 < inj.availability < 1.0
        assert m.total_downtime < 400.0
        # overlaps with the external outages did not end the renewal process
        assert inj.crashes > 10

    def test_machine_downtime_clock_single_source(self):
        sim = Simulator()
        m = SpaceSharedMachine(sim, rating=100.0)
        sim.schedule(1.0, m.fail)
        sim.schedule(1.5, m.fail)   # idempotent: one open interval
        sim.schedule(4.0, m.repair)
        sim.schedule(4.2, m.repair)  # idempotent: already up
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert m.total_downtime == pytest.approx(3.0)
        assert m.availability == pytest.approx(0.7)


class TestCorrelatedSiteOutages:
    def _lost_work(self, policy):
        """Makespan of a job chain under scripted correlated site outages."""
        sim = Simulator()
        machines = [SpaceSharedMachine(sim, rating=100.0,
                                       name=f"{policy}-{i}",
                                       restart_policy=policy)
                    for i in range(2)]
        g = FaultGraph(sim)
        children = [g.add_host(f"h{i}", m)
                    for i, m in enumerate(machines)]
        g.add_site("site", children)
        runs = [m.submit(500.0) for m in machines]  # 5s of work each
        sim.schedule(3.0, g.fail, "site")
        sim.schedule(4.0, g.repair, "site")
        sim.run()
        return max(r.finished for r in runs)

    def test_checkpoint_vs_restart_lost_work_gap(self):
        """Under a correlated site outage, restart re-pays the pre-crash
        work on every machine; checkpoint pays only the outage."""
        ckpt = self._lost_work("checkpoint")
        rstrt = self._lost_work("restart")
        assert ckpt == pytest.approx(6.0)   # 3 done + 1 down + 2 left
        assert rstrt == pytest.approx(9.0)  # 3 lost + 1 down + 5 again
        assert rstrt - ckpt == pytest.approx(3.0)  # exactly the lost work
