"""E15 (extension) — failure injection: a 20-job batch on a machine cycling
through Exp(MTBF) crashes and MTTR-15 repairs, under the checkpoint and
the restart eviction policies."""

import functools

import pytest

from repro.core import Simulator
from repro.faults import CorrelatedFaultInjector, FaultGraph
from repro.hosts import SpaceSharedMachine

N_JOBS = 20
JOB_MI = 600.0
MTTR = 15.0
SEEDS = (11, 23, 59)


@functools.cache
def run(mtbf, policy, seed):
    """(makespan, availability) of one batch; ``mtbf=None``: no failures."""
    sim = Simulator(seed=seed)
    m = SpaceSharedMachine(sim, pes=2, rating=100.0, restart_policy=policy)
    if mtbf is not None:
        graph = FaultGraph(sim)
        graph.add_host("m", m)
        CorrelatedFaultInjector(sim, graph, sim.streams.spawn("fail"),
                                mtbf=mtbf, mttr=MTTR, horizon=100_000.0)
    runs = [m.submit(JOB_MI) for _ in range(N_JOBS)]
    sim.run()
    assert all(r.finished is not None for r in runs)
    return max(r.finished for r in runs), m.availability


def mean_makespan(mtbf, policy):
    return sum(run(mtbf, policy, s)[0] for s in SEEDS) / len(SEEDS)


@pytest.mark.parametrize("policy", ["checkpoint", "restart"])
@pytest.mark.parametrize("mtbf", [200.0, 50.0])
def test_failure_run_finishes_with_sane_availability(mtbf, policy):
    makespan, availability = run(mtbf, policy, 11)
    assert makespan > 0 and 0 < availability <= 1


def test_failures_hurt_monotonically_with_frequency():
    ck = {m: mean_makespan(m, "checkpoint") for m in (None, 200.0, 20.0)}
    assert ck[200.0] >= ck[None]
    assert ck[20.0] > ck[200.0]


@pytest.mark.parametrize("mtbf", [200.0, 50.0, 20.0])
def test_checkpoint_beats_restart(mtbf):
    assert mean_makespan(mtbf, "checkpoint") \
        <= mean_makespan(mtbf, "restart") + 1e-9


def test_restart_penalty_widens_as_failures_become_frequent():
    def penalty(mtbf):
        return (mean_makespan(mtbf, "restart")
                / mean_makespan(mtbf, "checkpoint"))
    assert penalty(20.0) >= penalty(200.0)


def test_policies_identical_without_failures():
    assert mean_makespan(None, "checkpoint") == pytest.approx(
        mean_makespan(None, "restart"))
