"""E15 (extension) — failure injection: availability and the checkpoint gap.

Paper source: the replication motivation (§4's Data Grid simulators exist
because data and resources fail or saturate) plus §5's generality trend —
a generic simulator must express node failures to evaluate fault-tolerant
middleware at all.

Rows regenerated: batch makespan on a machine cycling through exponential
crash/repair at several MTBF values, under the two eviction policies.
Shape targets: makespan grows as MTBF shrinks; checkpointing beats
restart-from-scratch, and the gap *widens* as failures become frequent
(the textbook argument for checkpointing, quantified).
"""

import pytest

from conftest import once, print_table

from repro.core import Simulator
from repro.faults import CorrelatedFaultInjector, FaultGraph
from repro.hosts import SpaceSharedMachine

N_JOBS = 20
JOB_MI = 600.0
MTTR = 15.0


def run(mtbf: float | None, policy: str, seed: int = 11) -> tuple[float, float]:
    """Returns (makespan, availability)."""
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
    makespan = max(r.finished for r in runs)
    return makespan, m.availability


@pytest.mark.parametrize("policy", ["checkpoint", "restart"])
@pytest.mark.parametrize("mtbf", [200.0, 50.0])
def test_e15_failure_runs(benchmark, mtbf, policy):
    benchmark.group = f"failures mtbf={mtbf}"
    makespan, availability = once(benchmark, run, mtbf, policy)
    assert makespan > 0 and 0 < availability <= 1


def test_e15_shape_claims(benchmark):
    def run_all():
        seeds = (11, 23, 59)
        out = {}
        for mtbf in (None, 200.0, 50.0, 20.0):
            for policy in ("checkpoint", "restart"):
                ms = [run(mtbf, policy, seed=s)[0] for s in seeds]
                out[(mtbf, policy)] = sum(ms) / len(ms)
        return out

    results = once(benchmark, run_all)
    rows = []
    for mtbf in (None, 200.0, 50.0, 20.0):
        ck = results[(mtbf, "checkpoint")]
        rs = results[(mtbf, "restart")]
        rows.append(("no failures" if mtbf is None else f"MTBF {mtbf:g}",
                     f"{ck:.0f}s", f"{rs:.0f}s", f"{rs / ck:.2f}x"))
    print_table("E15: batch makespan under crash/repair "
                "(mean of 3 seeds, MTTR 15)",
                ["failure regime", "checkpoint", "restart", "restart penalty"],
                rows)

    base = results[(None, "checkpoint")]
    # failures only ever hurt, monotonically with frequency
    assert results[(200.0, "checkpoint")] >= base
    assert results[(20.0, "checkpoint")] > results[(200.0, "checkpoint")]
    # checkpointing beats restart wherever failures occur...
    for mtbf in (200.0, 50.0, 20.0):
        assert results[(mtbf, "checkpoint")] <= results[(mtbf, "restart")] + 1e-9
    # ...and the restart penalty widens as failures become frequent.
    pen_rare = results[(200.0, "restart")] / results[(200.0, "checkpoint")]
    pen_freq = results[(20.0, "restart")] / results[(20.0, "checkpoint")]
    assert pen_freq >= pen_rare
    # without failures the two policies are identical
    assert results[(None, "checkpoint")] == pytest.approx(
        results[(None, "restart")])