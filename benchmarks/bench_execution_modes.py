"""E7 — centralized vs distributed execution (the Misra/Fujimoto axis).

Paper source (§3): the centralized/distributed classification, plus the
verdict that "despite over two decades of research, the technology of
distributed simulations has not significantly impressed the general
simulation community.  Considerable efforts and expertise are still
required to develop efficient simulation programs."

Workload: the shared partitioned ring from ``repro.workloads.partitioned``
(one LP per site, local Poisson job streams, a fraction of completions
forwarded to the neighbour).  Swept: executor x partition count x
lookahead, now covering both halves of the synchronization axis —
conservative (CMB, windows) *and* optimistic (Time Warp).  Shape targets:
all executors commit identical results; CMB's null-message count scales
~1/lookahead; Time Warp really rolls back and still commits the
sequential stream.
"""

import pytest

from conftest import once, print_table

from repro.core.optimistic import OptimisticExecutor
from repro.core.parallel import (
    CMBExecutor,
    SequentialExecutor,
    WindowExecutor,
)
from repro.workloads.partitioned import build_partitioned_ring

HORIZON = 400.0
JOBS_PER_SITE = 150


def build(k: int, lookahead: float, seed: int = 0):
    return build_partitioned_ring(k=k, lookahead=lookahead, seed=seed,
                                  jobs_per_site=JOBS_PER_SITE,
                                  horizon=HORIZON)


EXECUTORS = {
    "sequential": lambda: SequentialExecutor(),
    "cmb": lambda: CMBExecutor(),
    "window": lambda: WindowExecutor(),
    "optimistic": lambda: OptimisticExecutor(),
}


@pytest.mark.parametrize("name", sorted(EXECUTORS))
@pytest.mark.parametrize("k", [2, 8])
def test_e7_executors(benchmark, name, k):
    benchmark.group = f"partitioned grid K={k}"

    def run():
        model = build(k, lookahead=1.0)
        stats = EXECUTORS[name]().run(model.lps, until=HORIZON)
        return stats, model.results()

    stats, results = once(benchmark, run)
    assert stats.events > 0 and len(results) >= k * JOBS_PER_SITE


def test_e7_shape_claims(benchmark):
    def run_all():
        # 1) equivalence at fixed config — now including Time Warp
        logs = {}
        rollbacks = {}
        for name, make in EXECUTORS.items():
            model = build(4, lookahead=1.0)
            stats = make().run(model.lps, until=HORIZON)
            logs[name] = model.results()
            rollbacks[name] = stats.rollbacks
        # 2) null-message sensitivity to lookahead
        nulls = {}
        for la in (2.0, 0.5, 0.125):
            model = build(4, lookahead=la)
            nulls[la] = CMBExecutor().run(model.lps,
                                          until=HORIZON).null_messages
        return logs, rollbacks, nulls

    logs, rollbacks, nulls = once(benchmark, run_all)
    print_table("E7: CMB null messages vs lookahead (K=4)",
                ["lookahead", "null messages"],
                [(la, n) for la, n in sorted(nulls.items(), reverse=True)])
    print_table("E7c: Time Warp rollbacks (K=4)",
                ["executor", "rollbacks"],
                sorted(rollbacks.items()))

    # Every protocol is *correct*: identical committed logs everywhere.
    ref = logs["sequential"]
    for name, log in logs.items():
        assert log == ref, f"{name} diverged from sequential execution"
    # Conservative protocols never mis-speculate; Time Warp genuinely does
    # (and the assertion above shows it still commits the same stream).
    assert all(rollbacks[n] == 0 for n in rollbacks if n != "optimistic")
    assert rollbacks["optimistic"] >= 1
    # The null-message curse: overhead grows as lookahead shrinks.
    assert nulls[0.125] > nulls[2.0]
