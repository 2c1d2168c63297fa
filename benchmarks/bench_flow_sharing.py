"""E8 baseline collector — incremental vs naive max-min bandwidth sharing.

Runs the deterministic flow-churn workload (``repro.workloads.flowchurn``:
many disjoint site pairs chaining transfers, plus a handful of long-lived
flows on one shared backbone) under two engines:

* ``incremental`` — ``repro.network.flow.FlowNetwork``: component-scoped
  recompute, coalesced flushes, epsilon-preserved finish times;
* ``full`` — ``tests/flow_oracle.py::NaiveFlowNetwork``, the test-side
  per-flow engine that recomputes every flow and re-keys every finish
  time on each admit/finish (the churn baseline).

Completion times are cross-checked between the two engines while
collecting — a baseline refresh that silently recorded a divergent
allocator would poison every later comparison.  The headline ratios are
the finish-time re-keys saved (``reschedule_ratio``) and the wall-clock
speedup; ``run_kernel_baseline.py --section e8`` merges the section into
``BENCH_kernel.json`` as ``e8_flow_sharing``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for p in (str(_HERE), str(_HERE.parent / "src"), str(_HERE.parent)):
    if p not in sys.path:
        sys.path.insert(0, p)

from repro.workloads.flowchurn import build_flow_churn  # noqa: E402
from tests.flow_oracle import naive_flow_churn  # noqa: E402

#: relative tolerance for the incremental-vs-reference completion-time
#: cross-check: covers epsilon-preserved stale rates (RESCHEDULE_EPS) and
#: float tie-break noise between component-local and global filling.
EQUIV_REL_TOL = 1e-9


def _run_mode(build, repeats: int, **params):
    """Best-of-*repeats* run of one engine; returns (stats, completions)."""
    best = None
    completions = None
    for _ in range(max(1, repeats)):
        model = build(**params).run()
        stats = model.stats()
        if best is None or stats["wall_seconds"] < best["wall_seconds"]:
            best = stats
            completions = model.completion_times()
    return best, completions


def collect_e8(pairs: int = 60, transfers_per_pair: int = 12,
               backbone_flows: int = 4, repeats: int = 3) -> dict:
    """Best-of-*repeats* churn/wall numbers for both sharing engines, plus
    the saved-work ratios, as the ``e8_flow_sharing`` baseline section."""
    params = {"pairs": pairs, "transfers_per_pair": transfers_per_pair,
              "backbone_flows": backbone_flows}
    section: dict = {"params": {**params, "repeats": repeats}, "results": {}}

    inc, inc_times = _run_mode(build_flow_churn, repeats, **params)
    full, full_times = _run_mode(naive_flow_churn, repeats, **params)

    worst = 0.0
    for got, want in zip(inc_times, full_times):
        worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
        if not math.isclose(got, want, rel_tol=EQUIV_REL_TOL, abs_tol=1e-12):
            raise AssertionError(
                f"E8 baseline: incremental completion time {got!r} diverged "
                f"from the naive engine's {want!r} — refusing to record a "
                f"broken allocator")

    section["results"]["incremental"] = inc
    section["results"]["full"] = full
    section["worst_completion_rel_diff"] = worst
    section["ratios"] = {
        "reschedule_ratio": (full["rescheduled"] / inc["rescheduled"]
                             if inc["rescheduled"] else math.inf),
        "flows_touched_ratio": (full["flows_touched"] / inc["flows_touched"]
                                if inc["flows_touched"] else math.inf),
        "wall_speedup": (full["wall_seconds"] / inc["wall_seconds"]
                         if inc["wall_seconds"] > 0 else math.inf),
    }
    return section


if __name__ == "__main__":  # pragma: no cover - ad-hoc inspection
    import json

    print(json.dumps(collect_e8(repeats=1), indent=2, sort_keys=True))
