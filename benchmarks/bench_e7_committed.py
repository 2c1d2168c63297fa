"""E7 baseline collector — committed-events/sec for every executor.

Runs the shared partitioned-ring model (``repro.workloads.partitioned``)
under all four executors and records the protocol-level accounting that
belongs in ``BENCH_kernel.json``: committed events per wall second, the
optimism waste (rollbacks, anti-messages, efficiency), and CMB's
null-message overhead.  ``run_kernel_baseline.py --section e7`` merges the
result into the baseline file without disturbing the other sections.

The committed streams are cross-checked against sequential execution while
collecting — a baseline refresh that silently recorded a divergent
executor would poison every later comparison.
"""

from __future__ import annotations

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for p in (str(_HERE), str(_HERE.parent / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from repro.core.optimistic import OptimisticExecutor  # noqa: E402
from repro.core.parallel import (CMBExecutor, SequentialExecutor,  # noqa: E402
                                 WindowExecutor)
from repro.workloads.partitioned import build_partitioned_ring  # noqa: E402

EXECUTORS = {
    "sequential": SequentialExecutor,
    "cmb": CMBExecutor,
    "window": WindowExecutor,
    "optimistic": OptimisticExecutor,
}


def collect_e7(k: int = 4, jobs_per_site: int = 150, horizon: float = 400.0,
               lookahead: float = 1.0, seed: int = 0,
               repeats: int = 3) -> dict:
    """Best-of-*repeats* committed throughput per executor, plus protocol
    accounting, as the ``e7_executors`` baseline section."""
    section: dict = {
        "params": {"k": k, "jobs_per_site": jobs_per_site,
                   "horizon": horizon, "lookahead": lookahead, "seed": seed,
                   "repeats": repeats},
        "results": {},
    }
    reference = None
    for name, make in EXECUTORS.items():
        best = None
        for _ in range(max(1, repeats)):
            model = build_partitioned_ring(
                k=k, lookahead=lookahead, seed=seed,
                jobs_per_site=jobs_per_site, horizon=horizon)
            stats = make().run(model.lps, until=horizon)
            stream = repr((model.results(), model.monitor_stats()))
            if reference is None:
                reference = stream
            elif stream != reference:
                raise AssertionError(
                    f"E7 baseline: {name} committed stream diverged from "
                    f"sequential — refusing to record a broken executor")
            if best is None or stats.wall_seconds < best.wall_seconds:
                best = stats
        wall = best.wall_seconds
        section["results"][name] = {
            "events": best.events,
            "committed_events": best.committed_events,
            "committed_eps": (best.committed_events / wall
                              if wall > 0 else 0.0),
            "wall_seconds": wall,
            "rollbacks": best.rollbacks,
            "rolled_back_events": best.rolled_back_events,
            "anti_messages": best.anti_messages,
            "null_messages": best.null_messages,
            "efficiency": best.efficiency,
            "epochs": best.epochs,
        }
    return section


if __name__ == "__main__":  # pragma: no cover - ad-hoc inspection
    import json

    print(json.dumps(collect_e7(repeats=1), indent=2, sort_keys=True))
