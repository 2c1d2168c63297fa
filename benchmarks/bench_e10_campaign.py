#!/usr/bin/env python
"""E10 — campaign ensemble engine: process-pool fan-out vs serial.

Measures a ≥100-run M/M/1 Monte Carlo campaign executed serially and under
the process-pool runner at 2 and 4 workers, recording wall-clock speedup
and — the correctness half of the gate — whether the per-seed metric
records are **byte-identical** between serial and every parallel
execution (they must be: each run's RNG seed is fixed in its RunSpec
before dispatch, and records are reassembled in matrix order).

The ≥3× speedup floor at 4 workers is only meaningful on a ≥4-core
machine; ``collect_e10`` records ``cpu_count`` so the baseline runner can
gate the floor the way ``--smoke`` gates the kernel floors.

Usage::

    PYTHONPATH=src python benchmarks/bench_e10_campaign.py
    python benchmarks/run_kernel_baseline.py --section e10
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

_HERE = Path(__file__).resolve().parent
for p in (str(_HERE), str(_HERE.parent / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from repro.campaign import CampaignSpec, run_campaign  # noqa: E402

#: worker counts measured against the serial baseline
WORKER_STEPS = (2, 4)


def collect_e10(runs: int = 100, jobs: int = 3_000, rho: float = 0.6,
                repeats: int = 1, root_seed: int = 0) -> dict:
    """Measure the campaign fan-out; returns the ``e10_campaign`` section."""
    spec = CampaignSpec("mm1", base={"rho": rho, "jobs": jobs},
                        replications=runs, root_seed=root_seed)

    # Warm the parent interpreter (bytecode, allocator, first-use caches)
    # before timing anything: forked workers inherit the warm state, so
    # without this the serial baseline alone pays first-run costs and the
    # measured "speedup" flatters the pool.
    run_campaign(CampaignSpec("mm1", base={"rho": rho, "jobs": 200},
                              replications=2, root_seed=root_seed),
                 workers=1)

    def best_of(workers: int) -> tuple[float, object]:
        best_wall, best_result = float("inf"), None
        for _ in range(max(1, repeats)):
            t0 = perf_counter()
            result = run_campaign(spec, workers=workers)
            wall = perf_counter() - t0
            if result.n_ok != len(result.records):
                raise RuntimeError(
                    f"{len(result.failures)} campaign runs failed at "
                    f"workers={workers}")
            if wall < best_wall:
                best_wall, best_result = wall, result
        return best_wall, best_result

    serial_wall, serial = best_of(1)
    reference = serial.metrics_bytes()
    results = {"serial": {"workers": 1, "wall_seconds": round(serial_wall, 3),
                          "speedup": 1.0, "identical": True}}
    for w in WORKER_STEPS:
        wall, result = best_of(w)
        results[f"w{w}"] = {
            "workers": w,
            "wall_seconds": round(wall, 3),
            "speedup": round(serial_wall / wall, 3) if wall > 0 else 0.0,
            "identical": result.metrics_bytes() == reference,
        }
    w_max = max(WORKER_STEPS)
    return {
        "scenario": "mm1",
        "runs": runs,
        "jobs_per_run": jobs,
        "rho": rho,
        "root_seed": root_seed,
        "cpu_count": os.cpu_count() or 1,
        "results": results,
        "speedup_at_max_workers": results[f"w{w_max}"]["speedup"],
        "all_identical": all(r["identical"] for r in results.values()),
    }


def main() -> int:
    section = collect_e10()
    hdr = f"{'config':<8} {'workers':>7} {'wall s':>8} {'speedup':>8} {'identical':>10}"
    print(hdr)
    print("-" * len(hdr))
    for name, row in section["results"].items():
        print(f"{name:<8} {row['workers']:>7} {row['wall_seconds']:>8.3f} "
              f"{row['speedup']:>7.2f}x {str(row['identical']):>10}")
    print(f"cpus={section['cpu_count']}  "
          f"all records byte-identical: {section['all_identical']}")
    return 0 if section["all_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
