#!/usr/bin/env python
"""Refresh the legacy E-section perf baseline (``BENCH_kernel.json``).

    PYTHONPATH=src python benchmarks/run_kernel_baseline.py    # full
    python benchmarks/run_kernel_baseline.py --smoke           # CI
    python benchmarks/run_kernel_baseline.py --section e7 --out /tmp/b.json

``--section`` refreshes one section (``e7`` … ``e11``, each from the
``bench_*.py`` collector imported below) or ``all``; a partial refresh
merges into the existing file.  ``--smoke`` shrinks the workloads and
skips the timing floors so CI machines can run it without flaking.  The
kernel itself — event list and dispatch loop — is tracked by ``bench/``'s
``timer_storm`` / ``timeout_churn`` workloads, not here.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parent
# Make the script runnable without an installed package or PYTHONPATH.
for p in (str(_HERE), str(_ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

from bench_e7_committed import collect_e7  # noqa: E402
from bench_e9_million import collect_e9  # noqa: E402
from bench_e10_campaign import collect_e10  # noqa: E402
from bench_e11_obs_fleet import E11_BUDGETS_PCT, collect_e11  # noqa: E402
from bench_flow_sharing import collect_e8  # noqa: E402

#: E8 acceptance floor: the incremental sharing engine must cut
#: completion-event cancel+reschedule churn at least this much versus the
#: full progressive-filling reference (checked only on non-smoke refreshes)
E8_RESCHEDULE_FLOOR = 3.0

#: E9 acceptance floor: at million-entity scale the self-tuning queue must
#: beat the hand-picked heap's events/sec by at least this much (it
#: currently lands 1.5-2x; the floor catches a broken migration policy,
#: not machine-to-machine eps variance).
E9_ADAPTIVE_FLOOR = 1.1

#: E10 acceptance floor: the process-pool campaign runner must cut
#: wall-clock at least this much at 4 workers vs serial on a 100-run
#: M/M/1 campaign.  Run-level parallelism is CPU-bound, so the floor is
#: only checked on machines with >= 4 cores (byte-identical per-seed
#: records are checked everywhere, including smoke).
E10_SPEEDUP_FLOOR = 3.0
E10_MIN_CPUS = 4


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5,
                    help="best-of-N repeats per timed row")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="workload size multiplier")
    ap.add_argument("--out", type=Path, default=_ROOT / "BENCH_kernel.json",
                    help="output JSON path")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workloads, no timing floors (CI smoke)")
    ap.add_argument("--section",
                    choices=("all", "e7", "e8", "e9", "e10", "e11"),
                    default="all",
                    help="which baseline section(s) to refresh; partial "
                         "refreshes merge into the existing file")
    args = ap.parse_args(argv)

    repeats = 1 if args.smoke else args.repeats
    scale = 0.02 if args.smoke else args.scale

    t0 = time.time()
    if args.section != "all" and args.out.exists():
        baseline = json.loads(args.out.read_text())
    else:
        baseline = {}

    if args.section in ("all", "e7"):
        e7_scale = 0.2 if args.smoke else 1.0
        baseline["e7_executors"] = collect_e7(
            jobs_per_site=max(20, int(150 * e7_scale)),
            horizon=max(50.0, 400.0 * e7_scale),
            repeats=repeats)

    if args.section in ("all", "e8"):
        e8_scale = 0.25 if args.smoke else 1.0
        baseline["e8_flow_sharing"] = collect_e8(
            pairs=max(8, int(60 * e8_scale)),
            transfers_per_pair=max(4, int(12 * e8_scale)),
            repeats=repeats)

    if args.section in ("all", "e9"):
        entities = max(20_000, int(1_000_000 * scale))
        baseline["e9_million_entity"] = collect_e9(
            entities=entities, repeats=repeats)

    if args.section in ("all", "e10"):
        e10_scale = 0.1 if args.smoke else 1.0
        baseline["e10_campaign"] = collect_e10(
            runs=max(10, int(100 * e10_scale)),
            jobs=max(500, int(3_000 * e10_scale)),
            repeats=repeats)

    if args.section in ("all", "e11"):
        baseline["e11_obs_fleet"] = collect_e11(repeats=repeats, scale=scale)

    baseline["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    baseline["python"] = platform.python_version()
    baseline["platform"] = platform.platform()
    baseline["smoke"] = args.smoke
    baseline["wall_seconds"] = round(time.time() - t0, 1)

    args.out.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")

    print(f"wrote {args.out} ({baseline['wall_seconds']}s)")
    if "e7_executors" in baseline:
        e7 = baseline["e7_executors"]
        hdr = (f"{'executor':<16} {'cmt ev/s':>10} {'eff':>6} {'rollb':>6} "
               f"{'antis':>6} {'nulls':>6}")
        print(hdr)
        print("-" * len(hdr))
        for name, row in e7["results"].items():
            print(f"{name:<16} {row['committed_eps']:>10,.0f} "
                  f"{row['efficiency']:>6.3f} {row['rollbacks']:>6} "
                  f"{row['anti_messages']:>6} {row['null_messages']:>6}")

    if "e8_flow_sharing" in baseline:
        e8 = baseline["e8_flow_sharing"]
        hdr = (f"{'sharing engine':<14} {'wall s':>8} {'recomp':>8} "
               f"{'touched':>9} {'resched':>9} {'preserv':>8}")
        print(hdr)
        print("-" * len(hdr))
        for name, row in e8["results"].items():
            print(f"{name:<14} {row['wall_seconds']:>8.3f} "
                  f"{row['recomputes']:>8,} {row['flows_touched']:>9,} "
                  f"{row['rescheduled']:>9,} {row['preserved']:>8,}")
        r = e8["ratios"]
        print(f"reschedule churn cut {r['reschedule_ratio']:.1f}x, "
              f"flows touched cut {r['flows_touched_ratio']:.1f}x, "
              f"wall speedup {r['wall_speedup']:.2f}x "
              f"(worst completion diff {e8['worst_completion_rel_diff']:.2e})")

    if "e9_million_entity" in baseline:
        e9 = baseline["e9_million_entity"]
        hdr = (f"{'structure':<10} {'sched ev/s':>11} {'run ev/s':>10} "
               f"{'events':>10} {'migrations':>10}")
        print(hdr)
        print("-" * len(hdr))
        for name, row in e9["results"].items():
            print(f"{name:<10} {row['schedule_eps']:>11,.0f} "
                  f"{row['run_eps']:>10,.0f} {row['events']:>10,} "
                  f"{row.get('migrations', '-'):>10}")
        if "adaptive_vs_heap" in e9:
            path = e9["results"]["adaptive"].get("migration_path", [])
            print(f"adaptive vs heap at {e9['entities']:,} entities: "
                  f"{e9['adaptive_vs_heap']:.2f}x "
                  f"(migrations: {' '.join(path) or 'none'}; "
                  f"target {e9['target_eps']:,} ev/s)")

    if "e10_campaign" in baseline:
        e10 = baseline["e10_campaign"]
        hdr = (f"{'config':<8} {'workers':>7} {'wall s':>8} {'speedup':>8} "
               f"{'identical':>10}")
        print(hdr)
        print("-" * len(hdr))
        for name, row in e10["results"].items():
            print(f"{name:<8} {row['workers']:>7} "
                  f"{row['wall_seconds']:>8.3f} {row['speedup']:>7.2f}x "
                  f"{str(row['identical']):>10}")
        print(f"campaign: {e10['runs']} x M/M/1({e10['rho']}) "
              f"{e10['jobs_per_run']} jobs, {e10['cpu_count']} cpu(s); "
              f"byte-identical records: {e10['all_identical']}")

    if "e11_obs_fleet" in baseline:
        e11 = baseline["e11_obs_fleet"]
        hdr = f"{'mode':<10} {'ev/s':>12} {'overhead':>9} {'budget':>8}"
        print(hdr)
        print("-" * len(hdr))
        for mode, row in e11["results"].items():
            over = e11["overhead_pct"].get(mode)
            budget = e11["budgets_pct"].get(mode)
            print(f"{mode:<10} {row['eps']:>12,.0f} "
                  f"{'-' if over is None else f'{over:+.2f}%':>9} "
                  f"{'-' if budget is None else f'<={budget:.0f}%':>8}")
        print(f"metric counters consistent: {e11['counters_consistent']}")

    if args.section in ("all", "e11") and "e11_obs_fleet" in baseline:
        e11 = baseline["e11_obs_fleet"]
        if not e11["counters_consistent"]:
            print("FAIL: metric instruments disagree with the engine's "
                  "fired-event count — the fleet rates are fiction",
                  file=sys.stderr)
            return 1
        if not args.smoke:
            for mode, budget in E11_BUDGETS_PCT.items():
                if budget is None:
                    continue
                over = e11["overhead_pct"][mode]
                if over > budget:
                    print(f"FAIL: e11 {mode} observability overhead "
                          f"{over:+.2f}% exceeds the {budget}% budget — "
                          f"the metrics hot path regressed", file=sys.stderr)
                    return 1

    if args.section in ("all", "e10") and "e10_campaign" in baseline:
        e10 = baseline["e10_campaign"]
        if not e10["all_identical"]:
            print("FAIL: campaign per-seed metric records diverged between "
                  "serial and parallel execution — the runner lost "
                  "determinism", file=sys.stderr)
            return 1
        if not args.smoke and e10["cpu_count"] >= E10_MIN_CPUS:
            if e10["speedup_at_max_workers"] < E10_SPEEDUP_FLOOR:
                print(f"FAIL: campaign speedup "
                      f"{e10['speedup_at_max_workers']:.2f}x at 4 workers "
                      f"below the {E10_SPEEDUP_FLOOR}x floor — the "
                      f"process-pool runner regressed", file=sys.stderr)
                return 1
        elif not args.smoke:
            print(f"note: e10 speedup floor skipped "
                  f"({e10['cpu_count']} cpu(s) < {E10_MIN_CPUS}); "
                  f"determinism gate still enforced")

    if not args.smoke and args.section in ("all", "e9") \
            and "e9_million_entity" in baseline:
        ratio = baseline["e9_million_entity"].get("adaptive_vs_heap", 0.0)
        if ratio < E9_ADAPTIVE_FLOOR:
            print(f"FAIL: adaptive queue at {ratio:.2f}x of heap at "
                  f"million-entity scale, below the {E9_ADAPTIVE_FLOOR}x "
                  f"floor — the migration policy regressed", file=sys.stderr)
            return 1

    if not args.smoke and args.section in ("all", "e8") \
            and "e8_flow_sharing" in baseline:
        ratio = baseline["e8_flow_sharing"]["ratios"]["reschedule_ratio"]
        if ratio < E8_RESCHEDULE_FLOOR:
            print(f"FAIL: E8 reschedule churn reduction {ratio:.2f}x below "
                  f"the {E8_RESCHEDULE_FLOOR}x floor — the incremental "
                  f"sharing engine regressed", file=sys.stderr)
            return 1

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
