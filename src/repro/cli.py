"""Command-line interface: the survey and validation artifacts on demand.

The taxonomy's *user interface* axis distinguishes textual from graphical
tooling; this is the framework's textual interface, exposing the artifacts
a reader of the paper would ask for:

```
python -m repro table1 [--format ascii|markdown|csv]   # regenerate Table 1
python -m repro survey                                  # Table 1 + provenance
python -m repro coverage                                # parameter-space map
python -m repro diff SIM_A SIM_B                        # axis-by-axis diff
python -m repro validate [--rho R] [--jobs N]           # M/M/1 vs theory
python -m repro validate --trace out.json --profile     # + obs artifacts
python -m repro profile [--model mm1|hold] [...]        # obs hot-spot hunt
python -m repro classify                                # classify live engines
python -m repro executors [--executor all] [...]        # E7 executor shoot-out
python -m repro flows [--mode both] [...]               # E8 sharing-engine duel
python -m repro campaign [--grid rho=0.5,0.7] [...]     # E10 ensemble engine
python -m repro campaign --report --prom metrics.prom   # fleet telemetry
python -m repro campaign --evolve --space c=1:8:int ... # evolutionary search
python -m repro campaign --scenario dependability ...   # E12 fault campaigns
```
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .core.errors import ConfigurationError
from .core.queues import QUEUE_FACTORIES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse CLI: one sub-command per survey/validation artifact."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Large-scale distributed systems simulation suite "
                    "(ICPP'09 taxonomy reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table1", help="regenerate the paper's Table 1")
    p_table.add_argument("--format", choices=("ascii", "markdown", "csv"),
                         default="ascii")
    p_table.add_argument("--include-repro", action="store_true",
                         help="add this framework as a seventh column")

    sub.add_parser("survey", help="Table 1 plus per-axis provenance notes")
    sub.add_parser("coverage", help="taxonomy parameter-space coverage")

    p_diff = sub.add_parser("diff", help="compare two simulators axis by axis")
    p_diff.add_argument("left")
    p_diff.add_argument("right")

    p_val = sub.add_parser("validate", help="simulate M/M/1 and compare to theory")
    p_val.add_argument("--rho", type=float, default=0.6)
    p_val.add_argument("--jobs", type=int, default=20_000)
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--trace", metavar="FILE", default=None,
                       help="write a Chrome trace (Perfetto-loadable) of the run")
    p_val.add_argument("--profile", action="store_true",
                       help="print the handler hot-spot table and run telemetry")
    p_val.add_argument("--runs", type=int, default=1,
                       help="independent replications; >1 adds the campaign "
                            "CI-contains-theory verdict to the point check")
    p_val.add_argument("--workers", type=int, default=1,
                       help="campaign worker processes for --runs > 1")
    p_val.add_argument("--level", type=float, default=0.95,
                       help="confidence level for the CI verdict")
    p_val.add_argument("--heartbeat", type=float, default=None, metavar="SECS",
                       help="emit a progress line every SECS wall seconds "
                            "(ensemble runs inherit it per run)")

    p_prof = sub.add_parser(
        "profile", help="run a workload under the obs profiler/tracer")
    p_prof.add_argument("--model", choices=("mm1", "hold"), default="mm1",
                        help="mm1: the validation queue; hold: the classic "
                             "hold-model kernel stressor")
    p_prof.add_argument("--rho", type=float, default=0.6,
                        help="utilization for --model mm1")
    p_prof.add_argument("--jobs", type=int, default=20_000,
                        help="jobs (mm1) or initial event population (hold)")
    p_prof.add_argument("--horizon", type=float, default=10.0,
                        help="sim-time horizon for --model hold")
    p_prof.add_argument("--queue", default="heap",
                        help="event-list structure "
                             f"({'|'.join(QUEUE_FACTORIES)})")
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--top", type=int, default=15,
                        help="hot-spot table rows")
    p_prof.add_argument("--trace", metavar="FILE", default=None,
                        help="also write the Chrome trace JSON")
    p_prof.add_argument("--csv", metavar="FILE", default=None,
                        help="also write telemetry + per-handler CSV metrics")
    p_prof.add_argument("--heartbeat", type=float, default=None, metavar="SECS",
                        help="emit a progress line every SECS wall seconds")

    sub.add_parser("classify", help="classify the live kernel engines")

    p_ex = sub.add_parser(
        "executors",
        help="run the partitioned-ring model under the distributed executors")
    p_ex.add_argument("--executor", default="all",
                      choices=("sequential", "cmb", "window", "optimistic",
                               "all"),
                      help="which synchronization protocol (default: all, "
                           "which also cross-checks committed streams)")
    p_ex.add_argument("--sites", type=int, default=4,
                      help="ring size (one LP per site)")
    p_ex.add_argument("--jobs", type=int, default=150,
                      help="local jobs per site")
    p_ex.add_argument("--until", type=float, default=400.0,
                      help="simulation horizon")
    p_ex.add_argument("--lookahead", type=float, default=1.0,
                      help="channel lookahead (conservative blocking bound)")
    p_ex.add_argument("--seed", type=int, default=0)
    p_ex.add_argument("--batch", type=int, default=32,
                      help="optimistic: events per LP per round")
    p_ex.add_argument("--checkpoint-every", type=int, default=8,
                      help="optimistic: firings between state snapshots")
    p_ex.add_argument("--throttle", type=float, default=None,
                      help="optimistic: optimism window beyond GVT "
                           "(default unbounded)")

    p_fl = sub.add_parser(
        "flows",
        help="run the flow-churn workload and print the bandwidth-sharing "
             "engine's counters")
    p_fl.add_argument("--pairs", type=int, default=40,
                      help="disjoint source->sink link pairs")
    p_fl.add_argument("--transfers", type=int, default=8,
                      help="chained transfers per pair")
    p_fl.add_argument("--backbone", type=int, default=4,
                      help="long-lived flows sharing the backbone link")

    p_cp = sub.add_parser(
        "campaign",
        help="run a Monte Carlo ensemble (or evolutionary search) of a "
             "registered scenario")
    p_cp.add_argument("--scenario", default="mm1",
                      help="registered scenario name (an unknown name "
                           "lists them)")
    p_cp.add_argument("--grid", action="append", default=[],
                      metavar="NAME=V1,V2,...",
                      help="sweep axis (repeatable); values are parsed as "
                           "int/float when possible")
    p_cp.add_argument("--set", action="append", default=[], dest="base",
                      metavar="NAME=VALUE",
                      help="base parameter applied to every run (repeatable)")
    p_cp.add_argument("--runs", type=int, default=5,
                      help="replications per grid point")
    p_cp.add_argument("--workers", type=int, default=1,
                      help="worker processes (1 = serial, in-process)")
    p_cp.add_argument("--seed", type=int, default=0,
                      help="campaign root seed")
    p_cp.add_argument("--metrics", default=None,
                      help="comma-separated metrics to summarize "
                           "(default: every numeric metric)")
    p_cp.add_argument("--level", type=float, default=0.95,
                      help="confidence level for the cross-run intervals")
    p_cp.add_argument("--timeout", type=float, default=None,
                      help="per-run wall timeout in seconds (runs go to "
                           "worker processes, even with --workers 1)")
    p_cp.add_argument("--retries", type=int, default=1,
                      help="extra attempts for failed/hung runs")
    p_cp.add_argument("--heartbeat", type=float, default=None, metavar="SECS",
                      help="per-run telemetry heartbeat every SECS wall "
                           "seconds; under --workers > 1 also ships live "
                           "beat frames and arms the stall detector")
    p_cp.add_argument("--report", action="store_true",
                      help="print the campaign telemetry report (per-worker "
                           "and per-point rates, slowest runs)")
    p_cp.add_argument("--prom", metavar="FILE", default=None,
                      help="write the merged metrics registry in Prometheus "
                           "text exposition format")
    p_cp.add_argument("--recorder-dir", metavar="DIR", default=None,
                      help="directory for flight-recorder post-mortem JSONL "
                           "dumps (written when a run fails, times out, or "
                           "loses its worker)")
    p_cp.add_argument("--evolve", action="store_true",
                      help="evolutionary search instead of a grid sweep")
    p_cp.add_argument("--space", action="append", default=[],
                      metavar="NAME=LO:HI[:int]|A,B,C",
                      help="search axis for --evolve (repeatable); LO:HI is "
                           "a float range unless the :int suffix is given")
    p_cp.add_argument("--objective", default="W",
                      help="metric expression to optimize, e.g. "
                           "'W + 0.15 * servers'")
    p_cp.add_argument("--mode", choices=("min", "max"), default="min",
                      help="optimize direction for --evolve")
    p_cp.add_argument("--population", type=int, default=12,
                      help="genomes per generation for --evolve")
    p_cp.add_argument("--generations", type=int, default=8,
                      help="generations for --evolve")
    return parser


def _cmd_table1(args) -> int:
    from .taxonomy import SURVEYED, all_records, render_ascii, render_csv, render_markdown

    records = all_records() if args.include_repro else list(SURVEYED)
    renderer = {"ascii": render_ascii, "markdown": render_markdown,
                "csv": render_csv}[args.format]
    print(renderer(records), end="")
    return 0


def _cmd_survey(_args) -> int:
    from .taxonomy import survey_report

    print(survey_report(), end="")
    return 0


def _cmd_coverage(_args) -> int:
    from .taxonomy import SURVEYED, all_records, complementarity, coverage

    cov = coverage(list(SURVEYED))
    print("Taxonomy parameter-space coverage (surveyed six):")
    for axis, cells in cov.items():
        hit = sum(cells.values())
        print(f"  {axis:<20} {hit}/{len(cells)} values covered")
        for value, covered in cells.items():
            if not covered:
                print(f"      missing: {value}")
    print(f"\njoint coverage: surveyed six = {complementarity(list(SURVEYED)):.0%}, "
          f"with repro = {complementarity(all_records()):.0%}")
    return 0


def _cmd_diff(args) -> int:
    from .taxonomy import diff, record, similarity

    try:
        a, b = record(args.left), record(args.right)
    except KeyError as exc:
        raise ConfigurationError(exc) from None
    print(f"{a.name} vs {b.name} — similarity {similarity(a, b):.0%}")
    for d in diff(a, b):
        print(f"  {d.axis:<20} {d.left}  |  {d.right}")
    return 0


def _check_mm1_args(args) -> None:
    """Refuse an M/M/1 run that simulate_mm1 would refuse."""
    from .validation.compare import DEFAULT_WARMUP

    if not 0 < args.rho < 1:
        raise ConfigurationError("--rho must be in (0,1)")
    if args.jobs <= DEFAULT_WARMUP:
        raise ConfigurationError(
            f"--jobs must exceed the {DEFAULT_WARMUP}-job warm-up")


def _cmd_validate(args) -> int:
    from .validation import MM1, compare, simulate_mm1

    _check_mm1_args(args)
    obs = None
    if args.trace or args.profile or args.heartbeat is not None:
        from .obs import Observation

        obs = Observation(trace=bool(args.trace), profile=True,
                          telemetry=True, heartbeat=args.heartbeat)
    model = MM1(args.rho, 1.0)
    stats = simulate_mm1(args.rho, 1.0, n_jobs=args.jobs, seed=args.seed,
                         obs=obs)
    report = compare(model, stats)
    print(f"M/M/1  rho={args.rho}  ({args.jobs} jobs, seed {args.seed})")
    print(f"  {'qty':<12} {'analytic':>10} {'measured':>10} {'rel err':>8}")
    for qty, analytic, measured, err in report.to_rows():
        print(f"  {qty:<12} {analytic:>10.4f} {measured:>10.4f} {err:>7.2%}")
    print(f"  worst relative error: {report.max_rel_error:.2%}")
    ci_ok = True
    if args.runs > 1:
        ci_ok = _validate_ensemble(args, model)
    if obs is not None:
        _emit_obs(obs, trace=args.trace, profile=args.profile, top=15)
    return 0 if report.max_rel_error < 0.15 and ci_ok else 1


def _validate_ensemble(args, model) -> bool:
    """The campaign upgrade of validate: CI-contains-theory over N runs."""
    from .campaign import CampaignSpec, coverage_verdict, run_campaign

    spec = CampaignSpec("mm1", base={"rho": args.rho, "jobs": args.jobs},
                        replications=args.runs, root_seed=args.seed)
    result = run_campaign(spec, workers=args.workers,
                          heartbeat=args.heartbeat)
    summaries = result.summaries(["L", "Lq", "W", "Wq", "utilization"],
                                 level=args.level)
    verdict = coverage_verdict(summaries, model)
    print(f"\n  ensemble: {result.n_ok}/{len(result.records)} runs ok, "
          f"{result.workers} worker(s), {result.wall_seconds:.2f}s wall")
    print(f"  {'qty':<12} {'analytic':>10} {'mean':>10} "
          f"{int(args.level * 100):>3}% CI{'':<17} verdict")
    all_contain = result.n_ok == len(result.records)
    for qty in sorted(verdict):
        v = verdict[qty]
        mark = "contains" if v["contains"] else "MISSES"
        all_contain &= v["contains"]
        print(f"  {qty:<12} {v['theory']:>10.4f} {v['mean']:>10.4f} "
              f"[{v['lo']:>10.4f}, {v['hi']:>10.4f}]  {mark}")
    print(f"  CI verdict: {'theory inside every interval' if all_contain else 'some interval excludes theory'}")
    return all_contain


def _emit_obs(obs, trace: str | None, profile: bool, top: int) -> None:
    """Shared tail for observed commands: hot spots, telemetry, trace file."""
    if profile:
        snap = (obs.telemetry.snapshot(obs.sim)
                if obs.telemetry is not None else {})
        print("\nHandler hot spots (wall time):")
        print(obs.profile_table(top=top))
        if snap:
            print(f"\ntelemetry: {snap['events']:,} events in "
                  f"{snap['wall_seconds']:.3f}s wall "
                  f"({snap['events_per_sec']:,.0f} ev/s, "
                  f"sim/wall {snap['sim_wall_ratio']:.3g}x)")
    if trace:
        n = obs.export_chrome(trace)
        print(f"\nwrote Chrome trace: {trace} ({n} trace events) — "
              f"load it at https://ui.perfetto.dev")


def _cmd_profile(args) -> int:
    from .obs import Observation

    obs = Observation(trace=bool(args.trace), profile=True, telemetry=True,
                      heartbeat=args.heartbeat)
    if args.model == "mm1":
        from .validation import simulate_mm1

        _check_mm1_args(args)
        simulate_mm1(args.rho, 1.0, n_jobs=args.jobs, seed=args.seed, obs=obs)
        print(f"profiled M/M/1  rho={args.rho}  ({args.jobs} jobs, "
              f"seed {args.seed})")
    else:  # hold — the kernel benchmark's classic self-regenerating load
        from .core import Simulator

        if args.queue not in QUEUE_FACTORIES:
            raise ConfigurationError(f"--queue must be one of "
                                     f"{', '.join(QUEUE_FACTORIES)}")
        sim = Simulator(queue=args.queue, seed=args.seed)
        obs.attach(sim, track=f"hold-{args.queue}")
        stream = sim.stream("hold")

        def fire() -> None:
            sim.schedule(stream.exponential(1.0), fire, label="hold")

        for _ in range(args.jobs):
            sim.schedule(stream.exponential(1.0), fire, label="hold")
        sim.run(until=args.horizon)
        print(f"profiled hold model  queue={args.queue}  "
              f"(population {args.jobs}, horizon {args.horizon})")
    _emit_obs(obs, trace=args.trace, profile=True, top=args.top)
    if args.csv:
        with open(args.csv, "w") as fp:
            fp.write(obs.metrics_csv())
        print(f"wrote CSV metrics: {args.csv}")
    return 0


def _cmd_classify(_args) -> int:
    from .core import Simulator, TimeDrivenSimulator
    from .taxonomy import classify_engine

    for label, sim in (("event-driven + heap", Simulator(queue="heap")),
                       ("event-driven + calendar", Simulator(queue="calendar")),
                       ("time-driven + heap", TimeDrivenSimulator(tick=1.0))):
        info = classify_engine(sim)
        cells = ", ".join(f"{k}={getattr(v, 'value', v)}" for k, v in info.items())
        print(f"  {label:<26} -> {cells}")
    return 0


def _cmd_executors(args) -> int:
    from .core.optimistic import OptimisticExecutor
    from .core.parallel import (CMBExecutor, SequentialExecutor,
                                WindowExecutor)
    from .workloads.partitioned import build_partitioned_ring

    factories = {
        "sequential": SequentialExecutor,
        "cmb": CMBExecutor,
        "window": WindowExecutor,
        "optimistic": lambda: OptimisticExecutor(
            batch=args.batch, checkpoint_every=args.checkpoint_every,
            throttle=args.throttle),
    }
    names = (list(factories) if args.executor == "all"
             else [args.executor])
    print(f"partitioned ring: K={args.sites} sites, {args.jobs} jobs/site, "
          f"horizon {args.until}, lookahead {args.lookahead}, "
          f"seed {args.seed}")
    header = (f"  {'executor':<16} {'events':>8} {'committed':>9} "
              f"{'rollb':>6} {'antis':>6} {'nulls':>6} {'eff':>6} "
              f"{'wall s':>8} {'cmt ev/s':>10}")
    print(header)
    print("  " + "-" * (len(header) - 2))
    streams = {}
    for name in names:
        model = build_partitioned_ring(
            k=args.sites, lookahead=args.lookahead, seed=args.seed,
            jobs_per_site=args.jobs, horizon=args.until)
        stats = factories[name]().run(model.lps, until=args.until)
        eps = (stats.committed_events / stats.wall_seconds
               if stats.wall_seconds > 0 else 0.0)
        print(f"  {name:<16} {stats.events:>8,} {stats.committed_events:>9,} "
              f"{stats.rollbacks:>6} {stats.anti_messages:>6} "
              f"{stats.null_messages:>6} {stats.efficiency:>6.3f} "
              f"{stats.wall_seconds:>8.3f} {eps:>10,.0f}")
        streams[name] = repr((model.results(), model.monitor_stats()))
    if len(streams) > 1:
        ref = streams["sequential"]
        diverged = [n for n, s in streams.items() if s != ref]
        if diverged:
            print(f"FAIL: committed streams diverged from sequential: "
                  f"{', '.join(diverged)}", file=sys.stderr)
            return 1
        print(f"  committed streams identical across all "
              f"{len(streams)} executors")
    return 0


def _cmd_flows(args) -> int:
    from .workloads.flowchurn import build_flow_churn

    print(f"flow churn: {args.pairs} pairs x {args.transfers} transfers "
          f"+ {args.backbone} backbone flows")
    s = build_flow_churn(pairs=args.pairs, transfers_per_pair=args.transfers,
                         backbone_flows=args.backbone).run().stats()
    print(f"  {'wall_seconds':<14} {s.pop('wall_seconds'):>10.3f}")
    for key, value in s.items():
        print(f"  {key:<14} {value:>10,}")
    return 0


def _parse_assignments(entries, split_values: bool) -> dict:
    """``NAME=VALUE`` (or ``NAME=V1,V2,...``) entries as a dict."""
    from .campaign.search import coerce, split_assignment

    out = {}
    for name, text in map(split_assignment, entries):
        out[name] = ([coerce(v) for v in text.split(",")] if split_values
                     else coerce(text))
    return out


def _cmd_campaign(args) -> int:
    from .campaign import (CampaignSpec, coverage_verdict, parse_space,
                           evolve, paired_summaries, run_campaign, theory_for)
    from .campaign.stats import check_level

    base = _parse_assignments(args.base, split_values=False)
    if args.evolve:
        space = parse_space(args.space)
        res = evolve(args.scenario, space, args.objective, mode=args.mode,
                     population=args.population,
                     generations=args.generations, replications=args.runs,
                     base=base, root_seed=args.seed, workers=args.workers,
                     timeout=args.timeout,
                     progress=lambda line: print(line, file=sys.stderr))
        print(f"evolutionary search: {args.scenario}  objective "
              f"{args.mode} {args.objective!r}")
        for h in res.history:
            print(f"  gen {h['generation']:>3}  best {h['best_fitness']:>10.6g}"
                  f"  mean {h['mean_fitness']:>10.6g}")
        print(res.report())
        return 0

    grid = _parse_assignments(args.grid, split_values=True)
    spec = CampaignSpec(args.scenario, base=base, grid=grid,
                        replications=args.runs, root_seed=args.seed)
    check_level(args.level)
    result = run_campaign(spec, workers=args.workers, timeout=args.timeout,
                          retries=args.retries, heartbeat=args.heartbeat,
                          recorder_dir=args.recorder_dir,
                          progress=lambda line: print(line, file=sys.stderr))
    metrics = args.metrics.split(",") if args.metrics else None
    reported = {m for r in result.records if r.status == "ok"
                for m in r.metrics}
    unknown = [m for m in metrics or () if m not in reported]
    if reported and unknown:
        raise ConfigurationError(
            f"no run reported metric(s) {', '.join(unknown)}; the runs "
            f"reported {', '.join(sorted(reported))}")
    points = spec.points()
    labels = [", ".join(f"{k}={v}" for k, v in sorted(params.items()))
              for params in points]
    print(f"campaign: {args.scenario}  {len(points)} point(s) x {args.runs} "
          f"rep(s) = {len(result.records)} runs  "
          f"({result.workers} worker(s), {result.wall_seconds:.2f}s wall, "
          f"{result.n_ok} ok, {result.timeouts} timeouts)")
    for point, summaries in result.point_summaries(metrics,
                                                   args.level).items():
        print(f"  point {point}: {labels[point]}")
        theory = theory_for(args.scenario, points[point])
        verdict = coverage_verdict(summaries, theory) if theory else {}
        for name in sorted(summaries):
            s = summaries[name]
            line = (f"    {name:<14} mean {s.mean:>10.4g}  "
                    f"±{s.halfwidth:<10.3g} "
                    f"[{s.lo:>10.4g}, {s.hi:>10.4g}] n={s.n}")
            if name in verdict:
                line += ("  theory "
                         f"{verdict[name]['theory']:.4g} "
                         + ("ok" if verdict[name]["contains"] else "MISS"))
            print(line)
    if len(points) == 2:
        print(f"  paired a - b on common random numbers: a = point 0 "
              f"({labels[0]}), b = point 1 ({labels[1]})")
        a, b = ([r for r in result.records if r.point == p] for p in (0, 1))
        paired = paired_summaries(a, b, metrics, args.level)
        for name in sorted(paired):
            s = paired[name]
            verdict = ("a < b" if s.hi < 0 else "a > b" if s.lo > 0
                       else "not resolved")
            print(f"    {name:<14} point 0 - point 1 {s.mean:>+10.4g}  "
                  f"[{s.lo:>10.4g}, {s.hi:>10.4g}] n={s.n}  {verdict}")
    for rec in result.failures:
        last = (rec.error or "").strip().splitlines() or [""]
        print(f"  FAILED run {rec.index} ({rec.status}, {rec.attempts} "
              f"attempts): {last[-1]}", file=sys.stderr)
        if rec.recorder_path:
            print(f"    flight recorder: {rec.recorder_path}",
                  file=sys.stderr)
    if args.report:
        print(f"\n{result.telemetry.report()}")
    if args.prom:
        with open(args.prom, "w") as fp:
            fp.write(result.telemetry.metrics.prometheus_text())
        print(f"wrote Prometheus metrics: {args.prom}", file=sys.stderr)
    return 0 if result.n_ok == len(result.records) else 1


_COMMANDS = {
    "table1": _cmd_table1,
    "survey": _cmd_survey,
    "coverage": _cmd_coverage,
    "diff": _cmd_diff,
    "validate": _cmd_validate,
    "profile": _cmd_profile,
    "classify": _cmd_classify,
    "executors": _cmd_executors,
    "flows": _cmd_flows,
    "campaign": _cmd_campaign,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
