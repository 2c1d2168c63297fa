"""One workload in one fresh process — the noise protocol lives here.

``python -m bench.child --workload NAME --mode timed|traced ...`` is started
by ``bench/run.py``, one child at a time, and prints one JSON result line.

* ``timed``: one discarded warm-up repetition at 1/20 size, then at least
  ``--reps`` timed repetitions (and, with ``--seconds``, as many as fit),
  ``gc.collect()`` before each and GC left on during it.  Tracing is off;
  this child's numbers are the end-to-end metrics.
* ``traced``: one repetition under :mod:`bench.trace`, then rounds of
  untraced repetitions (three, or with ``--seconds`` as many as fit) in
  which every ratio metric's variants (plain, floor, obs facets, serial
  campaign) run back to back in rotated order.
  This child's numbers are the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from . import workloads

RESULT_MARK = "BENCH_RESULT "
MAX_REPS = 64
SRC = Path(__file__).resolve().parent.parent / "src"


def summary(samples: list[float]) -> dict | None:
    """Median, quartiles and n of *samples* (``None`` when empty)."""
    if not samples:
        return None
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else [samples[0]] * 3)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "min": min(samples), "max": max(samples)}


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def one_rep(wl, inp: dict, tracer=None) -> dict:
    """Build, run and check once.  A raised exception is a failed
    operation, never a crash of the runner."""
    gc.collect()
    rep = {"build_s": None, "wall_s": None}
    state = result = None
    try:
        gen2, cpu0 = gc.get_stats()[2]["collections"], cpu_seconds()
        if tracer is not None:
            rep["build_root"] = tracer.open(tracer.name_id("build", None))
        t0 = perf_counter()
        state = wl.build(inp)
        t1 = perf_counter()
        if tracer is not None:
            tracer.close(rep["build_root"])
            rep["run_root"] = tracer.open(tracer.name_id("run", None))
        result = wl.run(state)
        t2 = perf_counter()
        if tracer is not None:
            tracer.close(rep["run_root"])
        rep.update(build_s=t1 - t0, wall_s=t2 - t1,
                   cpu_s=cpu_seconds() - cpu0,
                   gc_gen2_n=gc.get_stats()[2]["collections"] - gen2)
        rep["verdict"] = wl.check(inp, state, result)
    except Exception:
        rep["build_s"] = rep["wall_s"] = None
        rep["verdict"] = workloads.verdict(
            [traceback.format_exc(limit=4)], stats=None)
    return rep


class Tally:
    """Attempted/failed operations and the digests seen in one child."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []

    def add(self, verdict: dict, digest_fn) -> None:
        self.attempted += verdict["attempted"]
        self.failed += verdict["failed"]
        self.failures.extend(verdict["failures"])
        if verdict["stats"] is not None:
            self.digests.append(digest_fn(verdict["stats"]))

    def add_variant(self, failures: list[str]) -> None:
        self.attempted += 1
        self.failed += 1 if failures else 0
        self.failures.extend(failures)

    def result(self) -> dict:
        consistent = len(set(self.digests)) <= 1
        if not consistent:
            # repetitions of one workload in one child must agree
            self.failed += 1
            self.failures.append("sim_digest differs between repetitions")
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": self.failures[:20],
                "sim_digest": self.digests[0] if self.digests else None,
                "digest_consistent": consistent}


def prepare(wl, seed: int, scale: float, warmup: bool):
    """Timed import, discarded warm-up at 1/20 size, the real inputs."""
    t0 = perf_counter()
    wl.load()
    import_s = perf_counter() - t0
    if warmup:
        one_rep(wl, wl.inputs(seed, scale / 20.0))
    return import_s, wl.inputs(seed, scale)


def measure_timed(wl, seed: int, scale: float, reps: int,
                  seconds: float = 0.0, warmup: bool = True) -> dict:
    import_s, inp = prepare(wl, seed, scale, warmup)
    tally = Tally()
    walls, builds = [], []
    start = perf_counter()
    n = 0
    while n < MAX_REPS and (n < reps or perf_counter() - start < seconds):
        rep = one_rep(wl, inp)
        n += 1
        tally.add(rep["verdict"], workloads.digest)
        if rep["wall_s"] is not None:
            walls.append(rep["wall_s"])
            builds.append(rep["build_s"])
    return dict(tally.result(), mode="timed", import_s=import_s,
                wall_s=summary(walls), build_s=summary(builds),
                peak_rss_mb=peak_rss_mb(), params=wl.params(scale))


def code_size() -> dict:
    files = sorted(SRC.rglob("*.py"))
    return {"code.src_files": len(files),
            "code.src_lines": sum(len(f.read_text().splitlines())
                                  for f in files)}


def median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_rounds(wl, inp, variants: dict, tally: Tally, rounds: int,
               seconds: float, start: float):
    """Rounds of untraced repetitions: plain plus every ratio variant, order
    rotated each round.  A fixed count of rounds, or (``--seconds``) as many
    whole rounds as fit, at least one.  Returns the plain repetitions, every
    variant's walls and its same-round ratios to plain."""
    names = ["plain", *variants]
    plain: list[dict] = []
    walls: dict[str, list[float]] = {n: [] for n in variants}
    ratios: dict[str, list[float]] = {n: [] for n in variants}
    r, round_cost = 0, 0.0
    while r < MAX_REPS and (
            r < rounds if not seconds else
            r == 0 or perf_counter() - start + round_cost <= seconds):
        round_start = perf_counter()
        this_round = {}
        for name in names[r % len(names):] + names[:r % len(names)]:
            if name == "plain":
                rep = one_rep(wl, inp)
                tally.add(rep["verdict"], workloads.digest)
                if rep["wall_s"] is not None:
                    plain.append(rep)
                    this_round[name] = rep["wall_s"]
            else:
                gc.collect()
                this_round[name], failures = variants[name].run()
                tally.add_variant(failures)
        base = this_round.pop("plain", None)
        for name, wall in this_round.items():
            walls[name].append(wall)
            if base:
                ratios[name].append(wall / base if variants[name].over_plain
                                    else base / wall)
        r += 1
        round_cost = perf_counter() - round_start
    return plain, walls, ratios


def traced_layer_metrics(spans, peak_pending: int, run_root: int) -> dict:
    """The rows read off the span table alone."""
    budget = spans.budget(run_root, run_root)
    layer = {}
    for name, busy in budget["busy_s"].items():
        layer[f"{name}.busy_s"] = busy
        layer[f"{name}.calls_n"] = budget["calls_n"][name]
    q = "core.queues"
    push_n = spans.calls(".push", q, outermost=True)
    pop_n = (spans.calls(".pop", q, outermost=True)
             + spans.calls(".pop_if_le", q, outermost=True))
    cancel_n = spans.calls(".cancel", q)
    queue_ops = push_n + pop_n + cancel_n
    # the queue counters cover build + run: the pending set peaks when the
    # build ends
    queue_busy_s = spans.budget(0, run_root)["busy_s"][q]
    layer.update({
        "core.queues.push_n": push_n, "core.queues.pop_n": pop_n,
        "core.queues.cancel_n": cancel_n,
        "core.queues.peak_pending": peak_pending,
        "core.queues.dead_frac": cancel_n / push_n if push_n else 0.0,
        "core.queues.ns_per_op":
            queue_busy_s * 1e9 / queue_ops if queue_ops else 0.0,
        "core.queues.migrations_n": 0,
        "core.engine.events_n": spans.handlers(),
        "core.process.spawn_n": spans.calls("Process.__init__", "core.process"),
        "network.flow.transfers_n":
            spans.calls("FlowNetwork.transfer", "network.flow"),
        "trace.spans_n": len(spans.sid),
        "trace.unattributed_frac": budget["unattributed_frac"],
    })
    return layer


def measure_traced(wl, seed: int, scale: float, rounds: int,
                   seconds: float = 0.0, warmup: bool = True,
                   spans_path: str | None = None) -> dict:
    import_s, inp = prepare(wl, seed, scale, warmup)
    from . import trace   # after load(): it imports numpy
    tally = Tally()
    start = perf_counter()

    tracer = trace.Tracer()
    tracer.install()
    wl.traced = True
    try:
        traced = one_rep(wl, inp, tracer)
    finally:
        wl.traced = False
        tracer.uninstall()
    tally.add(traced["verdict"], workloads.digest)
    if traced["wall_s"] is None:
        return dict(tally.result(), mode="traced", per_layer={},
                    skipped={}, params=wl.params(scale))

    variants = wl.variants(inp, traced["verdict"]["stats"])
    plain, walls, ratios = run_rounds(wl, inp, variants, tally, rounds,
                                      seconds, start)
    plain_wall = median(p["wall_s"] for p in plain)
    build_s = median(p["build_s"] for p in plain)

    layer = traced_layer_metrics(trace.Spans(tracer), tracer.peak_live,
                                 traced["run_root"])
    # workload-owned rows: timings are medians over the plain repetitions,
    # counts are the same in every repetition
    for key in traced["verdict"]["layer"]:
        layer[key] = median(p["verdict"]["layer"].get(key) for p in plain)
    prescheduled = layer.pop("prescheduled_n", None)
    for name, variant in variants.items():
        layer[name] = median(ratios[name])
        if variant.wall_metric:
            layer[variant.wall_metric] = median(walls[name])
    if plain_wall:
        layer["core.engine.events_per_s"] = \
            layer["core.engine.events_n"] / plain_wall
        layer["trace.overhead_ratio"] = traced["wall_s"] / plain_wall
    if prescheduled and build_s:
        layer["core.engine.schedule_per_s"] = prescheduled / build_s
    layer.update({"host.import_s": import_s,
                  "host.cpu_s": median(p["cpu_s"] for p in plain),
                  "host.gc_gen2_n": median(p["gc_gen2_n"] for p in plain)},
                 **code_size())
    if spans_path:
        tracer.write(spans_path, f"{wl.name}:seed{seed}:traced")
    return dict(tally.result(), mode="traced", per_layer=layer,
                skipped=traced["verdict"]["skipped"], params=wl.params(scale),
                traced_wall_s=traced["wall_s"], plain_wall_s=plain_wall,
                rounds=len(plain), spans_path=spans_path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--mode", required=True, choices=("timed", "traced"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--reps", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    if args.mode == "timed":
        out = measure_timed(wl, args.seed, args.scale, args.reps, args.seconds)
    else:
        out = measure_traced(wl, args.seed, args.scale, min(3, args.reps),
                             args.seconds, spans_path=args.spans)
    out.update(workload=wl.name, seed=args.seed, scale=args.scale,
               timestamp=time.strftime("%Y-%m-%dT%H:%M:%S%z"))
    print(RESULT_MARK + json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
