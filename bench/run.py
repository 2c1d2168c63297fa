#!/usr/bin/env python3
"""The repo's one benchmark: eight workloads, end to end and layer by layer.

    python bench/run.py [--workload NAME ...] [--seed N] [--reps N]
                        [--trace [0|1] | --no-trace] [--quick] [--out FILE]
                        [--seconds S]

Runs every selected workload in its own fresh child process, one at a
time, checks that outputs are correct, prints every metric by name with its
unit and writes the result JSON (default ``bench/out/latest.json``).

``--trace`` alone (the default) runs both the timed child (end-to-end
metrics, tracing off) and the traced child (per-layer metrics); ``--trace
0`` / ``--no-trace`` only the timed one, ``--trace 1`` only the traced one.
``--seconds S`` keeps repeating (never fewer than ``--reps``) until S
seconds of repetitions have been measured.  With exactly one ``--workload``
the last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the form the PR driver reads.

Exit status is non-zero only on a harness error (a child that crashed or
printed no result); failed operations are reported, not raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# `python bench/run.py` puts bench/ first on sys.path, where trace.py would
# shadow the stdlib module of that name; import as the package instead.
sys.path[0] = str(ROOT)

from bench import metrics  # noqa: E402
from bench.child import RESULT_MARK  # noqa: E402
from bench.workloads import QUICK_SCALE, SCALE, WORKLOADS  # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
IMPORT_PROBES = 4
DEFAULT_SEED = 2009          # 1106 is the held-out seed for claims


def child_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT), str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    # str hashes order the sets FlowNetwork iterates; unpinned, the order of
    # same-timestamp cancels (no simulated number) and with it a handful of
    # nested queue calls differ from process to process
    env.setdefault("PYTHONHASHSEED", "0")
    # numpy's import starts an OpenBLAS worker per core; whether that ~65 ms
    # overlaps the main thread or serialises with it flips with the host's
    # scheduling, which made setup_s bimodal (0.11 s / 0.18 s)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    return env


def run_python(args: list[str], timeout: float) -> str:
    """Run one python child to completion, alone, and return its stdout.

    The child gets its own session so that on a timeout its whole process
    group (campaign workers included) is killed and waited for."""
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child timed out after {timeout:.0f}s: {args}")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}: {args}")
    return out


def run_child(name: str, mode: str, opts, scale: float) -> dict:
    args = ["-m", "bench.child", "--workload", name, "--mode", mode,
            "--seed", str(opts.seed), "--scale", repr(scale),
            "--reps", str(opts.reps), "--seconds", repr(opts.seconds)]
    if mode == "traced":
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        args += ["--spans", str(OUT_DIR / f"trace-{name}.json")]
    out = run_python(args, timeout=150.0 if opts.seconds else 1800.0)
    lines = [l for l in out.splitlines() if l.startswith(RESULT_MARK)]
    if not lines:
        raise RuntimeError(f"{name}/{mode}: child printed no result")
    return json.loads(lines[-1][len(RESULT_MARK):])


def probe_import(name: str) -> float:
    """Import time of the workload's modules in one more fresh process."""
    code = ("import time; from bench.workloads import WORKLOADS; "
            "t = time.perf_counter(); WORKLOADS[%r].load(); "
            "print(time.perf_counter() - t)" % name)
    return float(run_python(["-c", code], timeout=120.0).split()[-1])


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def manifest(opts, scale: float) -> dict:
    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "seed": opts.seed, "scale": scale, "reps": opts.reps,
            "seconds": opts.seconds}


def measure(name: str, opts, scale: float, modes: tuple[str, ...]) -> dict:
    """Everything about one workload: children, probes, derived metrics."""
    row: dict = {"workload": name, "why": WORKLOADS[name].why,
                 "attempted": 0, "failed": 0, "failures": []}
    digests = set()
    for mode in modes:
        res = run_child(name, mode, opts, scale)
        row[mode] = res
        row["attempted"] += res["attempted"]
        row["failed"] += res["failed"]
        row["failures"] += res["failures"]
        row["timestamp"] = res["timestamp"]
        row["params"] = res["params"]
        if res["sim_digest"]:
            digests.add(res["sim_digest"])
    if len(digests) > 1:
        row["failed"] += 1
        row["failures"].append("timed and traced children disagree on sim_digest")
    row["sim_digest"] = min(digests) if digests else None
    row["params_hash"] = hashlib.sha256(json.dumps(
        row["params"], sort_keys=True).encode()).hexdigest()[:16]
    row["failed_frac"] = row["failed"] / row["attempted"]
    if "timed" in row and row["timed"]["wall_s"]:
        timed = row["timed"]
        imports = [timed["import_s"]] + [
            probe_import(name) for _ in range(0 if opts.quick else IMPORT_PROBES)]
        row["import_s"] = {"median": statistics.median(imports),
                           "n": len(imports), "samples": imports}
        row["end_to_end"] = {
            "wall_s": timed["wall_s"]["median"],
            "setup_s": row["import_s"]["median"] + timed["build_s"]["median"],
            "peak_rss_mb": timed["peak_rss_mb"]}
    if "traced" in row:
        row["per_layer"] = row["traced"].pop("per_layer")
        row["skipped"] = row["traced"].pop("skipped")
    return row


def fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1:
        return f"{int(value):,}"
    return f"{value:.6g}"


def report(row: dict) -> None:
    print(f"\n== {row['workload']} ==  sim_digest "
          f"{(row['sim_digest'] or 'none')[:16]}  params {row['params_hash']}")
    if "end_to_end" in row:
        timed = row["timed"]
        for m in metrics.END_TO_END:
            line = f"  {m['name']:<44}{fmt(row['end_to_end'][m['name']]):>16} {m['unit']}"
            if m["name"] == "wall_s":
                w = timed["wall_s"]
                line += f"   (q1 {w['q1']:.4g}, q3 {w['q3']:.4g}, n {w['n']})"
            if m["name"] == "setup_s":
                line += (f"   (import {row['import_s']['median']:.4g} n "
                         f"{row['import_s']['n']}, build "
                         f"{timed['build_s']['median']:.4g} n {timed['build_s']['n']})")
            print(line)
    print(f"  {'failed_frac':<44}{fmt(row['failed_frac']):>16} ratio   "
          f"({row['failed']} of {row['attempted']} operations)")
    for failure in row["failures"][:5]:
        print(f"    FAILED: {failure.strip().splitlines()[-1]}")
    if "per_layer" in row:
        absent = []
        for name, unit, _ in metrics.PER_LAYER:
            value = row["per_layer"].get(name)
            why = row["skipped"].get(name)
            if value is None and not why:
                absent.append(name)
                continue
            print(f"  {name:<44}{fmt(value):>16} {unit}"
                  + (f"   (skipped: {why})" if why else ""))
        print("  no such work in this workload: " + ", ".join(absent))


def contract_line(row: dict, traced: bool) -> str:
    """The driver's last line: end-to-end metrics with tracing off,
    per-layer metrics with it on (0 where a row does not apply to the
    workload — the result JSON keeps those as null)."""
    if traced:
        values = {n: (row["per_layer"].get(n) or 0, u)
                  for n, u, _ in metrics.PER_LAYER}
    else:
        values = {m["name"]: (row["end_to_end"][m["name"]], m["unit"])
                  for m in metrics.END_TO_END}
    return json.dumps({
        "correct": row["failed"] == 0, "attempted": row["attempted"],
        "failed": row["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in values.items()}})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=list(WORKLOADS),
                    help="run only this workload (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--reps", type=int, default=5,
                    help="timed repetitions per workload (default 5)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep repeating until this many seconds are measured")
    ap.add_argument("--trace", nargs="?", const="both", default="both",
                    choices=("0", "1", "both"),
                    help="0: timed child only; 1: traced child only; "
                         "no value (default): both")
    ap.add_argument("--no-trace", dest="trace", action="store_const", const="0")
    ap.add_argument("--quick", action="store_true",
                    help=f"SCALE={QUICK_SCALE}, 1 repetition, no import probes")
    ap.add_argument("--out", default=str(OUT_DIR / "latest.json"))
    opts = ap.parse_args(argv)
    if opts.quick:
        opts.reps = 1
    scale = QUICK_SCALE if opts.quick else SCALE
    modes = {"0": ("timed",), "1": ("traced",),
             "both": ("timed", "traced")}[opts.trace]
    names = opts.workload or list(WORKLOADS)

    result = {"manifest": manifest(opts, scale), "workloads": {}}
    try:
        for name in names:
            row = measure(name, opts, scale, modes)
            result["workloads"][name] = row
            report(row)
    except RuntimeError as exc:
        print(f"harness error: {exc}", file=sys.stderr)
        return 1
    out = Path(opts.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nwrote {out}")
    if len(names) == 1:
        print(contract_line(result["workloads"][names[0]], modes == ("traced",)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
