"""Reachability census: the functions under ``src/repro`` that nothing calls.

Drives every example, one CLI invocation per sub-command (or flag group),
each ``bench/`` workload at a small scale, and under pytest the
``benchmarks/`` E-scripts and the E-claims that gate in tier-1
(``tests/test_e[0-9]*.py`` and ``tests/test_ablation_*.py``), all in one
process under ``sys.setprofile``; then lists every
``def`` under ``src/repro`` whose code object never ran.  Frames in campaign
pool workers are invisible to the profiler, so the runner's worker-only
functions are listed apart.  The last line is the never-called count.

    python tests/census.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
#: (file, qualname) of the functions that run only in a pool worker process
WORKER_ONLY = {("campaign/runner.py", "_worker_main")}
CLI = [["table1"], ["table1", "--format", "markdown", "--include-repro"],
       ["table1", "--format", "csv"], ["survey"], ["coverage"],
       ["diff", "GridSim", "SimGrid"], ["classify"],
       ["validate", "--rho", "0.5", "--jobs", "3000"],
       ["validate", "--rho", "0.6", "--jobs", "3000", "--runs", "3",
        "--heartbeat", "0"],
       ["validate", "--jobs", "3000", "--trace", "{tmp}/t.json", "--profile"],
       ["profile", "--jobs", "3000", "--csv", "{tmp}/p.csv",
        "--trace", "{tmp}/p.json"],
       ["profile", "--model", "hold", "--queue", "calendar"],
       ["executors", "--sites", "3", "--jobs", "20", "--until", "50"],
       ["flows", "--pairs", "6", "--transfers", "3"],
       ["campaign", "--scenario", "mm1", "--grid", "rho=0.5,0.7", "--set",
        "jobs=2500", "--runs", "3", "--workers", "2", "--metrics", "W,L",
        "--recorder-dir", "{tmp}", "--report", "--prom", "{tmp}/c.prom"],
       ["campaign", "--scenario", "dependability", "--set", "horizon=200",
        "--runs", "2"],
       ["campaign", "--scenario", "mmc", "--set", "jobs=2500", "--set",
        "warmup=mser5", "--runs", "2"],
       ["campaign", "--scenario", "mm1k", "--set", "jobs=2500", "--runs", "2",
        "--metrics", "W,L,blocking,utilization"],
       ["campaign", "--scenario", "provision", "--evolve", "--space",
        "servers=2:6:int", "--space", "policy=pooled,split", "--set",
        "jobs=2500", "--objective", "W + 0.15 * servers", "--population",
        "4", "--generations", "2"],
       ["campaign", "--scenario", "quadratic", "--evolve", "--space", "x=0:6",
        "--objective", "y", "--population", "4", "--generations", "2"]]


def defined(root: pathlib.Path) -> dict[tuple[str, int], str]:
    """(file, first line) → qualname for every def under *root*; the first
    line is the first decorator's, as in ``co_firstlineno``."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                out[(path, first)] = prefix + child.name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(root.rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "")
    return out


@contextlib.contextmanager
def profiled(called: set):
    """Add the (file, first line) of every Python frame entered to *called*."""
    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield called
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def drive() -> None:
    from bench.workloads import WORKLOADS
    from repro.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        for script in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(script)]
            runpy.run_path(str(script), run_name="__main__")
        for argv in CLI:
            main([a.format(tmp=tmp) for a in argv])
    for wl in WORKLOADS.values():
        wl.load()
        inp = wl.inputs(2009, 0.02)
        state = wl.build(inp)
        wl.check(inp, state, wl.run(state))
    import pytest
    # Timing off: pytest-benchmark's timed rounds drop the profile hook.
    # A failure is reported, not fatal: the hook skews the wall-clock
    # shape claims of some E-scripts.
    tests = ROOT / "tests"
    claims = sorted(map(str, [*tests.glob("test_e[0-9]*.py"),
                              *tests.glob("test_ablation_*.py")]))
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        rc = pytest.main(["-q", "-p", "no:cacheprovider",
                          "--benchmark-disable", "benchmarks", *claims])
    failed = [ln for ln in log.getvalue().splitlines()
              if ln.startswith("FAILED")]
    print(f"E-claims: pytest exit {rc}", *failed, sep="\n",
          file=sys.stderr)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.chdir(ROOT)
    called: set = set()
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), profiled(called):
            drive()
    except BaseException:
        sys.stderr.write(out.getvalue()[-20000:])
        raise
    missed = sorted((pathlib.Path(path).relative_to(SRC).as_posix(), line, name)
                    for (path, line), name in defined(SRC).items()
                    if (path, line) not in called)
    worker = [m for m in missed if (m[0], m[2]) in WORKER_ONLY]
    for path, line, name in missed:
        if (path, name) not in WORKER_ONLY:
            print(f"{path}:{line}: {name}")
    for path, line, name in worker:
        print(f"pool worker (bin 2): {path}:{line}: {name}")
    print(f"never called: {len(missed) - len(worker)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
