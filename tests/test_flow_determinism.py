"""Flow sharing is a function of the transfer sequence alone.

Two things used to leak into the results.  ``PYTHONHASHSEED``: the dirty
links lived in a ``set`` of ``LinkSpec`` values, whose str-hash order chose
the component's flow order, hence the tie-break among equal-share
bottlenecks and the order of same-instant completions.  Process history:
flow ids came from a process-global counter and the capped-flow pass
iterated a ``set`` of them, so the subtraction order — and the last ulp of
a finish time — depended on how many flows the process had made before.

The same two properties are held for a time-shared machine, whose
same-instant completions fire in ``(finish key, id)`` order.

Seeds follow the fuzzers' convention (see ``flow_oracle.fuzz_seeds``).
"""

import json
import math
import os
import pathlib
import random
import subprocess
import sys

import repro
from repro.core import Simulator
from repro.hosts import TimeSharedMachine
from repro.network import FlowNetwork, dumbbell, tier_tree

from .flow_oracle import assert_same_stream, fuzz_seeds

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: ``tie_heavy_run(2009)["stream"]`` as an engine that gave every flow its
#: own completion event produced it
PER_FLOW_EVENT_STREAM = pathlib.Path(__file__).with_name("flow_stream_2009.json")
SRC = pathlib.Path(repro.__file__).resolve().parent.parent


def run_schedule(topo, schedule) -> dict:
    """Drive ``(start, src, dst, size, rate_cap)`` rows through a fresh
    network; returns the completion stream and the sharing counters."""
    sim = Simulator()
    net = FlowNetwork(sim, topo)
    stream = []
    for start, src, dst, size, cap in schedule:
        sim.schedule_at(start, lambda s=src, d=dst, z=size, c=cap:
                        net.transfer(s, d, z, rate_cap=c)._subscribe(
                            lambda h: stream.append(
                                (h.src, h.dst, h.finished.hex()))))
    sim.run()
    assert len(stream) == len(schedule)
    return {"stream": stream, "sharing": net.sharing.as_dict()}


def tie_heavy_run(seed: int) -> dict:
    """600 transfers between the 16 leaves of a 4x4 tier tree, sizes and
    start times on a coarse grid: equal-share bottlenecks and same-instant
    completions everywhere."""
    rng = random.Random(seed)
    topo = tier_tree([4, 4], [400.0, 100.0], latency=0.0)
    leaves = [n for n in topo.nodes if n.startswith("T2.")]
    schedule = []
    for k in range(600):
        src, dst = rng.sample(leaves, 2)
        schedule.append((0.5 * (k // 4), src, dst,
                         rng.choice([50.0, 100.0, 200.0]), math.inf))
    return run_schedule(topo, schedule)


def capped_run(seed: int) -> list:
    """80 transfers over a dumbbell, 70% of them rate-capped."""
    rng = random.Random(seed)
    left, right = ["l0", "l1", "l2"], ["r0", "r1", "r2"]
    topo = dumbbell(left, right, access_bw=100.0, bottleneck_bw=150.0)
    schedule = []
    now = 0.0
    for _ in range(80):
        now += rng.expovariate(4.0)
        cap = rng.uniform(1.0, 40.0) if rng.random() < 0.7 else math.inf
        schedule.append((now, rng.choice(left), rng.choice(right),
                         rng.uniform(10.0, 400.0), cap))
    return run_schedule(topo, schedule)["stream"]


def time_shared_run(seed: int) -> list:
    """300 jobs on a 2-PE time-shared machine: lengths and arrival times
    on a coarse grid (equal finish keys, same-instant completions) and a
    background-load step every 25 jobs; returns ``(id, finished.hex())``
    in completion order."""
    rng = random.Random(seed)
    sim = Simulator()
    m = TimeSharedMachine(sim, pes=2, rating=100.0)
    stream = []

    def submit(length):
        m.submit(length)._subscribe(
            lambda r: stream.append((r.id, r.finished.hex())))

    for k in range(300):
        t = 0.5 * (k // 3)
        sim.schedule_at(t, submit, rng.choice([50.0, 100.0, 200.0]))
        if k % 25 == 0:
            sim.schedule_at(t + 0.25, m.set_background_load,
                            rng.choice([0.0, 0.25, 0.5]))
    sim.run()
    assert len(stream) == 300
    return stream


def in_subprocess(seed: int, hashseed: str,
                  runner: str = "tie_heavy_run") -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import json; from tests.test_flow_determinism import "
            f"{runner}; print(json.dumps({runner}({seed})))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_results_do_not_depend_on_hash_seed():
    for seed in fuzz_seeds([2009], burst=2):
        a, b = in_subprocess(seed, "0"), in_subprocess(seed, "1")
        tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
        assert a["sharing"] == b["sharing"], tag
        diff = [(x, y) for x, y in zip(a["stream"], b["stream"]) if x != y]
        assert not diff, f"{tag}: {len(diff)} of 600 differ, first {diff[0]}"


def test_results_do_not_depend_on_process_history():
    for seed in fuzz_seeds([3, 16, 20], burst=3):
        tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
        first = capped_run(seed)
        assert capped_run(seed) == first, f"{tag}: second run differs"
        scratch = FlowNetwork(Simulator(), dumbbell(["a"], ["b"], 1.0, 1.0))
        for _ in range(10_000):
            scratch.transfer("a", "b", 1.0)   # never run: handles only
        assert capped_run(seed) == first, f"{tag}: differs after 10k handles"


def test_completion_times_equal_the_per_flow_event_engine():
    """Route classes and one completion timer move finish times by float
    noise only: against the per-flow-event stream, each finish time is
    within rel 1e-12 and the rows are equal as a multiset inside every tie
    group — the order rule may only permute rows within one instant."""
    want = [(float.fromhex(t), (src, dst)) for src, dst, t
            in json.loads(PER_FLOW_EVENT_STREAM.read_text())]
    got = [(float.fromhex(t), (src, dst)) for src, dst, t
           in tie_heavy_run(2009)["stream"]]
    assert_same_stream(got, want)


def test_time_shared_results_do_not_depend_on_hash_seed():
    for seed in fuzz_seeds([2009], burst=2):
        tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
        a = in_subprocess(seed, "0", "time_shared_run")
        b = in_subprocess(seed, "1", "time_shared_run")
        assert a == b, tag


def test_time_shared_results_do_not_depend_on_process_history():
    for seed in fuzz_seeds([3, 16, 20], burst=3):
        tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
        first = time_shared_run(seed)
        assert time_shared_run(seed) == first, f"{tag}: second run differs"
        scratch = TimeSharedMachine(Simulator(), pes=2, rating=1.0)
        for _ in range(10_000):
            scratch.submit(1.0)   # never run: runs and heap entries only
        assert time_shared_run(seed) == first, f"{tag}: differs after 10k runs"
