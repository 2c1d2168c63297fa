"""Differential fuzzing of the max-min sharing engine.

Seeded random transfer schedules — mixed disjoint-pair, dumbbell-crossing,
hub-local, rate-capped, zero-size, and same-host traffic — are driven
through ``FlowNetwork`` (route classes, component-scoped, coalescing,
completion-preserving) and through ``flow_oracle.NaiveFlowNetwork`` (per
flow: recompute everything, reschedule everything, at once).  Both runs
execute the *identical* schedule, so flow-by-flow completion times must
agree to float noise; any starved flow (the bug class the share floor
guards against) shows up as a handle that never completes.  After every
recompute of either engine the solver's filling over all active flows is
also compared with the independent dict-based filling in
``flow_oracle.py`` (bit for bit for the per-flow engine, rel 1e-12 for
route classes), and the stored rates with that.  The route-class fuzz
below aims at what classes change: many flows per route, two caps on one
path, an outage inside a class, same-instant finishes.

Seeds: a fixed set always runs in CI; set ``REPRO_FUZZ_RANDOM=1`` for a
short randomized burst (each seed is printed in the failure message, and
``REPRO_FUZZ_SEED=<n>`` replays a single one).
"""

import math
import os
import random

import pytest

from repro.core import Priority, Simulator
from repro.network import FlowNetwork, Topology

from .flow_oracle import (NaiveFlowNetwork, assert_same_stream,
                          check_every_recompute, fuzz_seeds)

FIXED_SEEDS = [2009, 40962, 777216]

N_PAIRS = 3
N_TRANSFERS = 60


def build_topology(rng: random.Random) -> Topology:
    """Disjoint site pairs plus a two-leaf dumbbell around one bottleneck."""
    t = Topology()
    for i in range(N_PAIRS):
        t.add_link(f"s{i}", f"d{i}", rng.uniform(10.0, 1000.0),
                   rng.choice([0.0, 0.01]))
    t.add_link("l0", "hubL", rng.uniform(50.0, 500.0), 0.0)
    t.add_link("l1", "hubL", rng.uniform(50.0, 500.0), 0.01)
    t.add_link("hubL", "hubR", rng.uniform(10.0, 200.0), 0.0)
    t.add_link("hubR", "r0", rng.uniform(50.0, 500.0), 0.0)
    t.add_link("hubR", "r1", rng.uniform(50.0, 500.0), 0.01)
    return t


def build_schedule(rng: random.Random) -> list:
    """(start, src, dst, size, rate_cap) tuples, submission-ordered."""
    schedule = []
    now = 0.0
    for _ in range(N_TRANSFERS):
        now += rng.expovariate(2.0)
        kind = rng.random()
        if kind < 0.45:
            i = rng.randrange(N_PAIRS)
            src, dst = f"s{i}", f"d{i}"
        elif kind < 0.80:
            src, dst = f"l{rng.randrange(2)}", f"r{rng.randrange(2)}"
        elif kind < 0.90:
            src, dst = "l0", "l1"  # multi-hop but bottleneck-free
        elif kind < 0.95:
            src = dst = "s0"  # same host: never admitted
        else:
            src, dst = "l0", "r0"
        size = 0.0 if rng.random() < 0.08 else rng.uniform(10.0, 5000.0)
        cap = rng.uniform(5.0, 50.0) if rng.random() < 0.25 else math.inf
        schedule.append((now, src, dst, size, cap))
    return schedule


def run_engine(seed: int, engine: type):
    """One full run; returns (network, handles in submission order)."""
    rng = random.Random(seed)
    topo = build_topology(rng)
    schedule = build_schedule(rng)
    sim = Simulator()
    net = engine(sim, topo, efficiency=1.0)
    # an oracle that shares no code with the engine
    check_every_recompute(net, f"seed={seed} {engine.__name__}")
    handles = []
    for start, src, dst, size, cap in schedule:
        sim.schedule(start,
                     lambda s=src, d=dst, z=size, c=cap: handles.append(
                         net.transfer(s, d, z, rate_cap=c)),
                     label="fuzz_submit")
    sim.run()
    return net, handles


def run_differential(seed: int) -> None:
    """Drive both engines through one seeded schedule; raises on divergence."""
    tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
    net_inc, inc = run_engine(seed, FlowNetwork)
    net_ref, ref = run_engine(seed, NaiveFlowNetwork)
    assert len(inc) == len(ref) == N_TRANSFERS, tag
    for k, (a, b) in enumerate(zip(inc, ref)):
        what = f"{tag} flow[{k}] {a.src}->{a.dst} size={a.size:.6g}"
        assert a.done and a.finished is not None, (
            f"{what}: never completed under FlowNetwork "
            f"(starvation hang?)")
        assert b.done and b.finished is not None, (
            f"{what}: never completed under the naive engine")
        assert math.isclose(a.finished, b.finished,
                            rel_tol=1e-9, abs_tol=1e-9), (
            f"{what}: completion {a.finished!r} (FlowNetwork) != "
            f"{b.finished!r} (naive)")
    assert net_inc.completed == net_ref.completed == N_TRANSFERS, tag
    # the whole point: strictly less completion-event churn, same answers
    assert (net_inc.sharing.rescheduled
            <= net_ref.sharing.rescheduled), tag


N_CLASS_TRANSFERS = 120


def route_class_run(seed: int, engine: type):
    """Few routes, many flows each: three routes over one dumbbell
    bottleneck plus a disjoint pair, starts and sizes on a coarse grid (so
    finishes tie within and across classes), one path carrying two rate
    caps, and the shared access link failing mid-class — in the instant
    after that instant's admits — and coming back.  Returns the completion
    stream ``(finished, (id, failed))``, the abort victims' ids and every
    handle."""
    rng = random.Random(seed)
    t = Topology()
    for a, b in (("l0", "hubL"), ("l1", "hubL"), ("hubL", "hubR"),
                 ("hubR", "r0"), ("hubR", "r1"), ("s0", "d0")):
        t.add_link(a, b, rng.choice([60.0, 100.0, 150.0, 400.0]), 0.0)
    routes = [("l0", "r0"), ("l0", "r1"), ("l1", "r0"), ("s0", "d0")]
    cap = rng.choice([10.0, rng.uniform(5.0, 40.0)])
    sim = Simulator()
    net = engine(sim, t, efficiency=1.0)
    check_every_recompute(net, f"seed={seed} {engine.__name__}")
    stream, victims, handles = [], [], []

    def submit(src, dst, size, c):
        h = net.transfer(src, dst, size, rate_cap=c)
        handles.append(h)
        h._subscribe(lambda h: stream.append((h.finished, (h.id, h.failed))))

    def outage():
        for spec in t.fail_link("l0", "hubL"):
            victims.extend(f.id for f in net.abort_link(spec))

    for k in range(N_CLASS_TRANSFERS):
        src, dst = rng.choice(routes)
        c = rng.choice([cap, math.inf]) if (src, dst) == routes[0] else math.inf
        sim.schedule_at(0.25 * (k // 6), submit, src, dst,
                        rng.choice([25.0, 50.0, 100.0]), c)
    down = 0.25 * rng.randint(4, N_CLASS_TRANSFERS // 6 - 4)
    sim.schedule_at(down, outage, priority=Priority.LOW)
    sim.schedule_at(down + rng.choice([0.25, 1.0]), t.repair_link, "l0", "hubL")
    sim.run()
    return stream, victims, handles


def run_route_class_differential(seed: int) -> None:
    """Route classes against the per-flow engine: finish times within rel
    1e-12, order equal up to permutation inside a tie group, the same
    abort victims in the same order, the same undelivered bytes."""
    tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
    got, got_victims, got_handles = route_class_run(seed, FlowNetwork)
    want, want_victims, want_handles = route_class_run(seed, NaiveFlowNetwork)
    assert len(want) == N_CLASS_TRANSFERS, tag
    assert want_victims, f"{tag}: the outage hit no flow"
    assert got_victims == want_victims, tag
    assert_same_stream(got, want, tag)
    for a, b in zip(got_handles, want_handles):
        assert a.failed == b.failed and math.isclose(
            a.remaining, b.remaining, rel_tol=1e-9, abs_tol=1e-9 * a.size), (
            f"{tag}: flow #{a.id} left {a.remaining!r} vs {b.remaining!r}")


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_differential_fixed_seeds(seed):
    run_differential(seed)


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_route_classes_fixed_seeds(seed):
    run_route_class_differential(seed)


@pytest.mark.skipif(not os.environ.get("REPRO_FUZZ_RANDOM")
                    and not os.environ.get("REPRO_FUZZ_SEED"),
                    reason="randomized burst: set REPRO_FUZZ_RANDOM=1 "
                           "(or REPRO_FUZZ_SEED=<n> to replay one seed)")
def test_route_classes_random_burst():
    """A short burst of fresh seeds; any failure prints the seed to replay."""
    for seed in fuzz_seeds([]):
        run_route_class_differential(seed)


@pytest.mark.skipif(not os.environ.get("REPRO_FUZZ_RANDOM")
                    and not os.environ.get("REPRO_FUZZ_SEED"),
                    reason="randomized burst: set REPRO_FUZZ_RANDOM=1 "
                           "(or REPRO_FUZZ_SEED=<n> to replay one seed)")
def test_differential_random_burst():
    """A short burst of fresh seeds; any failure prints the seed to replay."""
    for seed in fuzz_seeds([]):
        run_differential(seed)
