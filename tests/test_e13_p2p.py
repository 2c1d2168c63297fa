"""E13 (extension) — P2P search disciplines under churn: the taxonomy's
scope axis covers "P2P networks"."""

import functools
import math

import pytest

from repro.core import Simulator
from repro.p2p import ChordRing, ChurnProcess, UnstructuredOverlay


@functools.cache
def chord_hops(n):
    sim = Simulator(seed=1)
    ring = ChordRing(sim, bits=20)
    for i in range(n):
        ring.join(f"node-{i}")
    keys = sim.stream("keys")
    lookups = [ring.lookup("node-0", keys.randint(0, ring.space - 1))
               for _ in range(40)]
    sim.run()
    assert all(r.found for r in lookups)
    return sum(r.hops for r in lookups) / len(lookups)


def unstructured_costs(n=100):
    sim = Simulator(seed=2)
    ov = UnstructuredOverlay(sim, sim.stream("ov"), degree=4)
    for i in range(n):
        ov.join(f"peer-{i}")
    ov.place_item("needle", f"peer-{n // 2}")
    flood = ov.flood_search("peer-0", "needle", ttl=7)
    walk = ov.walk_search("peer-0", "needle", walkers=4, max_steps=40)
    sim.run()
    return flood, walk


@functools.cache
def churn_success(mean_session):
    sim = Simulator(seed=3)
    ring = ChordRing(sim, bits=16)
    churn = ChurnProcess(sim, ring, sim.stream("churn"),
                         target_population=40, mean_session=mean_session,
                         mean_rejoin_gap=5.0, horizon=400.0)
    keys = sim.stream("keys")
    results = []

    def fire():
        if ring.size > 1:
            results.append(ring.lookup(churn.random_member(),
                                       keys.randint(0, ring.space - 1)))

    for t in range(10, 400, 5):
        sim.schedule_at(float(t), fire)
    sim.run()
    done = [r for r in results if r.done]
    return sum(r.found for r in done) / len(done)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_chord_hops_within_twice_log2_n(n):
    assert chord_hops(n) <= 2 * math.log2(n) + 1


def test_chord_hops_grow_sublinearly():
    assert chord_hops(256) < chord_hops(16) * (256 / 16) / 4
    assert chord_hops(256) <= 2 * math.log2(256)


def test_flooding_finds_the_item_at_more_messages_than_walks():
    flood, walk = unstructured_costs()
    assert flood.found
    assert flood.messages > walk.messages


def test_faster_churn_never_improves_lookup_success():
    assert churn_success(60.0) <= churn_success(400.0) + 1e-9
    # even heavy churn keeps the eager-repair overlay mostly functional
    assert churn_success(400.0) > 0.95
