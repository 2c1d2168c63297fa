"""Topology routes are networkx's, proven rather than assumed.

``Topology`` routed through ``networkx.single_source_dijkstra_path`` until
it grew its own heap Dijkstra; every flow's links, rate and completion time
hang off which of several equal-cost paths wins, so the replacement must
make networkx's choice everywhere.  The fuzz below checks that against a
networkx-backed reference (skipped where networkx is absent); the three
literal tie cases pin the rule without it.
"""

import random

import pytest

from repro.core import RoutingError
from repro.network import LinkSpec, Topology

# -- the rule, pinned as literals ------------------------------------------------


def diamond() -> Topology:
    """s -> {a, b} -> d, all four links equal; b is the older *node*, a the
    older *link*."""
    t = Topology()
    t.add_node("b")
    for src, dst in (("s", "a"), ("s", "b"), ("a", "d"), ("b", "d")):
        t.add_link(src, dst, 100.0, 0.01)
    return t


def test_diamond_tie_goes_to_the_first_inserted_link():
    t = diamond()
    assert t.nodes == ["b", "s", "a", "d"]
    assert t.route("s", "d") == ["s", "a", "d"]
    assert t.route("d", "s") == ["d", "a", "s"]


def test_diamond_with_first_branch_down_takes_the_other():
    t = diamond()
    t.fail_link("s", "a")
    assert t.route("s", "d") == ["s", "b", "d"]
    assert t.route("s", "a") == ["s", "b", "d", "a"]
    t.repair_link("s", "a")
    assert t.route("s", "d") == ["s", "a", "d"]


def test_equal_latency_one_hop_beats_two_hops():
    t = Topology()
    t.add_link("a", "b", 100.0, 0.01)
    t.add_link("b", "c", 100.0, 0.01)
    t.add_link("a", "c", 1.0, 0.02)  # same total latency, one hop less
    assert t.route("a", "c") == ["a", "c"]
    assert t.route("c", "a") == ["c", "a"]


# -- differential fuzz against networkx -------------------------------------------


class NxReference:
    """The networkx-backed ``Topology`` this repo routed with before."""

    def __init__(self, nx):
        self.nx = nx
        self.g = nx.DiGraph()
        self.down = set()

    def add_node(self, name):
        self.g.add_node(name)

    def add_link(self, src, dst, bandwidth, latency, symmetric):
        self.g.add_edge(src, dst, spec=LinkSpec(src, dst, bandwidth, latency))
        if symmetric:
            self.g.add_edge(dst, src,
                            spec=LinkSpec(dst, src, bandwidth, latency))

    def set_link(self, src, dst, symmetric, fail):
        pairs = ((src, dst), (dst, src)) if symmetric else ((src, dst),)
        for pair in pairs:
            if fail and self.g.has_edge(*pair):
                self.down.add(pair)
            elif not fail:
                self.down.discard(pair)

    @property
    def links(self):
        return [d["spec"] for _, _, d in self.g.edges(data=True)]

    def routes_from(self, src):
        return self.nx.single_source_dijkstra_path(
            self.g, src,
            weight=lambda u, v, d: (None if (u, v) in self.down
                                    else d["spec"].latency + Topology._HOP_EPS))


def fuzzed_pair(rng, nx):
    """One random topology built twice: (Topology, NxReference)."""
    n = rng.randint(2, 14)
    names = [f"n{i}" for i in range(n)]
    latencies = [rng.choice((0.0, 0.005, 0.01, 0.02, 0.1))
                 for _ in range(rng.randint(1, 5))]
    topo, ref = Topology(), NxReference(nx)

    def add_node(name):
        topo.add_node(name, kind="fuzz")
        ref.add_node(name)

    for name in rng.sample(names, rng.randint(0, n)):  # some nodes first
        add_node(name)
    for _ in range(rng.randint(1, 3 * n)):
        src, dst = rng.sample(names, 2)
        if rng.random() < 0.15 and topo.links:  # re-add: new spec, old place
            old = rng.choice(topo.links)
            src, dst = old.src, old.dst
        link = (src, dst, rng.choice((10.0, 100.0)), rng.choice(latencies),
                rng.random() < 0.7)
        topo.add_link(*link)
        ref.add_link(*link)
    for name in rng.sample(names, rng.randint(0, 2)):  # and some after
        add_node(name)
    return topo, ref


def assert_same(topo, ref):
    assert topo.nodes == list(ref.g.nodes)
    assert topo.links == ref.links
    assert topo.down_links == [ref.g.edges[p]["spec"] for p in sorted(ref.down)]
    routes = 0
    for src in topo.nodes:
        assert topo.degree(src) == ref.g.out_degree(src)
        expected = ref.routes_from(src)
        for dst in topo.nodes:
            routes += 1
            if dst in expected:
                path = expected[dst]
                assert topo.route(src, dst) == path
                assert topo.route_links(src, dst) == [
                    ref.g.edges[a, b]["spec"] for a, b in zip(path, path[1:])]
            else:
                with pytest.raises(RoutingError):
                    topo.route(src, dst)
                with pytest.raises(RoutingError):
                    topo.route_links(src, dst)
    return routes


def test_routes_equal_networkx_on_fuzzed_topologies():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20090922)
    routes = 0
    for _ in range(320):
        topo, ref = fuzzed_pair(rng, nx)
        routes += assert_same(topo, ref)
        for _ in range(3):  # fail/repair rounds
            for spec in rng.sample(topo.links, min(len(topo.links),
                                                   rng.randint(1, 4))):
                fail, symmetric = rng.random() < 0.7, rng.random() < 0.5
                change = topo.fail_link if fail else topo.repair_link
                change(spec.src, spec.dst, symmetric=symmetric)
                ref.set_link(spec.src, spec.dst, symmetric, fail)
            routes += assert_same(topo, ref)
    assert routes > 50_000
