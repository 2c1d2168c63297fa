"""Network topology: nodes, links, routing.

Taxonomy *network characteristics*: "the network elements interconnecting
hosts within simulated distributed environments — routers, switches and
other devices".  A :class:`Topology` is a directed multigraph of named nodes
joined by :class:`LinkSpec` edges (bandwidth + latency), with shortest-path
routing (a heap Dijkstra, :meth:`Topology._shortest_paths`) cached per source.

Factory helpers build the standard shapes the surveyed simulators assume:
a star (Bricks' central model), a tier tree (MONARC's T0/T1/T2), a dumbbell
(bottleneck studies), a ring, and an EU-DataGrid-like mesh (OptorSim).
Bandwidths are in **bytes per simulated second**, latencies in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from ..core.errors import ConfigurationError, RoutingError, TopologyError

__all__ = [
    "GBPS",
    "MBPS",
    "LinkSpec",
    "Topology",
    "star",
    "ring",
    "dumbbell",
    "tier_tree",
    "eu_datagrid",
]

#: 1 gigabit/s expressed in bytes/s — convenient for link definitions.
GBPS = 1e9 / 8
MBPS = 1e6 / 8


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """One directed link: capacity in bytes/s, propagation latency in s."""

    src: str
    dst: str
    bandwidth: float
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ConfigurationError(
                f"link {self.src}->{self.dst}: bandwidth must be > 0")
        if self.latency < 0:
            raise ConfigurationError(
                f"link {self.src}->{self.dst}: latency must be >= 0")


class Topology:
    """Named nodes + directed capacity/latency links + shortest-path routes.

    Routes minimize total latency (with hop count as tiebreak via a tiny
    per-hop epsilon); they are computed lazily per source and invalidated
    on mutation.
    """

    _HOP_EPS = 1e-9

    def __init__(self) -> None:
        #: node -> {successor -> LinkSpec}; nodes in first-seen order, their
        #: successors in link-insertion order (enumeration and route ties)
        self._succ: dict[str, dict[str, LinkSpec]] = {}
        self._route_cache: dict[str, dict[str, list[str]]] = {}
        #: directed edges currently out of service — routing hides them, so
        #: traffic reroutes around an outage when an alternate path exists
        #: and :meth:`route` raises RoutingError when the cut partitions
        #: the pair.
        self._down: set[tuple[str, str]] = set()

    # -- construction ----------------------------------------------------------

    def add_node(self, name: str, **attrs) -> None:
        """Add a node (a no-op when it exists).  *attrs* (``kind=``, ``tier=``)
        label it for the factory's reader; nothing queries or stores them."""
        self._succ.setdefault(name, {})
        self._route_cache.clear()

    def add_link(self, src: str, dst: str, bandwidth: float,
                 latency: float = 0.0, symmetric: bool = True) -> None:
        """Add a link (both directions when *symmetric*); creates endpoints."""
        spec = LinkSpec(src, dst, bandwidth, latency)  # validates
        out, back = self._succ.setdefault(src, {}), self._succ.setdefault(dst, {})
        out[dst] = spec  # re-adding a link replaces its spec in place
        if symmetric:
            back[src] = LinkSpec(dst, src, bandwidth, latency)
        self._route_cache.clear()

    # -- link availability ------------------------------------------------------

    def _has_link(self, src: str, dst: str) -> bool:
        return dst in self._succ.get(src, ())

    def fail_link(self, src: str, dst: str,
                  symmetric: bool = True) -> list[LinkSpec]:
        """Take the ``src -> dst`` link (and its reverse when *symmetric*)
        out of service.  Returns the specs that actually transitioned
        up→down, so callers can abort the flows crossing them.  Raises
        :class:`TopologyError` when the forward edge does not exist."""
        if not self._has_link(src, dst):
            raise TopologyError(f"no direct link {src} -> {dst}")
        downed: list[LinkSpec] = []
        pairs = ((src, dst), (dst, src)) if symmetric else ((src, dst),)
        for a, b in pairs:
            if self._has_link(a, b) and (a, b) not in self._down:
                self._down.add((a, b))
                downed.append(self._succ[a][b])
        if downed:
            self._route_cache.clear()
        return downed

    def repair_link(self, src: str, dst: str,
                    symmetric: bool = True) -> list[LinkSpec]:
        """Return the link (and reverse when *symmetric*) to service.
        Returns the specs that actually transitioned down→up."""
        if not self._has_link(src, dst):
            raise TopologyError(f"no direct link {src} -> {dst}")
        restored: list[LinkSpec] = []
        pairs = ((src, dst), (dst, src)) if symmetric else ((src, dst),)
        for a, b in pairs:
            if (a, b) in self._down:
                self._down.discard((a, b))
                restored.append(self._succ[a][b])
        if restored:
            self._route_cache.clear()
        return restored

    def link_up(self, src: str, dst: str) -> bool:
        """True when the directed edge exists and is in service."""
        return self._has_link(src, dst) and (src, dst) not in self._down

    @property
    def down_links(self) -> list[LinkSpec]:
        """Specs of every directed edge currently out of service."""
        return [self._succ[a][b] for a, b in sorted(self._down)]

    # -- queries ------------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """All node names."""
        return list(self._succ)

    @property
    def links(self) -> list[LinkSpec]:
        """All directed :class:`LinkSpec` edges."""
        return [spec for succ in self._succ.values() for spec in succ.values()]

    def has_node(self, name: str) -> bool:
        """True when *name* exists in the graph."""
        return name in self._succ

    def link(self, src: str, dst: str) -> LinkSpec:
        """The direct link ``src -> dst``; raises if absent."""
        try:
            return self._succ[src][dst]
        except KeyError:
            raise TopologyError(f"no direct link {src} -> {dst}") from None

    def degree(self, name: str) -> int:
        """Outgoing link count of a node."""
        if name not in self._succ:
            raise TopologyError(f"unknown node {name!r}")
        return len(self._succ[name])

    # -- routing ------------------------------------------------------------------

    def route(self, src: str, dst: str) -> list[str]:
        """Node sequence ``[src, ..., dst]`` minimizing latency (+hop eps).

        For ``src != dst`` this is the cached list: the same object on every
        call until a mutation or an outage invalidates the cache, so a
        caller may keep what it derived from a route for as long as the
        list it gets back *is* the one it derived it from.  Do not modify
        it."""
        for n in (src, dst):
            if n not in self._succ:
                raise TopologyError(f"unknown node {n!r}")
        if src == dst:
            return [src]
        per_src = self._route_cache.get(src)
        if per_src is None:
            per_src = self._route_cache[src] = self._shortest_paths(src)
        try:
            return per_src[dst]
        except KeyError:
            raise RoutingError(f"no route {src} -> {dst}") from None

    def _shortest_paths(self, src: str) -> dict[str, list[str]]:
        """Dijkstra from *src*: ``{reachable node: [src, ..., node]}``.

        Out-of-service links do not exist.  Which of several equal-cost
        paths wins decides every flow's links, so the rule is fixed (it is
        networkx's, which routed here before): a link costs ``latency +
        _HOP_EPS``, summed in that association; only a strictly smaller
        distance replaces a tentative one; equal distances pop in push
        order; successors are scanned in link-insertion order.
        """
        paths: dict[str, list[str]] = {}
        seen = {src: 0.0}
        fringe: list[tuple[float, int, str, list[str]]] = [(0.0, 0, src, [])]
        pushed = 1  # unique, so the heap never compares beyond it
        while fringe:
            dist_v, _, v, prefix = heappop(fringe)
            if v in paths:
                continue
            path = paths[v] = prefix + [v]
            for u, spec in self._succ[v].items():
                if u in paths or (v, u) in self._down:
                    continue
                vu_dist = dist_v + (spec.latency + self._HOP_EPS)
                if u not in seen or vu_dist < seen[u]:
                    seen[u] = vu_dist
                    heappush(fringe, (vu_dist, pushed, u, path))
                    pushed += 1
        return paths

    def route_links(self, src: str, dst: str) -> list[LinkSpec]:
        """The link sequence along :meth:`route` (empty when src == dst)."""
        path = self.route(src, dst)
        return [self._succ[a][b] for a, b in zip(path, path[1:])]

    def path_latency(self, src: str, dst: str) -> float:
        """Total propagation latency along the route."""
        return sum(link.latency for link in self.route_links(src, dst))

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        """Minimum link capacity along the route (inf for src == dst)."""
        links = self.route_links(src, dst)
        return min((l.bandwidth for l in links), default=float("inf"))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Topology nodes={len(self._succ)} links={len(self.links)}>"


# -- canonical shapes --------------------------------------------------------------


def star(center: str, leaves: Sequence[str], bandwidth: float,
         latency: float = 0.01) -> Topology:
    """Bricks-style central model: every leaf talks through *center*."""
    if not leaves:
        raise ConfigurationError("star needs at least one leaf")
    topo = Topology()
    topo.add_node(center, kind="hub")
    for leaf in leaves:
        topo.add_node(leaf, kind="leaf")
        topo.add_link(leaf, center, bandwidth, latency)
    return topo


def ring(names: Sequence[str], bandwidth: float, latency: float = 0.01) -> Topology:
    """A bidirectional ring."""
    if len(names) < 3:
        raise ConfigurationError("ring needs at least three nodes")
    topo = Topology()
    for n in names:
        topo.add_node(n)
    for a, b in zip(names, list(names[1:]) + [names[0]]):
        topo.add_link(a, b, bandwidth, latency)
    return topo


def dumbbell(left: Sequence[str], right: Sequence[str], access_bw: float,
             bottleneck_bw: float, latency: float = 0.005) -> Topology:
    """Two clusters joined by one bottleneck link — congestion's fruit-fly."""
    if not left or not right:
        raise ConfigurationError("dumbbell needs nodes on both sides")
    topo = Topology()
    topo.add_node("Lhub", kind="router")
    topo.add_node("Rhub", kind="router")
    topo.add_link("Lhub", "Rhub", bottleneck_bw, latency)
    for n in left:
        topo.add_node(n)
        topo.add_link(n, "Lhub", access_bw, latency)
    for n in right:
        topo.add_node(n)
        topo.add_link(n, "Rhub", access_bw, latency)
    return topo


def tier_tree(tier_sizes: Sequence[int], bandwidths: Sequence[float],
              latency: float = 0.01, root: str = "T0") -> Topology:
    """MONARC-style tier model: T0 at the root, T1 children, T2 below...

    ``tier_sizes[k]`` is the number of tier-(k+1) centres *per* tier-k parent;
    ``bandwidths[k]`` is the capacity of tier-k -> tier-(k+1) links.
    Node names: ``T0``, ``T1.0``, ``T1.1``, ``T2.0.0`` ...
    """
    if len(tier_sizes) != len(bandwidths):
        raise ConfigurationError("tier_sizes and bandwidths must align")
    topo = Topology()
    topo.add_node(root, tier=0)
    parents: list[tuple[str, tuple[int, ...]]] = [(root, ())]
    for level, (fanout, bw) in enumerate(zip(tier_sizes, bandwidths), start=1):
        children: list[tuple[str, tuple[int, ...]]] = []
        for parent_name, path in parents:
            for c in range(fanout):
                cpath = path + (c,)
                name = f"T{level}." + ".".join(map(str, cpath))
                topo.add_node(name, tier=level)
                topo.add_link(parent_name, name, bw, latency)
                children.append((name, cpath))
        parents = children
    return topo


def eu_datagrid(site_names: Iterable[str] | None = None,
                wan_bandwidth: float = 2.5 * GBPS,
                lan_bandwidth: float = 10 * GBPS,
                latency: float = 0.02) -> Topology:
    """OptorSim's simplified EU DataGrid: sites on a shared WAN backbone.

    Each site has a LAN access link onto a backbone router; CERN is the
    default data source with a fatter access pipe.
    """
    names = list(site_names) if site_names is not None else [
        "CERN", "RAL", "IN2P3", "CNAF", "NIKHEF", "FZK", "PIC", "NDGF",
    ]
    if not names:
        raise ConfigurationError("eu_datagrid needs at least one site")
    topo = Topology()
    topo.add_node("WAN", kind="backbone")
    for i, site in enumerate(names):
        topo.add_node(site, kind="site")
        bw = lan_bandwidth if i == 0 else wan_bandwidth
        topo.add_link(site, "WAN", bw, latency)
    return topo
