"""P2P overlays: structured (Chord-style) and unstructured (Gnutella-style).

The taxonomy's *scope* axis lists "P2P networks" among the system kinds a
large-scale distributed systems simulator must express, and the paper
groups "Grid and/or P2P simulation instruments" as one family; GridSim
explicitly claims "clusters, Grids, and P2P networks".  This subpackage
provides the P2P substrate in that family's style:

* :class:`ChordRing` — a structured overlay on a 2^m identifier circle
  with successor lists and finger tables; greedy finger routing resolves a
  key in O(log N) hops (the property benchmark E13 measures).
* :class:`UnstructuredOverlay` — a random graph where queries *flood* with
  a TTL or take bounded random walks; coverage and duplicate-message cost
  are the classic contrast with structured routing.

Both are *models over the DES kernel*: `lookup`/`search` run as simulated
message exchanges with per-hop latency, so overlay behaviour composes with
everything else (churn processes interrupt them mid-flight).
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.monitor import Monitor
from ..core.process import Waitable
from ..core.rng import Stream

__all__ = ["node_id", "ChordRing", "UnstructuredOverlay", "LookupResult"]


def node_id(name: str, bits: int) -> int:
    """Stable identifier on the 2^bits circle (SHA-1, truncated)."""
    if bits < 1 or bits > 160:
        raise ConfigurationError(f"bits must be in [1,160], got {bits}")
    digest = hashlib.sha1(name.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


class LookupResult(Waitable):
    """Completes when a lookup/search resolves (or gives up)."""

    def __init__(self, key: int, started: float) -> None:
        self.key = key
        self.started = started
        self.finished: Optional[float] = None
        self.hops = 0
        self.messages = 0
        self.owner: Optional[str] = None
        self.found = False

    @property
    def latency(self) -> float:
        """Query start-to-resolution time (NaN in flight)."""
        return (self.finished - self.started) if self.finished is not None else float("nan")


class ChordRing:
    """Chord-style structured overlay (identifier circle + finger tables).

    Membership is maintained eagerly (joins/leaves rebuild the affected
    pointers immediately rather than via periodic stabilization) — the
    standard simplification when the object of study is *routing*, not the
    stabilization protocol itself.  A lookup is simulated hop by hop with
    ``hop_latency`` per message.

    Parameters
    ----------
    bits:
        Identifier-space size (2^bits points on the circle).
    hop_latency:
        Simulated one-way message latency per routing hop.
    """

    def __init__(self, sim: Simulator, bits: int = 16,
                 hop_latency: float = 0.05) -> None:
        if hop_latency <= 0:
            raise ConfigurationError("hop_latency must be > 0")
        self.sim = sim
        self.bits = bits
        self.space = 1 << bits
        self.hop_latency = hop_latency
        self._members: dict[int, str] = {}   # id -> name
        self._ring: list[int] = []           # sorted member ids
        self._fingers: dict[int, list[int]] = {}
        self.monitor = Monitor("chord")

    # -- membership ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current member count."""
        return len(self._ring)

    @property
    def members(self) -> list[str]:
        """Member names in ring-identifier order."""
        return [self._members[i] for i in self._ring]

    def join(self, name: str) -> int:
        """Add a node; returns its ring identifier."""
        nid = node_id(name, self.bits)
        while nid in self._members:  # improbable collision: probe linearly
            nid = (nid + 1) % self.space
        self._members[nid] = name
        self._insert_sorted(nid)
        self._rebuild_fingers()
        self.monitor.counter("joins").increment(self.sim.now)
        return nid

    def leave(self, name: str) -> bool:
        """Remove a node (graceful or crash — routing state is rebuilt)."""
        nid = self._find_by_name(name)
        if nid is None:
            return False
        del self._members[nid]
        self._ring.remove(nid)
        self._fingers.pop(nid, None)
        self._rebuild_fingers()
        self.monitor.counter("leaves").increment(self.sim.now)
        return True

    def _find_by_name(self, name: str) -> Optional[int]:
        for nid, n in self._members.items():
            if n == name:
                return nid
        return None

    def _insert_sorted(self, nid: int) -> None:
        lo, hi = 0, len(self._ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ring[mid] < nid:
                lo = mid + 1
            else:
                hi = mid
        self._ring.insert(lo, nid)

    def _rebuild_fingers(self) -> None:
        self._fingers = {nid: [self.successor((nid + (1 << k)) % self.space)
                               for k in range(self.bits)]
                         for nid in self._ring}

    # -- routing ----------------------------------------------------------------

    def successor(self, key: int) -> int:
        """The first member id clockwise from *key* (inclusive)."""
        if not self._ring:
            raise ConfigurationError("empty ring")
        lo, hi = 0, len(self._ring)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._ring[mid] < key:
                lo = mid + 1
            else:
                hi = mid
        return self._ring[lo % len(self._ring)]

    def owner_of(self, key: int) -> str:
        """Name of the node responsible for *key* (oracle, zero cost)."""
        return self._members[self.successor(key % self.space)]

    @staticmethod
    def _in_open_interval(x: int, a: int, b: int, space: int) -> bool:
        """x in (a, b) on the circle."""
        if a == b:
            return x != a
        if a < b:
            return a < x < b
        return x > a or x < b

    def _closest_preceding(self, nid: int, key: int) -> int:
        for f in reversed(self._fingers.get(nid, [])):
            if f in self._members and self._in_open_interval(f, nid, key, self.space):
                return f
        return nid

    def lookup(self, from_name: str, key: int) -> LookupResult:
        """Resolve *key* starting at *from_name*, one simulated hop at a time."""
        start = self._find_by_name(from_name)
        if start is None:
            raise ConfigurationError(f"unknown node {from_name!r}")
        result = LookupResult(key % self.space, self.sim.now)
        self._route_step(start, key % self.space, result,
                         budget=2 * self.bits + len(self._ring))
        return result

    def _route_step(self, nid: int, key: int, result: LookupResult,
                    budget: int) -> None:
        if nid not in self._members:
            # Node departed mid-lookup (churn): restart from its successor.
            if not self._ring:
                self._finish(result, None)
                return
            nid = self.successor(key)
        succ = self.successor((nid + 1) % self.space)
        if self._in_open_interval(key, nid, succ, self.space) or key == succ:
            # succ is responsible for key
            result.hops += 1
            result.messages += 1
            self.sim.schedule(self.hop_latency, self._finish, result, succ,
                              label="chord_resolve")
            return
        if budget <= 0:  # pathological churn: give up
            self._finish(result, None)
            return
        nxt = self._closest_preceding(nid, key)
        if nxt == nid:
            nxt = succ
        result.hops += 1
        result.messages += 1
        self.sim.schedule(self.hop_latency, self._route_step, nxt, key,
                          result, budget - 1, label="chord_hop")

    def _finish(self, result: LookupResult, owner_id: Optional[int]) -> None:
        result.finished = self.sim.now
        if owner_id is not None and owner_id in self._members:
            result.owner = self._members[owner_id]
            result.found = True
        self.monitor.tally("lookup_hops").record(result.hops)
        self.monitor.tally("lookup_latency").record(result.latency)
        result._complete(result)


class UnstructuredOverlay:
    """Random-graph overlay with flooding and random-walk search.

    Nodes hold named items; :meth:`flood_search` forwards a query to all
    neighbours up to a TTL (counting duplicate deliveries — the protocol's
    cost); :meth:`walk_search` sends k independent bounded random walks.
    """

    def __init__(self, sim: Simulator, stream: Stream, degree: int = 4,
                 hop_latency: float = 0.05) -> None:
        if degree < 1:
            raise ConfigurationError("degree must be >= 1")
        if hop_latency <= 0:
            raise ConfigurationError("hop_latency must be > 0")
        self.sim = sim
        self.stream = stream
        self.degree = degree
        self.hop_latency = hop_latency
        self._neighbours: dict[str, set[str]] = {}
        self._items: dict[str, set[str]] = {}
        self.monitor = Monitor("unstructured")

    # -- membership ---------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current node count."""
        return len(self._neighbours)

    def join(self, name: str) -> None:
        """Attach to ``degree`` random existing nodes (or fewer early on)."""
        if name in self._neighbours:
            raise ConfigurationError(f"duplicate node {name!r}")
        peers = list(self._neighbours)
        self._neighbours[name] = set()
        self._items.setdefault(name, set())
        targets = (self.stream.shuffle(peers)[: self.degree] if peers else [])
        for t in targets:
            self._neighbours[name].add(t)
            self._neighbours[t].add(name)

    def leave(self, name: str) -> bool:
        if name not in self._neighbours:
            return False
        for peer in self._neighbours.pop(name):
            self._neighbours[peer].discard(name)
        self._items.pop(name, None)
        return True

    def place_item(self, item: str, node: str) -> None:
        """Store *item* on *node* (searches can then find it)."""
        if node not in self._neighbours:
            raise ConfigurationError(f"unknown node {node!r}")
        self._items[node].add(item)

    def neighbours(self, name: str) -> set[str]:
        """A node's current neighbour set (copy)."""
        return set(self._neighbours.get(name, ()))

    # -- search ---------------------------------------------------------------------

    def flood_search(self, from_node: str, item: str, ttl: int = 4) -> LookupResult:
        """BFS flood with TTL; counts every message including duplicates."""
        if from_node not in self._neighbours:
            raise ConfigurationError(f"unknown node {from_node!r}")
        if ttl < 0:
            raise ConfigurationError("ttl must be >= 0")
        result = LookupResult(0, self.sim.now)
        seen = {from_node}
        self._flood_round(result, {from_node}, seen, item, ttl)
        return result

    def _flood_round(self, result: LookupResult, frontier: set[str],
                     seen: set[str], item: str, ttl: int) -> None:
        hits = [n for n in frontier if item in self._items.get(n, ())]
        if hits:
            result.found = True
            result.owner = sorted(hits)[0]
            self._finish(result, "flood")
            return
        if ttl == 0 or not frontier:
            self._finish(result, "flood")
            return
        nxt: set[str] = set()
        for n in sorted(frontier):
            for peer in self._neighbours.get(n, ()):
                result.messages += 1  # duplicates counted: flooding's cost
                if peer not in seen:
                    nxt.add(peer)
                    seen.add(peer)
        result.hops += 1
        self.sim.schedule(self.hop_latency, self._flood_round, result, nxt,
                          seen, item, ttl - 1, label="flood_round")

    def walk_search(self, from_node: str, item: str, walkers: int = 4,
                    max_steps: int = 32) -> LookupResult:
        """k independent random walks of bounded length."""
        if from_node not in self._neighbours:
            raise ConfigurationError(f"unknown node {from_node!r}")
        if walkers < 1 or max_steps < 1:
            raise ConfigurationError("walkers and max_steps must be >= 1")
        result = LookupResult(0, self.sim.now)
        result._active_walkers = walkers  # type: ignore[attr-defined]
        for _ in range(walkers):
            self._walk_step(result, from_node, item, max_steps)
        return result

    def _walk_step(self, result: LookupResult, node: str, item: str,
                   steps_left: int) -> None:
        if result.done:
            return
        if item in self._items.get(node, ()):
            result.found = True
            result.owner = node
            self._finish(result, "walk")
            return
        if steps_left == 0 or not self._neighbours.get(node):
            result._active_walkers -= 1  # type: ignore[attr-defined]
            if result._active_walkers == 0:  # type: ignore[attr-defined]
                self._finish(result, "walk")
            return
        nxt = self.stream.choice(sorted(self._neighbours[node]))
        result.messages += 1
        result.hops += 1
        self.sim.schedule(self.hop_latency, self._walk_step, result, nxt,
                          item, steps_left - 1, label="walk_step")

    def _finish(self, result: LookupResult, kind: str) -> None:
        if result.done:
            return
        result.finished = self.sim.now
        self.monitor.tally(f"{kind}_messages").record(result.messages)
        self.monitor.counter(f"{kind}_{'hit' if result.found else 'miss'}") \
            .increment(self.sim.now)
        result._complete(result)
