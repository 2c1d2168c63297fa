"""What the flow engine is checked against: an oracle and a naive engine.

``oracle_rates`` is the plain dict-based progressive filling ``FlowNetwork``
ran before its solver moved onto per-link state objects and live counts:
``free`` / ``capacity`` / ``crossing`` dicts keyed by link value, an
``unfrozen`` set, and a recount of every link's unfrozen crossers on every
round.  It shares no code with ``repro.network.flow``, so a bookkeeping bug
there cannot hide behind a comparison of the engine with itself.

One deliberate difference from the historical code: flows capped below the
bottleneck share freeze in the order of *flows*, not in the iteration order
of a ``set`` of process-global ids — that order was an accident of process
history, and it decides the subtraction order, hence the last ulp.

``NaiveFlowNetwork`` is the whole-engine reference: the per-flow engine
``FlowNetwork`` was before route classes, with every optimisation but the
lazy finish heap taken out — its own link states, its own per-flow
live-count solver (scan order and subtraction order equal to the oracle's,
so the two agree **bit for bit**), its own settle and re-key.  It shares
only ``FlowHandle`` and ``SharingStats`` with ``repro.network.flow``.
``FlowNetwork`` fills route classes, subtracting ``n · share`` once where
the per-flow fill subtracts ``share`` n times, and serves a class in
virtual time, so it is held to rel 1e-12 of both, with completion order
equal up to permutation inside a tie group (``assert_same_stream``).
``tests/test_flow_fuzz.py`` and E8 (``benchmarks/bench_flow_sharing.py``)
compare completion times and churn against it.
"""

import math
import os
import random
from heapq import heappop, heappush
from unittest import mock

from repro.core.errors import RoutingError
from repro.network.flow import FlowHandle, SharingStats
from repro.workloads import flowchurn

SHARE_FLOOR_EPS = 1e-12
MIN_SHARE = math.ulp(0.0)

#: how far ``FlowNetwork`` may sit from the per-flow fill and finish times
CLASS_REL_TOL = 1e-12


def oracle_rates(flows, efficiency: float) -> dict:
    """``{flow.id: rate}`` for *flows* (objects with ``id``, ``links`` —
    hashable link values with ``bandwidth`` — and ``rate_cap``), filled in
    the order given."""
    flows = {f.id: f for f in flows}
    free, capacity, crossing = {}, {}, {}
    for f in flows.values():
        for link in f.links:
            if link not in free:
                free[link] = capacity[link] = link.bandwidth * efficiency
                crossing[link] = []
            crossing[link].append(f)
    rates = {}
    unfrozen = set(flows)
    for fid, f in flows.items():
        if f.rate_cap <= 0.0:
            rates[fid] = 0.0
            unfrozen.discard(fid)
    while unfrozen:
        best_share, best_link = math.inf, None
        for link, crossers in crossing.items():
            n_live = sum(1 for f in crossers if f.id in unfrozen)
            if n_live == 0:
                continue
            share = free[link] / n_live
            if share < best_share:
                best_share, best_link = share, link
        if best_link is None:
            for fid in unfrozen:
                rates[fid] = flows[fid].rate_cap
            break
        floor = SHARE_FLOOR_EPS * capacity[best_link]
        if best_share < floor or best_share <= 0.0:
            best_share = floor if floor > 0.0 else MIN_SHARE
        capped = [fid for fid in flows
                  if fid in unfrozen and flows[fid].rate_cap < best_share]
        if capped:
            for fid in capped:
                rate = rates[fid] = flows[fid].rate_cap
                unfrozen.discard(fid)
                for link in flows[fid].links:
                    free[link] = max(0.0, free[link] - rate)
            continue
        for f in crossing[best_link]:
            if f.id in unfrozen:
                rates[f.id] = best_share
                unfrozen.discard(f.id)
                for link in f.links:
                    free[link] = max(0.0, free[link] - best_share)
    return rates


class NaiveFlowHandle(FlowHandle):
    """A flow that keeps its own rate, remaining bytes and finish time (the
    production handle reads them through its route class)."""

    # plain class attributes shadow the base class's properties, so the
    # instance attributes set below are what these names read and write
    rate = remaining = _eta = None

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rate = 0.0
        self.remaining = self.size
        self._eta = math.inf    #: absolute finish time; inf while not draining
        self._last_update = self.started
        self._path = []         #: ``links``, resolved to this network's links
        self._share = 0.0       #: solver output; < 0 = unfrozen


class _NaiveLink:
    __slots__ = ("capacity", "flows", "free", "live")

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity
        self.flows = {}     #: id → handle of the active crossers, admission order
        self.free = 0.0
        self.live = 0


class NaiveFlowNetwork:
    """Every admit, finish and abort at once settles every active flow,
    refills all of them flow by flow and re-keys every finish time: no
    route classes, no coalescing, no component scoping, nothing preserved.
    Finish times wait in a lazy ``(eta, id, handle)`` heap under one timer;
    same-instant finishes fire in ``(eta, id)`` order."""

    def __init__(self, sim, topology, efficiency: float = 0.92) -> None:
        self.sim = sim
        self.topology = topology
        self.efficiency = efficiency
        self._active = {}
        self._links = {}
        self._finishers = []
        self._timer = None
        self._transfers = 0
        self.sharing = SharingStats()
        self.completed = 0
        self.aborted = 0

    def transfer(self, src, dst, size, rate_cap=math.inf):
        self._transfers += 1
        handle = NaiveFlowHandle(self._transfers, src, dst, size,
                                 self.sim.now, rate_cap=rate_cap)
        try:
            links = handle.links = self.topology.route_links(src, dst)
        except RoutingError:
            self.sim.schedule(0.0, self._abort, handle,
                              f"no route {src} -> {dst}")
            return handle
        latency = sum(link.latency for link in links)
        if size == 0 or not links:
            self.sim.schedule(latency, self._finish, handle)
            return handle
        for spec in links:
            if spec not in self._links:
                self._links[spec] = _NaiveLink(spec.bandwidth * self.efficiency)
            handle._path.append(self._links[spec])
        self.sim.schedule(latency, self._admit, handle)
        return handle

    def flows(self):
        return list(self._active.values())

    def abort_link(self, spec):
        link = self._links.get(spec)
        victims = list(link.flows.values()) if link is not None else []
        for f in victims:
            self._abort(f, f"link {spec.src}->{spec.dst} failed")
        return victims

    def _admit(self, handle) -> None:
        for link in handle.links:
            if not self.topology.link_up(link.src, link.dst):
                self._abort(handle, f"link {link.src}->{link.dst} down")
                return
        handle._last_update = self.sim.now
        self._active[handle.id] = handle
        for link in handle._path:
            link.flows[handle.id] = handle
        self._reallocate()

    def _leave(self, handle) -> bool:
        """Deactivate *handle*; returns whether it had been admitted."""
        if self._active.pop(handle.id, None) is None:
            return False
        self._settle(handle)
        for link in handle._path:
            del link.flows[handle.id]
        return True

    def _finish(self, handle) -> None:
        if handle.finished is not None:
            return
        admitted = self._leave(handle)
        handle.remaining = handle.rate = 0.0
        handle._eta = math.inf
        handle.finished = self.sim.now
        self.completed += 1
        handle._complete(handle)
        if admitted:
            self._reallocate()

    def _abort(self, handle, reason: str) -> None:
        if handle.finished is not None:
            return
        admitted = self._leave(handle)
        handle.rate = 0.0
        handle._eta = math.inf
        handle.failed = True
        handle.error = reason
        handle.finished = self.sim.now
        self.aborted += 1
        handle._complete(handle)
        if admitted:
            self._reallocate()

    def _settle(self, handle) -> None:
        dt = self.sim.now - handle._last_update
        if dt > 0:
            handle.remaining = max(0.0, handle.remaining - handle.rate * dt)
        handle._last_update = self.sim.now

    def _reallocate(self) -> None:
        flows = self._active.values()
        if flows:
            self._apply_rates(list(flows))
        else:
            self._arm()

    def _apply_rates(self, flows) -> None:
        """Settle, refill and re-key every flow in *flows*."""
        for f in flows:
            self._settle(f)
        self._solve(flows)
        stats = self.sharing
        stats.recomputes += 1
        stats.flows_touched += len(flows)
        now = self.sim.now
        for f in flows:
            f.rate = f._share
            if f.rate > 0:
                f._eta = now + f.remaining / f.rate
                heappush(self._finishers, (f._eta, f.id, f))
                stats.rescheduled += 1
            else:
                f._eta = math.inf   # a rate cap of 0: idle
        self._arm()

    def _arm(self) -> None:
        heap = self._finishers
        while heap and heap[0][2]._eta != heap[0][0]:
            heappop(heap)
        timer = self._timer
        if heap:
            due = max(heap[0][0], self.sim.now)
            if timer is not None:
                if timer.time == due:
                    return
                timer.cancel()
            self._timer = self.sim.schedule_at(due, self._on_timer)
        elif timer is not None:
            timer.cancel()
            self._timer = None

    def _on_timer(self) -> None:
        self._timer = None
        heap = self._finishers
        while heap and heap[0][0] <= self.sim.now:
            eta, _, f = heappop(heap)
            if f._eta == eta:
                self._finish(f)
        self._arm()

    def _solve(self, flows) -> None:
        """Per-flow progressive filling with live counts; leaves each
        flow's rate in its ``_share``."""
        links = []
        finite_caps = False
        for f in flows:
            f._share = -1.0
            if f.rate_cap != math.inf:
                finite_caps = True
            for link in f._path:
                if not link.live:
                    link.free = link.capacity
                    links.append(link)
                link.live += 1
        unfrozen = len(flows)
        if finite_caps:
            for f in flows:
                if f.rate_cap <= 0.0:
                    f._share = 0.0
                    unfrozen -= 1
                    for link in f._path:
                        link.live -= 1
        while unfrozen:
            best_share, best = math.inf, None
            for link in links:
                if link.live:
                    share = link.free / link.live
                    if share < best_share:
                        best_share, best = share, link
            if best is None:
                freezing = [f for f in flows if f._share < 0.0]
                at_cap = True
            else:
                floor = SHARE_FLOOR_EPS * best.capacity
                if best_share < floor or best_share <= 0.0:
                    best_share = floor if floor > 0.0 else MIN_SHARE
                freezing = [f for f in flows if f._share < 0.0
                            and f.rate_cap < best_share] if finite_caps else []
                at_cap = bool(freezing)
                if not at_cap:
                    freezing = [f for f in best.flows.values()
                                if f._share < 0.0]
            assert freezing, "max-min live counts out of step"
            unfrozen -= len(freezing)
            for f in freezing:
                rate = f._share = f.rate_cap if at_cap else best_share
                for link in f._path:
                    link.live -= 1
                    left = link.free - rate
                    link.free = left if left > 0.0 else 0.0
        for f in flows:
            assert f._share > 0.0 or f.rate_cap <= 0.0, f"#{f.id} starved"


def naive_flow_churn(**params) -> flowchurn.FlowChurnModel:
    """The flow-churn workload over :class:`NaiveFlowNetwork`."""
    with mock.patch.object(flowchurn, "FlowNetwork", NaiveFlowNetwork):
        return flowchurn.FlowChurnModel(**params)


def full_filling(net) -> dict:
    """``{flow.id: rate}`` from the engine's solver run over all active
    flows at once — flow by flow for the naive engine, over their route
    classes for ``FlowNetwork`` (scratch output; stored rates untouched)."""
    flows = net.flows()
    if isinstance(net, NaiveFlowNetwork):
        net._solve(flows)
        return {f.id: f._share for f in flows}
    net._solve(list(dict.fromkeys(f._cls for f in flows)))
    return {f.id: f._cls.share for f in flows}


def check_every_recompute(net, tag: str = "") -> None:
    """After each recompute of *net*, require its solver's full filling
    over the active flows to match the oracle, and its stored rates to
    agree with it.  The naive engine fills flow by flow in the oracle's
    order: both bit for bit.  ``FlowNetwork`` fills route classes: its
    filling within rel 1e-12, its stored rates within rel 1e-9 (an
    epsilon-preserved stale rate, tie-break noise between component-local
    and global filling order)."""
    apply_rates = net._apply_rates
    exact = isinstance(net, NaiveFlowNetwork)

    def checked(batch):
        apply_rates(batch)
        want = oracle_rates(net.flows(), net.efficiency)
        got = full_filling(net)
        assert got.keys() == want.keys(), f"{tag}: {got} vs {want}"
        for k, v in want.items():
            assert (got[k].hex() == v.hex() if exact else
                    math.isclose(got[k], v, rel_tol=CLASS_REL_TOL)), \
                f"{tag}: engine filling {got} != oracle {want}"
        for f in net.flows():
            assert (f.rate.hex() == want[f.id].hex() if exact else
                    math.isclose(f.rate, want[f.id],
                                 rel_tol=1e-9, abs_tol=1e-12)), \
                f"{tag}: flow #{f.id} stores {f.rate!r}, oracle {want[f.id]!r}"
    net._apply_rates = checked


def assert_same_stream(got: list, want: list, tag: str = "") -> None:
    """Two completion streams of ``(finish time, row)`` in completion order
    must have the same length, each time within rel 1e-12 of its
    counterpart, and inside each tie group — consecutive rows of *want*
    whose times agree within rel 1e-12 — the same rows as a multiset: an
    order rule may only permute completions within one instant."""
    assert len(got) == len(want), f"{tag}: {len(got)} vs {len(want)} rows"
    start = 0
    for k in range(len(want) + 1):
        if k == len(want) or not math.isclose(want[k][0], want[start][0],
                                              rel_tol=CLASS_REL_TOL):
            rows = sorted(row for _, row in got[start:k])
            assert rows == sorted(row for _, row in want[start:k]), (
                f"{tag}: rows {start}..{k - 1} differ: {got[start:k]} "
                f"vs {want[start:k]}")
            start = k
        if k < len(want):
            assert math.isclose(got[k][0], want[k][0],
                                rel_tol=CLASS_REL_TOL), (
                f"{tag}: row {k} at {got[k][0]!r} vs {want[k][0]!r}")


def fuzz_seeds(fixed: list, burst: int = 5) -> list:
    """The repo's fuzz-seed convention: *fixed* by default, one replayed
    seed under ``REPRO_FUZZ_SEED=<n>``, *burst* fresh ones under
    ``REPRO_FUZZ_RANDOM=1`` (a failing seed is in the assertion message)."""
    if os.environ.get("REPRO_FUZZ_SEED"):
        return [int(os.environ["REPRO_FUZZ_SEED"])]
    if os.environ.get("REPRO_FUZZ_RANDOM"):
        return [random.SystemRandom().randrange(2**32) for _ in range(burst)]
    return fixed
