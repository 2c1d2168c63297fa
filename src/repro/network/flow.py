"""Flow-level network model with incremental max-min fair bandwidth sharing.

Taxonomy *granularity of the simulation*: "the simulation of the network can
model in detail the flow of each packet through the network, a time
consuming operation that leads to better output results, or it can model
only the flows of packets going from one end to another."  This module is
the fast end-to-end option — the granularity SimGrid and OptorSim chose.

Model
-----
Each active transfer is a *flow* with a fixed route and a remaining byte
count.  At any instant, link capacity is divided among crossing flows by
**max-min fairness** computed with the classic progressive-filling
algorithm: repeatedly find the most-constrained link (smallest fair share
``free_capacity / unfrozen_flows``), freeze its flows at that share, remove
the consumed capacity, and continue.

Incremental maintenance
-----------------------
The naive formulation recomputes *every* flow's rate and re-times *every*
flow's completion on each admit/finish — O(F·L) work per network event,
and O(F) event churn when each flow owns a completion event: the classic
cost SimGrid's lazy/partial updates were built to avoid.  This engine
instead:

* keeps one :class:`_LinkState` per link the network has routed over —
  usable capacity, the crossing flows, the solver's scratch fields — and
  resolves a transfer's route into those objects once, in
  :meth:`FlowNetwork.transfer`; admit, finish, the dirty set, the component
  walk and the solver then work on the objects (attribute access, identity
  hashing) and never hash a :class:`LinkSpec` again;
* recomputes shares only for the **connected component** of flows that
  share a link (transitively) with the changed flow — progressive filling
  decomposes exactly across components, so disjoint components' rates and
  finish times are left untouched;
* keeps each link's count of unfrozen crossers **live** while filling
  (decremented as flows freeze) instead of recounting it every round;
* **preserves** the finish time of any flow whose recomputed rate is
  unchanged within a relative epsilon (``RESCHEDULE_EPS``);
* keeps **one completion timer per network**: a re-rated flow's absolute
  finish time (``FlowHandle._eta``) goes into a heap of ``(eta, id,
  handle)`` — an entry whose eta no longer matches its handle is stale and
  dropped when it surfaces — and a single event is armed at the heap
  head, moved only when the head's time changes.  On firing it finishes
  every flow due at that instant in ascending ``(eta, id)`` order and
  re-arms, so a re-rate costs a heap push, not a cancel plus a schedule;
* **coalesces** all admits/finishes at one timestamp into a single
  recompute, scheduled at the same time in the :data:`Priority.LOW` band so
  it runs after every same-time network event.

Determinism: every container the engine iterates is insertion-ordered
(dicts and lists; the one set is only probed), flows are numbered per
network and same-instant finishes fire in ``(eta, id)`` order, so rates,
completion times and completion order are a function of the transfer
sequence alone — not of ``PYTHONHASHSEED``, and not of how many flows the
process created before.

This is the only sharing engine in the package.  What it is checked
against lives beside the tests, in ``tests/flow_oracle.py``: an independent
dict-based filling (``oracle_rates``) that :meth:`FlowNetwork._solve` over
all active flows must equal bit for bit after every recompute, and
``NaiveFlowNetwork``, the recompute-everything / re-key-everything
subclass that is the differential fuzzer's reference and E8's churn
baseline.  Per-network counters in :attr:`FlowNetwork.sharing` account for
the saved work.

A flow's data starts moving after the route's propagation latency; the
returned :class:`FlowHandle` completes when the last byte arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Collection, Iterable, Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, RoutingError
from ..core.events import Event, Priority
from ..core.monitor import Monitor
from ..core.process import Waitable
from .topology import LinkSpec, Topology

__all__ = ["FlowHandle", "FlowNetwork", "SharingStats"]

#: absolute backstop for the starvation guard when the relative floor
#: underflows to zero (subnormal link capacities).
_MIN_SHARE = math.ulp(0.0)


class _LinkState:
    """One link's sharing state inside one :class:`FlowNetwork`.

    Hashed by identity and reached through :attr:`FlowHandle._path`, so the
    hot path never hashes a :class:`LinkSpec`.
    """

    __slots__ = ("capacity", "flows", "free", "live")

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity   #: usable bytes/s: bandwidth × efficiency
        #: active flows crossing the link, id → handle, in admission order
        self.flows: dict[int, FlowHandle] = {}
        self.free = 0.0            #: solver scratch: capacity not handed out
        self.live = 0              #: solver scratch: unfrozen crossers; 0 at rest


class FlowHandle(Waitable):
    """One end-to-end transfer in flight.  Completes with the handle itself.

    ``id`` numbers the transfers of one network from 1, in ``transfer()``
    order.
    """

    def __init__(self, flow_id: int, src: str, dst: str, size: float,
                 started: float, rate_cap: float = math.inf) -> None:
        super().__init__()
        self.id = flow_id
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.started = started
        self.finished: Optional[float] = None
        self.remaining = float(size)
        self.rate = 0.0
        self.rate_cap = float(rate_cap)
        self.links: list[LinkSpec] = []
        #: True when the transfer was aborted (a link on its route failed,
        #: or no route existed); ``remaining`` then keeps the undelivered
        #: byte count and ``error`` says why.  Subscribers must check this
        #: — an aborted handle still completes (exactly once), with itself.
        self.failed = False
        self.error: Optional[str] = None
        #: absolute finish time at the current rate; inf while not draining
        self._eta = math.inf
        self._last_update = started
        self._path: list[_LinkState] = []   #: ``links``, resolved per network
        self._share = 0.0                   #: solver output; < 0 = unfrozen

    @property
    def duration(self) -> float:
        """Transfer time (NaN while in flight)."""
        return (self.finished - self.started) if self.finished is not None else float("nan")

    @property
    def throughput(self) -> float:
        """Achieved end-to-end throughput (bytes/s; NaN while in flight)."""
        d = self.duration
        return self.size / d if d and not math.isnan(d) and d > 0 else float("nan")

    def __repr__(self) -> str:  # pragma: no cover
        if self.failed:
            state = f"aborted ({self.error})"
        elif self.finished is not None:
            state = "done"
        else:
            state = f"{self.remaining:.3g}B left"
        return f"<Flow #{self.id} {self.src}->{self.dst} {state}>"


@dataclass
class SharingStats:
    """Reallocation accounting for one :class:`FlowNetwork`.

    ``preserved``/``rescheduled`` partition the finish times of every
    recomputed flow that is draining; flows outside the recomputed
    component appear in neither (their finish times were never touched).
    Event-list churn is not counted here: the network owns one timer, and
    the kernel's ``push_n`` / ``cancel_n`` say what it cost.
    """

    recomputes: int = 0          #: progressive-filling passes actually run
    coalesced: int = 0           #: admits/finishes absorbed by a pending pass
    flows_touched: int = 0       #: flows whose rates were recomputed (summed)
    rescheduled: int = 0         #: finish times re-keyed (new rate)
    preserved: int = 0           #: finish times kept (rate unchanged)

    def as_dict(self) -> dict:
        """Flat dict (CSV/JSON-friendly)."""
        return {"recomputes": self.recomputes, "coalesced": self.coalesced,
                "flows_touched": self.flows_touched,
                "rescheduled": self.rescheduled, "preserved": self.preserved}


class FlowNetwork:
    """Event-driven max-min fair flow network over a :class:`Topology`.

    Parameters
    ----------
    sim, topology:
        The owning simulator and the link graph.
    efficiency:
        Fraction of nominal link capacity actually usable (protocol
        overhead); 0.92 by default, mirroring SimGrid's TCP correction.
    """

    #: Relative epsilon under which a recomputed rate counts as unchanged
    #: and the flow's finish time is preserved.  Chosen far below any
    #: modelled bandwidth change but above progressive-filling float noise,
    #: so drift against a from-scratch recompute stays ≤ RESCHEDULE_EPS per
    #: flow.
    RESCHEDULE_EPS = 1e-12

    #: Starvation guard: a bottleneck share is floored at this fraction of
    #: the bottleneck link's usable capacity.  Float residue in the free
    #: capacity bookkeeping can otherwise drive a saturated link's share to
    #: exactly zero while an uncapped flow still crosses it — the flow
    #: would freeze at rate 0, never get a finish time, and hang
    #: forever (as would any process yielding on it).
    SHARE_FLOOR_EPS = 1e-12

    def __init__(self, sim: Simulator, topology: Topology,
                 efficiency: float = 0.92) -> None:
        if not 0 < efficiency <= 1:
            raise ConfigurationError(f"efficiency must be in (0,1], got {efficiency}")
        self.sim = sim
        self.topology = topology
        self.efficiency = efficiency
        #: active flows keyed by id, in admission order.
        self._active: dict[int, FlowHandle] = {}
        #: every link a transfer was routed over → its state (bounded by the
        #: topology).  The only LinkSpec-keyed container: probed once per
        #: link per ``transfer()`` and by the by-spec public queries.
        self._link_state: dict[LinkSpec, _LinkState] = {}
        #: links whose crossing set changed since the last recompute, in
        #: marking order — the seeds of the next component-scoped pass.
        self._dirty: dict[_LinkState, None] = {}
        self._flush_scheduled = False
        #: ``(eta, flow id, handle)`` per draining flow, earliest first; an
        #: entry is stale once ``handle._eta != eta`` and is dropped when it
        #: reaches the head (lazy deletion).
        self._finishers: list[tuple[float, int, FlowHandle]] = []
        #: the network's one completion event, armed at the head's eta
        self._timer: Optional[Event] = None
        self._transfers = 0
        self.sharing = SharingStats()
        self.monitor = Monitor("flow-network")
        self._active_level = self.monitor.level("active_flows", start_time=sim.now)
        self.completed = 0
        self.aborted = 0

    # -- public API ---------------------------------------------------------------

    def transfer(self, src: str, dst: str, size: float,
                 rate_cap: float = math.inf) -> FlowHandle:
        """Start moving *size* bytes from *src* to *dst*.

        Returns a :class:`FlowHandle` to ``yield`` on (process style) or to
        subscribe to.  ``rate_cap`` bounds the flow's share (used by the
        TCP-window protocol layer).  Zero-byte transfers complete after the
        path latency alone.
        """
        if size < 0:
            raise ConfigurationError(f"transfer size must be >= 0, got {size}")
        self._transfers += 1
        handle = FlowHandle(self._transfers, src, dst, size, self.sim.now,
                            rate_cap=rate_cap)
        try:
            links = handle.links = self.topology.route_links(src, dst)
        except RoutingError:
            # Link outages partitioned the pair: fail fast (deterministic
            # same-timestamp event) instead of raising into the caller —
            # retry loops subscribe to the handle like any other outcome.
            self.sim.schedule(0.0, self._abort, handle,
                              f"no route {src} -> {dst}", label="flow_abort")
            return handle
        latency = sum(link.latency for link in links)
        if size == 0 or not links:
            # Same-host copy or empty payload: latency-only, never admitted
            # — must not perturb the rates of flows actually on the wire.
            self.sim.schedule(latency, self._finish, handle, label="flow_done")
            return handle
        states = self._link_state
        for spec in links:
            state = states.get(spec)
            if state is None:
                state = states[spec] = _LinkState(spec.bandwidth * self.efficiency)
            handle._path.append(state)
        self.sim.schedule(latency, self._admit, handle, label="flow_start")
        return handle

    @property
    def active_flows(self) -> int:
        """Number of transfers currently in flight."""
        return len(self._active)

    def flows(self) -> list[FlowHandle]:
        """The currently active flows (snapshot list)."""
        return list(self._active.values())

    def link_utilization(self, spec: LinkSpec) -> float:
        """Instantaneous utilization of one link by active flows."""
        state = self._link_state.get(spec)
        if state is None:
            return 0.0
        return sum(f.rate for f in state.flows.values()) / state.capacity

    def abort_link(self, spec: LinkSpec) -> list[FlowHandle]:
        """Abort every active flow crossing *spec* (the link went down).

        Routing state lives on the :class:`Topology` — callers mark the
        outage there first (``topology.fail_link``) so no new flow routes
        over the dead link, then call this to kill the in-flight ones.
        Returns the aborted handles (each completed with ``failed=True``).
        """
        state = self._link_state.get(spec)
        victims = list(state.flows.values()) if state is not None else []
        for f in victims:
            self._abort(f, f"link {spec.src}->{spec.dst} failed")
        return victims

    # -- internals ------------------------------------------------------------------

    def _abort(self, handle: FlowHandle, reason: str) -> None:
        """Terminate *handle* as failed: settle bytes, free its links,
        drop its finish time, and complete it with ``failed=True``."""
        if handle.finished is not None:
            return  # already finished or aborted — completion fires once
        admitted = self._active.pop(handle.id, None) is not None
        if admitted:
            self._settle(handle)
            self._leave_links(handle)
        if handle._eta != math.inf:
            handle._eta = math.inf   # its heap entry is stale now
            self._arm()
        handle.rate = 0.0
        handle.failed = True
        handle.error = reason
        handle.finished = self.sim.now
        self.aborted += 1
        self.monitor.counter("aborted_flows").increment(self.sim.now)
        obs = self.sim._obs
        if obs is not None:
            obs.on_flow_abort(handle)
        handle._complete(handle)
        if admitted:
            # the freed share goes back to the survivors on those links
            self._mark_dirty(handle._path)

    def _admit(self, handle: FlowHandle) -> None:
        # The route was up when the transfer started; a link may have died
        # during the propagation latency.  Admitting onto a dead link would
        # let bytes flow through an outage, so abort at the edge instead.
        for link in handle.links:
            if not self.topology.link_up(link.src, link.dst):
                self._abort(handle, f"link {link.src}->{link.dst} down")
                return
        handle._last_update = self.sim.now
        self._active[handle.id] = handle
        for state in handle._path:
            state.flows[handle.id] = handle
        self._active_level.set(self.sim.now, len(self._active))
        self._mark_dirty(handle._path)

    def _leave_links(self, handle: FlowHandle) -> None:
        """Take a just-deactivated flow off the links it crossed."""
        for state in handle._path:
            del state.flows[handle.id]
        self._active_level.set(self.sim.now, len(self._active))

    def _finish(self, handle: FlowHandle) -> None:
        if handle.finished is not None:
            return  # aborted in the same instant — completion fires once
        admitted = self._active.pop(handle.id, None) is not None
        handle.remaining = 0.0
        handle.rate = 0.0
        handle.finished = self.sim.now
        handle._eta = math.inf
        if admitted:
            self._leave_links(handle)
        self.completed += 1
        self.monitor.tally("transfer_time").record(handle.duration)
        if admitted:
            # Never-admitted (latency-only) handles moved no bytes over any
            # link; tallying their 0 B/s would deflate the throughput stat.
            self.monitor.tally("throughput").record(handle.throughput)
        handle._complete(handle)
        if admitted:
            # A flow that never held bandwidth cannot change anyone's share.
            self._mark_dirty(handle._path)

    def _settle(self, handle: FlowHandle) -> None:
        """Account bytes moved at the current rate since the last update."""
        dt = self.sim.now - handle._last_update
        if dt > 0:
            handle.remaining = max(0.0, handle.remaining - handle.rate * dt)
        handle._last_update = self.sim.now

    def _mark_dirty(self, path: list[_LinkState]) -> None:
        """Record that the set of flows crossing *path* changed and arrange
        one recompute: a same-timestamp LOW-band event, so every admit and
        finish at this instant lands in one pass."""
        dirty = self._dirty
        for state in path:
            dirty[state] = None
        if self._flush_scheduled:
            self.sharing.coalesced += 1
            return
        self._flush_scheduled = True
        self.sim.schedule(0.0, self._flush, label="flow_realloc",
                          priority=Priority.LOW)

    def _flush(self) -> None:
        """Run the coalesced, component-scoped recompute."""
        self._flush_scheduled = False
        seeds, self._dirty = self._dirty, {}
        component = self._component(seeds)
        if component:
            self._apply_rates(component.values())

    def _component(self, seeds: Iterable[_LinkState]) -> dict[int, FlowHandle]:
        """Flows transitively sharing a link with any seed link, in
        depth-first discovery order from the last seed."""
        flows: dict[int, FlowHandle] = {}
        stack = [state for state in seeds if state.flows]
        seen = set(stack)
        while stack:
            for f in stack.pop().flows.values():
                if f.id not in flows:
                    flows[f.id] = f
                    for state in f._path:
                        if state not in seen:
                            seen.add(state)
                            stack.append(state)
        return flows

    def _apply_rates(self, flows: Collection[FlowHandle]) -> None:
        """Settle, recompute max-min shares, and re-key finish times.

        A flow whose new rate matches its current rate within
        :data:`RESCHEDULE_EPS` (relative) keeps both its stored rate and its
        finish time — still exact, since bytes keep draining at the
        unchanged rate.  Any other flow gets ``_eta = now + remaining /
        rate`` and a fresh heap entry; the one timer is re-armed after.
        """
        for f in flows:
            self._settle(f)
        self._solve(flows)
        stats = self.sharing
        stats.recomputes += 1
        stats.flows_touched += len(flows)
        rescheduled = preserved = 0
        eps = self.RESCHEDULE_EPS
        inf = math.inf
        now = self.sim.now
        heap = self._finishers
        for f in flows:
            new_rate = f._share
            if (f._eta != inf
                    and abs(new_rate - f.rate)
                    <= eps * max(abs(new_rate), abs(f.rate))):
                preserved += 1
                continue
            f.rate = new_rate
            if new_rate > 0:
                eta = now + f.remaining / new_rate
                if eta != f._eta:   # an equal eta keeps its live entry
                    f._eta = eta
                    heappush(heap, (eta, f.id, f))
                rescheduled += 1
            else:
                # rate == 0 can only happen with a rate cap of 0; such
                # flows sit idle until a reallocation frees capacity.
                f._eta = inf
        stats.rescheduled += rescheduled
        stats.preserved += preserved
        self._arm()
        obs = self.sim._obs
        if obs is not None:
            obs.on_reallocate()

    def _arm(self) -> None:
        """Point the one timer at the earliest live finish time: drop stale
        heap heads, and move the timer only if that time changed."""
        heap = self._finishers
        while heap and heap[0][2]._eta != heap[0][0]:
            heappop(heap)
        timer = self._timer
        if heap:
            # a time-driven engine fires the timer at the tick after the
            # head's eta, and an abort at that tick re-arms first: the head
            # is then due now, not in the past
            due = max(heap[0][0], self.sim.now)
            if timer is not None:
                if timer.time == due:
                    return
                timer.cancel()
            self._timer = self.sim.schedule_at(due, self._on_timer,
                                               label="flow_done")
        elif timer is not None:
            timer.cancel()
            self._timer = None

    def _on_timer(self) -> None:
        """Finish every flow due now, in ``(eta, id)`` order, then re-arm."""
        self._timer = None
        heap = self._finishers
        now = self.sim.now
        while heap and heap[0][0] <= now:
            eta, _, f = heappop(heap)
            if f._eta == eta:
                self._finish(f)
        self._arm()

    def _solve(self, flows: Collection[FlowHandle]) -> None:
        """Progressive filling over *flows*; leaves each flow's max-min
        rate in its ``_share``.

        *flows* must hold every active flow on each link it touches: one
        connected component (filling decomposes exactly across components,
        so the restriction is lossless) or any union of them — the tests
        pass all active flows.

        The rates are a function of the order of *flows* alone: links are
        scanned in the order the flows first reach them, the strict ``<``
        keeps the earliest of equal-share bottlenecks, and capped flows
        freeze in *flows* order, so every link sees one fixed sequence of
        subtractions.  (A bottleneck's crossers all subtract the same
        share, so their order among themselves cannot matter.)
        """
        links: list[_LinkState] = []
        finite_caps = False
        for f in flows:
            f._share = -1.0
            if f.rate_cap != math.inf:
                finite_caps = True
            for state in f._path:
                if not state.live:
                    state.free = state.capacity
                    links.append(state)
                state.live += 1
        unfrozen = len(flows)
        if finite_caps:
            # Flows capped at exactly 0 can never carry bytes; freeze them
            # first so the starvation guard applies only to servable flows.
            for f in flows:
                if f.rate_cap <= 0.0:
                    f._share = 0.0
                    unfrozen -= 1
                    for state in f._path:
                        state.live -= 1
        while unfrozen:
            # Fair share each link could offer its unfrozen flows; track the
            # single most-constrained link (the iteration's bottleneck).
            best_share = math.inf
            best: Optional[_LinkState] = None
            for state in links:
                n_live = state.live
                if n_live:
                    share = state.free / n_live
                    if share < best_share:
                        best_share = share
                        best = state
            if best is None:
                # Nothing constrains the remaining flows (they cross only
                # infinite-bandwidth links); give them their caps.
                freezing = [f for f in flows if f._share < 0.0]
                at_cap = True
            else:
                # Starvation guard: float residue in `free` after repeated
                # subtraction can reach exactly 0 (or epsilon dust) while
                # uncapped flows still cross the link; a zero share would
                # freeze them at rate 0 with no finish time — a
                # permanent hang.  Floor the share relative to the
                # bottleneck's capacity (overshoot is ≤ crossers · floor,
                # far inside the efficiency margin), with an absolute
                # backstop for subnormal capacities.
                floor = self.SHARE_FLOOR_EPS * best.capacity
                if best_share < floor or best_share <= 0.0:
                    best_share = floor if floor > 0.0 else _MIN_SHARE
                # Flows capped below the bottleneck share freeze at their
                # cap first — they consume less than a fair share
                # everywhere; otherwise exactly the bottleneck link's
                # flows freeze at its fair share.
                freezing = [f for f in flows if f._share < 0.0
                            and f.rate_cap < best_share] if finite_caps else []
                at_cap = bool(freezing)
                if not at_cap:
                    freezing = [f for f in best.flows.values() if f._share < 0.0]
            if not freezing:   # a hang otherwise: say what broke instead
                raise AssertionError("max-min live counts out of step")
            unfrozen -= len(freezing)
            for f in freezing:
                rate = f._share = f.rate_cap if at_cap else best_share
                for state in f._path:
                    state.live -= 1
                    left = state.free - rate
                    state.free = left if left > 0.0 else 0.0
        # Post-condition of the guard: no servable flow ever starves.
        for f in flows:
            if f._share <= 0.0 and f.rate_cap > 0.0:
                raise AssertionError(
                    f"max-min starvation: flow #{f.id} (cap "
                    f"{f.rate_cap!r}) allocated rate {f._share!r}")
