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
  usable capacity, the route classes crossing it, the solver's scratch
  fields — and resolves a route into those objects once, the first time
  :meth:`FlowNetwork.transfer` meets it (again only when the topology's
  routing changes); admit, finish, the dirty set, the component walk and
  the solver then work on the objects (attribute access, identity
  hashing) and never hash a :class:`LinkSpec`;
* groups the active flows into **route classes** (:class:`_RouteClass`),
  one per resolved path and rate cap.  Max-min cannot tell two flows of a
  class apart — same links, same cap, so they freeze in the same round at
  the same share — so the solver fills classes, not flows: a class adds
  its size ``n`` to each of its links' live count, and freezing it
  subtracts ``n · share`` once.  Links list the classes that cross them;
* serves each class as egalitarian processor sharing in virtual time,
  behind one completion timer per network (:mod:`repro.core.sharing`,
  DESIGN §5m): settle, solve and re-key cost O(classes touched), not
  O(flows);
* recomputes shares only for the **connected component** of classes that
  share a link (transitively) with the changed flow — progressive filling
  decomposes exactly across components, so disjoint components' rates and
  finish times are left untouched;
* keeps each link's count of unfrozen crossers **live** while filling
  (lowered by ``n`` as a class freezes) instead of recounting it every
  round;
* **preserves** the rate and head finish time of any class whose
  recomputed rate is unchanged within a relative epsilon
  (``RESCHEDULE_EPS``) and whose head is still its head;
* **coalesces** all admits/finishes at one timestamp into a single
  recompute, scheduled at the same time in the :data:`Priority.LOW` band so
  it runs after every same-time network event.  A finish or abort that
  leaves every link of its path empty changes no one's share and
  schedules nothing.  A flow admitted alone onto links no other class
  crosses and none awaits a flush, with nothing else due at this instant,
  is solved at once: that flush would solve its one class next, to the
  same rate.

Determinism: every container the engine iterates is insertion-ordered
and flows are numbered per network, so rates, completion times and
completion order are a function of the transfer sequence alone.  This is
the only sharing engine in the package; its oracles live in
``tests/flow_oracle.py`` (DESIGN §5e), and :attr:`FlowNetwork.sharing`
counts the work it saves.

A flow's data starts moving after the route's propagation latency; the
returned :class:`FlowHandle` completes when the last byte arrives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Iterable, Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError, RoutingError
from ..core.events import Priority
from ..core.monitor import Monitor
from ..core.process import Waitable
from ..core.sharing import PSClass, PSOwner
from .topology import LinkSpec, Topology

__all__ = ["FlowHandle", "FlowNetwork", "SharingStats"]

#: absolute backstop for the starvation guard when the relative floor
#: underflows to zero (subnormal link capacities).
_MIN_SHARE = math.ulp(0.0)


class _LinkState:
    """One link's sharing state inside one :class:`FlowNetwork`.

    Hashed by identity and reached through :attr:`_RouteClass.path`, so the
    hot path never hashes a :class:`LinkSpec`.
    """

    __slots__ = ("capacity", "classes", "free", "live")

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity   #: usable bytes/s: bandwidth × efficiency
        #: the non-empty route classes crossing the link, in the order they
        #: last became non-empty
        self.classes: dict[_RouteClass, None] = {}
        self.free = 0.0            #: solver scratch: capacity not handed out
        self.live = 0              #: solver scratch: unfrozen crossers; 0 at rest


class _RouteClass(PSClass):
    """The active flows of one network that share a resolved path and a
    rate cap: one rate, one virtual clock, one heap entry.

    Kept, empty and with its clock reset, when its last member leaves, so
    a route's next transfer allocates nothing: a network holds one per
    (path, cap) its transfers have used.
    """

    __slots__ = ("path", "cap", "links", "latency", "n", "pending", "share")

    def __init__(self, path: tuple[_LinkState, ...], cap: float,
                 links: list[LinkSpec], sim: Simulator) -> None:
        super().__init__(sim)
        self.path = path
        self.cap = cap
        #: the route's links, the ``links`` of every member (not to be
        #: modified), and their summed propagation latency
        self.links = links
        self.latency = sum(link.latency for link in links)
        self.n = 0                 #: active members, keyed or pending
        #: admitted since the last recompute, keyed by the next one
        self.pending: list[FlowHandle] = []
        self.share = 0.0           #: solver output; < 0 = unfrozen


class FlowHandle(Waitable):
    """One end-to-end transfer in flight.  Completes with the handle itself.

    ``id`` numbers the transfers of one network from 1, in ``transfer()``
    order.
    """

    def __init__(self, flow_id: int, src: str, dst: str, size: float,
                 started: float, rate_cap: float = math.inf) -> None:
        self.id = flow_id
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.started = started
        self.finished: Optional[float] = None
        self.rate_cap = float(rate_cap)
        #: the route's links; one list per route, shared: read only
        self.links: list[LinkSpec] = []
        #: True when the transfer was aborted (a link on its route failed,
        #: or no route existed); ``remaining`` then keeps the undelivered
        #: byte count and ``error`` says why.  Subscribers must check this
        #: — an aborted handle still completes (exactly once), with itself.
        self.failed = False
        self.error: Optional[str] = None
        self._cls: Optional[_RouteClass] = None   #: resolved by ``transfer()``
        #: finish key on the class's virtual clock; inf while not keyed (not
        #: admitted yet, admitted but not yet recomputed, or done)
        self._key = math.inf
        self._remaining = self.size   #: what ``remaining`` is while not keyed

    @property
    def remaining(self) -> float:
        """Bytes not yet delivered, settled to now while on the wire; an
        aborted transfer keeps its undelivered count, a finished one 0."""
        key = self._key
        if key == math.inf:
            return self._remaining
        return max(0.0, key - self._cls.v_now())

    @property
    def rate(self) -> float:
        """Bytes/s now: the route class's rate while keyed, else 0."""
        return self._cls.rate if self._key != math.inf else 0.0

    @property
    def _eta(self) -> float:
        """Absolute finish time at the current rate; inf while not draining."""
        rate = self.rate
        if rate <= 0.0:
            return math.inf
        entry = self._cls.entry
        if entry is not None and entry[1] == self.id:
            return entry[0]   # the class's head: the time its timer is keyed on
        return self._cls.sim.now + self.remaining / rate

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
    """Reallocation accounting for one :class:`FlowNetwork`, in flows.

    ``preserved``/``rescheduled`` partition the finish times of every
    recomputed flow that is draining; flows outside the recomputed
    component appear in neither (their finish times were never touched).
    A flow of a route class whose rate is kept is preserved unless it
    joined since the last recompute; every flow of a re-rated class is
    re-keyed.  Event-list churn is not counted here: the network owns one
    timer, and the kernel's ``push_n`` / ``cancel_n`` say what it cost.
    """

    #: progressive-filling passes actually run: flushes that found a
    #: component, and lone admits solved at once
    recomputes: int = 0
    coalesced: int = 0           #: admits/finishes absorbed by a pending pass
    flows_touched: int = 0       #: flows whose rates were recomputed (summed)
    rescheduled: int = 0         #: finish times re-keyed (new rate)
    preserved: int = 0           #: finish times kept (rate unchanged)

    def as_dict(self) -> dict:
        """Flat dict (CSV/JSON-friendly)."""
        return {"recomputes": self.recomputes, "coalesced": self.coalesced,
                "flows_touched": self.flows_touched,
                "rescheduled": self.rescheduled, "preserved": self.preserved}


class FlowNetwork(PSOwner):
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
    #: and the class's finish times are preserved.  Chosen far below any
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
        super().__init__(sim, "flow_done")
        self.topology = topology
        self.efficiency = efficiency
        #: active flows keyed by id, in admission order.
        self._active: dict[int, FlowHandle] = {}
        #: every link a transfer was routed over → its state (bounded by the
        #: topology).  The only LinkSpec-keyed container: probed once per
        #: link per route resolution and by the by-spec public queries.
        self._link_state: dict[LinkSpec, _LinkState] = {}
        #: ``(resolved path, rate cap)`` → its route class, empty ones kept
        self._classes: dict[tuple, _RouteClass] = {}
        #: ``(src, dst, rate cap)`` → the topology's route list it was last
        #: resolved from and the class: a transfer on a known, unchanged
        #: route resolves nothing
        self._routes: dict[tuple, tuple[list[str], _RouteClass]] = {}
        #: links whose crossing set changed since the last recompute, in
        #: marking order — the seeds of the next component-scoped pass.
        self._dirty: dict[_LinkState, None] = {}
        self._flush_scheduled = False
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
            nodes = self.topology.route(src, dst)
        except RoutingError:
            # Link outages partitioned the pair: fail fast (deterministic
            # same-timestamp event) instead of raising into the caller —
            # retry loops subscribe to the handle like any other outcome.
            self.sim.schedule(0.0, self._abort, handle,
                              f"no route {src} -> {dst}", label="flow_abort")
            return handle
        key = (src, dst, handle.rate_cap)
        known = self._routes.get(key)
        if known is not None and known[0] is nodes:
            cls = known[1]
        else:
            cls = self._route_class(nodes, handle.rate_cap)
            self._routes[key] = (nodes, cls)
        handle.links = cls.links
        if size == 0 or not cls.links:
            # Same-host copy or empty payload: latency-only, never admitted
            # — must not perturb the rates of flows actually on the wire.
            self.sim.schedule(cls.latency, self._finish, handle,
                              label="flow_done")
            return handle
        handle._cls = cls
        self.sim.schedule(cls.latency, self._admit, handle, label="flow_start")
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
        return sum(c.rate * c.n for c in state.classes) / state.capacity

    def abort_link(self, spec: LinkSpec) -> list[FlowHandle]:
        """Abort every active flow crossing *spec* (the link went down).

        Routing state lives on the :class:`Topology` — callers mark the
        outage there first (``topology.fail_link``) so no new flow routes
        over the dead link, then call this to kill the in-flight ones.
        Returns the aborted handles in admission order (each completed with
        ``failed=True``).
        """
        state = self._link_state.get(spec)
        if state is None or not state.classes:
            return []
        crossing = state.classes
        victims = [f for f in self._active.values() if f._cls in crossing]
        for f in victims:
            self._abort(f, f"link {spec.src}->{spec.dst} failed")
        return victims

    # -- internals ------------------------------------------------------------------

    def _route_class(self, nodes: list[str], cap: float) -> _RouteClass:
        """The class of flows along the node sequence *nodes* under *cap*:
        its links resolved into this network's link states once, the class
        found by (path, cap) or made."""
        links = [self.topology.link(a, b) for a, b in zip(nodes, nodes[1:])]
        states = self._link_state
        path = []
        for spec in links:
            state = states.get(spec)
            if state is None:
                state = states[spec] = _LinkState(spec.bandwidth * self.efficiency)
            path.append(state)
        key = (tuple(path), cap)
        cls = self._classes.get(key)
        if cls is None:
            cls = self._classes[key] = _RouteClass(key[0], cap, links, self.sim)
        return cls

    def _abort(self, handle: FlowHandle, reason: str) -> None:
        """Terminate *handle* as failed: settle bytes, free its links,
        drop its finish time, and complete it with ``failed=True``."""
        if handle.finished is not None:
            return  # already finished or aborted — completion fires once
        admitted = self._active.pop(handle.id, None) is not None
        neighbours = False
        if admitted:
            handle._remaining = handle.remaining   # settled through the class
            neighbours = self._leave(handle)
            if not neighbours:
                self._arm()   # no recompute follows to move the timer
        handle.failed = True
        handle.error = reason
        handle.finished = self.sim.now
        self.aborted += 1
        obs = self.sim._obs
        if obs is not None:
            obs.on_flow_abort(handle)
        handle._complete(handle)
        if neighbours:
            # the freed share goes back to the survivors on those links
            self._mark_dirty(handle._cls.path)

    def _admit(self, handle: FlowHandle) -> None:
        # The route was up when the transfer started; a link may have died
        # during the propagation latency.  Admitting onto a dead link would
        # let bytes flow through an outage, so abort at the edge instead.
        for link in handle.links:
            if not self.topology.link_up(link.src, link.dst):
                self._abort(handle, f"link {link.src}->{link.dst} down")
                return
        self._active[handle.id] = handle
        c = handle._cls
        lone = not c.n
        if lone:
            dirty = self._dirty
            for state in c.path:
                state.classes[c] = None
                if len(state.classes) > 1 or state in dirty:
                    lone = False
        c.n += 1
        c.pending.append(handle)
        sim = self.sim
        self._active_level.set(sim.now, len(self._active))
        if lone and sim.peek_time() > sim.now:
            # Alone on idle links, and nothing else happens at this instant:
            # the flush would solve this one class, so solve it now.
            c.settle()
            self._solve((c,))
            stats = self.sharing
            stats.recomputes += 1
            self._adopt(c, stats)
            self._arm()
            obs = sim._obs
            if obs is not None:
                obs.on_reallocate()
        else:
            self._mark_dirty(c.path)

    def _leave(self, handle: FlowHandle) -> bool:
        """Take a just-deactivated flow out of its class.  Returns whether
        any flow still crosses a link of its path — if none does, nobody's
        share changed and no recompute is needed."""
        c = handle._cls
        if handle._key == math.inf:
            c.pending.remove(handle)   # admitted at this instant, not keyed
        handle._key = math.inf         # its member entry is stale now
        entry = c.entry
        if entry is not None and entry[1] == handle.id:
            c.entry = None             # the head left: re-key the class
        self._active_level.set(self.sim.now, len(self._active))
        c.n -= 1
        if c.n:
            return True
        c.reset()
        busy = False
        for state in c.path:
            del state.classes[c]
            if state.classes:
                busy = True
        return busy

    def _finish(self, handle: FlowHandle) -> None:
        if handle.finished is not None:
            return  # aborted in the same instant — completion fires once
        admitted = self._active.pop(handle.id, None) is not None
        handle._remaining = 0.0
        handle.finished = self.sim.now
        # A never-admitted (latency-only) handle held no bandwidth, and one
        # leaving empty links cannot change anyone's share.
        neighbours = admitted and self._leave(handle)
        self.completed += 1
        handle._complete(handle)
        if neighbours:
            self._mark_dirty(handle._cls.path)

    def _mark_dirty(self, path: Iterable[_LinkState]) -> None:
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
            self._apply_rates(component)

    def _component(self, seeds: Iterable[_LinkState]) -> dict[_RouteClass, None]:
        """Classes transitively sharing a link with any seed link, in
        depth-first discovery order from the last seed."""
        classes: dict[_RouteClass, None] = {}
        stack = [state for state in seeds if state.classes]
        seen = set(stack)
        while stack:
            for c in stack.pop().classes:
                if c not in classes:
                    classes[c] = None
                    for state in c.path:
                        if state not in seen:
                            seen.add(state)
                            stack.append(state)
        return classes

    def _apply_rates(self, classes: Collection[_RouteClass]) -> None:
        """Settle, recompute max-min shares, adopt each class's share
        (:meth:`_adopt`), then re-arm the one timer."""
        for c in classes:
            c.settle()
        self._solve(classes)
        stats = self.sharing
        stats.recomputes += 1
        for c in classes:
            self._adopt(c, stats)
        self._arm()
        obs = self.sim._obs
        if obs is not None:
            obs.on_reallocate()

    def _adopt(self, c: _RouteClass, stats: SharingStats) -> None:
        """Take *c*'s solved ``share`` as its rate (``v`` settled to now),
        key its newcomers and re-key its head, counting into *stats*.

        A class whose new rate matches its current rate within
        :data:`RESCHEDULE_EPS` (relative) keeps its stored rate, and its
        heap entry too while its head is unchanged — still exact, since
        bytes keep draining at the unchanged rate.
        """
        n = c.n
        stats.flows_touched += n
        fresh = c.pending
        new_rate = c.share
        rate = c.rate
        kept = (rate > 0.0 and abs(new_rate - rate)
                <= self.RESCHEDULE_EPS * max(new_rate, rate))
        if kept:
            if not fresh and c.entry is not None:
                stats.preserved += n   # same rate, same head: nothing moves
                return
            stats.preserved += n - len(fresh)
            stats.rescheduled += len(fresh)
        else:
            c.rate = new_rate
            if new_rate > 0.0:
                stats.rescheduled += n
        for f in fresh:
            c.key(f, f.size)
        fresh.clear()
        self._rekey(c, keep=kept)   # kept: the head's entry stays

    def _solve(self, classes: Collection[_RouteClass]) -> None:
        """Progressive filling over *classes*; leaves each class's max-min
        per-flow rate in its ``share``.

        *classes* must hold every non-empty class on each link it touches:
        one connected component (filling decomposes exactly across
        components, so the restriction is lossless) or any union of them —
        the tests pass every active flow's class.

        The rates are a function of the order of *classes* alone: links are
        scanned in the order the classes first reach them, the strict ``<``
        keeps the earliest of equal-share bottlenecks, and capped classes
        freeze in *classes* order, so every link sees one fixed sequence of
        subtractions.  (A bottleneck's crossers all subtract the same
        share, so their order among themselves cannot matter.)
        """
        links: list[_LinkState] = []
        finite_caps = False
        for c in classes:
            c.share = -1.0
            if c.cap != math.inf:
                finite_caps = True
            n = c.n
            for state in c.path:
                if not state.live:
                    state.free = state.capacity
                    links.append(state)
                state.live += n
        unfrozen = len(classes)
        if finite_caps:
            # Flows capped at exactly 0 can never carry bytes; freeze them
            # first so the starvation guard applies only to servable flows.
            for c in classes:
                if c.cap <= 0.0:
                    c.share = 0.0
                    unfrozen -= 1
                    for state in c.path:
                        state.live -= c.n
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
                freezing = [c for c in classes if c.share < 0.0]
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
                # Classes capped below the bottleneck share freeze at their
                # cap first — they consume less than a fair share
                # everywhere; otherwise exactly the bottleneck link's
                # classes freeze at its fair share.
                freezing = [c for c in classes if c.share < 0.0
                            and c.cap < best_share] if finite_caps else []
                at_cap = bool(freezing)
                if not at_cap:
                    freezing = [c for c in best.classes if c.share < 0.0]
            if not freezing:   # a hang otherwise: say what broke instead
                raise AssertionError("max-min live counts out of step")
            unfrozen -= len(freezing)
            for c in freezing:
                rate = c.share = c.cap if at_cap else best_share
                n = c.n
                used = rate * n
                for state in c.path:
                    state.live -= n
                    left = state.free - used
                    state.free = left if left > 0.0 else 0.0
        # Post-condition of the guard: no servable flow ever starves.
        for c in classes:
            if c.share <= 0.0 and c.cap > 0.0:
                raise AssertionError(
                    f"max-min starvation: {c.n} flow(s) (cap {c.cap!r}) "
                    f"allocated rate {c.share!r}")
