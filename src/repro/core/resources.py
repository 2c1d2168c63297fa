"""Shared resources: servers with queues, item stores, bulk containers.

These are the queueing primitives every surveyed simulator builds on: a
CPU's run queue, a network port, a tape drive, a broker's admission queue.
They integrate with the process layer (request tokens are
:class:`~repro.core.process.Waitable`) but are equally usable from plain
event callbacks via the ``on_grant`` callback.

Queue disciplines follow the taxonomy's middleware discussion: FIFO, LIFO,
priority (smaller value first, FIFO within a class), and SJF-by-key.  Every
resource self-instruments (queue-length level, utilization level, wait-time
tally) so Little's-law validation (E4) can run against *any* model that uses
resources, not just the purpose-built queueing examples.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .engine import Simulator
from .errors import CapacityError, ConfigurationError, ResourceError
from .monitor import Monitor
from .process import Signal, Waitable

__all__ = ["Request", "Resource", "Store", "Container"]

_DISCIPLINES = ("fifo", "lifo", "priority", "sjf")


class Request(Waitable):
    """Token for one pending or granted resource acquisition.

    Completes (becomes yieldable-done) when the resource grants it.  The
    :attr:`preempted` signal fires if a preemptive resource revokes the
    grant; holders that care should wait on it (e.g. via ``AnyOf``).  A
    request turned away by a full queue completes at once with a ``None``
    result and :attr:`balked` set.
    """

    granted_at: Optional[float] = None
    released_at: Optional[float] = None
    #: True when a full queue turned the request away (never granted)
    balked = False
    _preempted: Optional[Signal] = None

    def __init__(self, resource: "Resource", amount: int, priority: float,
                 key: float, owner: Any) -> None:
        # per resource: ids break selection ties, so not interpreter-global
        resource._requests += 1
        self.id = resource._requests
        self.resource = resource
        self.amount = amount
        self.priority = priority
        self.key = key
        self.owner = owner
        self.issued_at = resource.sim._now

    @property
    def preempted(self) -> Signal:
        """Fires if a preemptive resource revokes the grant (lazily made)."""
        if self._preempted is None:
            self._preempted = Signal(f"preempt-req{self.id}")
        return self._preempted

    @property
    def waited(self) -> float:
        """Queue delay experienced (NaN until granted)."""
        return (self.granted_at - self.issued_at) if self.granted_at is not None else float("nan")

    def __repr__(self) -> str:  # pragma: no cover
        st = "granted" if self.granted_at is not None else "queued"
        return f"<Request #{self.id} {st} amount={self.amount} prio={self.priority}>"


class Resource:
    """A multi-server resource with a bounded or unbounded wait queue.

    Parameters
    ----------
    capacity:
        Number of concurrently grantable units.
    discipline:
        ``"fifo"`` | ``"lifo"`` | ``"priority"`` | ``"sjf"``.
    queue_limit:
        Max queued requests; an arrival that would have to queue beyond it
        is *balked*: its token completes at once with a ``None`` result and
        :attr:`Request.balked` set, and the resource counts it in
        :attr:`balked`.  ``None`` = unbounded.
    preemptive:
        With ``discipline="priority"``, an arriving higher-priority request
        may revoke the grant of the lowest-priority holder.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int = 1,
        name: str = "resource",
        discipline: str = "fifo",
        queue_limit: int | None = None,
        preemptive: bool = False,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if discipline not in _DISCIPLINES:
            raise ConfigurationError(
                f"unknown discipline {discipline!r}; choose from {_DISCIPLINES}")
        if preemptive and discipline != "priority":
            raise ConfigurationError("preemption requires the priority discipline")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.discipline = discipline
        self.queue_limit = queue_limit
        self.preemptive = preemptive
        #: fifo / lifo keep the queue in service order: grant from its head
        self._head_first = discipline in ("fifo", "lifo")
        self._in_use = 0
        self._requests = 0  #: requests ever issued here (their ids)
        self._queue: deque[Request] = deque()
        self._holders: list[Request] = []
        self.balked = 0
        self.monitor = Monitor(name)
        self._q_level = self.monitor.level("queue_length", start_time=sim.now)
        self._u_level = self.monitor.level("in_use", start_time=sim.now)
        self._wait_tally = self.monitor.tally("wait_time")

    # -- acquisition ------------------------------------------------------------

    def request(self, amount: int = 1, priority: float = 0.0, key: float = 0.0,
                owner: Any = None,
                on_grant: Callable[[Request], None] | None = None) -> Request:
        """Ask for *amount* units; returns a token to ``yield`` or poll.

        ``key`` orders the ``sjf`` discipline (e.g. job service demand).
        ``on_grant`` supports callback-style (non-process) models.
        """
        if amount < 1:
            raise ConfigurationError(f"request amount must be >= 1, got {amount}")
        if amount > self.capacity:
            raise CapacityError(
                f"{self.name}: requested {amount} > capacity {self.capacity}")
        req = Request(self, amount, priority, key, owner)
        if on_grant is not None:
            req._subscribe(lambda _result, r=req: on_grant(r))
        queue = self._queue
        fits = self._in_use + amount <= self.capacity
        if self.queue_limit is not None and len(queue) >= self.queue_limit \
                and not fits:
            self.balked += 1
            req.balked = True
            req._complete(None)  # balked tokens complete immediately with None
            return req
        if fits and not queue:
            # uncontended: nobody to wait behind, so the queue never grows
            self._grant(req)
            return req
        self._enqueue(req)
        self._dispatch()
        return req

    def release(self, req: Request) -> None:
        """Return a granted request's units to the pool."""
        if req.resource is not self:
            raise ResourceError(f"request {req.id} belongs to another resource")
        if req.granted_at is None:
            raise ResourceError(f"request {req.id} was never granted")
        if req.released_at is not None:
            raise ResourceError(f"request {req.id} already released")
        now = req.released_at = self.sim._now
        self._holders.remove(req)
        self._in_use -= req.amount
        self._u_level.set(now, self._in_use)
        self._dispatch()

    def cancel(self, req: Request) -> None:
        """Withdraw a still-queued request (reneging)."""
        if req in self._queue:
            self._queue.remove(req)
            self._q_level.set(self.sim.now, len(self._queue))

    # -- internals ---------------------------------------------------------------

    def _enqueue(self, req: Request) -> None:
        if self.discipline == "lifo":
            self._queue.appendleft(req)
        else:
            self._queue.append(req)
        self._q_level.set(self.sim._now, len(self._queue))

    def _select_next(self) -> Request:
        """priority / sjf: the best queued request (queue is non-empty)."""
        if self.discipline == "priority":
            return min(self._queue, key=lambda r: (r.priority, r.issued_at, r.id))
        return min(self._queue, key=lambda r: (r.key, r.issued_at, r.id))  # sjf

    def _dispatch(self) -> None:
        """Grant queued requests while capacity allows; maybe preempt."""
        queue = self._queue
        head_first = self._head_first
        while queue:
            nxt = queue[0] if head_first else self._select_next()
            if self._in_use + nxt.amount <= self.capacity:
                if head_first:
                    queue.popleft()
                else:
                    queue.remove(nxt)
                self._q_level.set(self.sim._now, len(queue))
                self._grant(nxt)
                continue
            if self.preemptive:
                victim = self._preemption_victim(nxt)
                if victim is not None:
                    self._revoke(victim)
                    continue
            return

    def _preemption_victim(self, incoming: Request) -> Optional[Request]:
        """Lowest-priority holder strictly worse than *incoming*, if any."""
        if not self._holders:
            return None
        victim = max(self._holders, key=lambda r: (r.priority, -r.id))
        return victim if victim.priority > incoming.priority else None

    def _revoke(self, req: Request) -> None:
        req.released_at = self.sim.now
        self._holders.remove(req)
        self._in_use -= req.amount
        self._u_level.set(self.sim.now, self._in_use)
        req.preempted.fire(self.sim.now)

    def _grant(self, req: Request) -> None:
        """Give *req* its units; it is not (or no longer) queued."""
        now = req.granted_at = self.sim._now
        self._in_use += req.amount
        self._holders.append(req)
        self._u_level.set(now, self._in_use)
        self._wait_tally.record(now - req.issued_at)
        req._complete(req)

    # -- introspection -------------------------------------------------------------

    @property
    def in_use(self) -> int:
        """Units currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Units free right now."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for capacity."""
        return len(self._queue)

    def utilization(self, t_end: float | None = None) -> float:
        """Time-average fraction of capacity in use."""
        return self._u_level.mean(t_end) / self.capacity

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Resource {self.name!r} {self._in_use}/{self.capacity} "
                f"queued={len(self._queue)}>")


class Store:
    """An unordered buffer of discrete items (producer/consumer channel).

    ``get()`` returns a waitable completing with an item; ``put()`` may
    block (waitable) when a ``capacity`` bound is set.  Used for mailbox /
    channel communication between agents (SimGrid-style).
    """

    def __init__(self, sim: Simulator, capacity: int | None = None,
                 name: str = "store") -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"store capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Waitable] = deque()
        self._putters: deque[tuple[Waitable, Any]] = deque()
        self.monitor = Monitor(name)
        self._occupancy = self.monitor.level("occupancy", start_time=sim.now)

    def put(self, item: Any) -> Waitable:
        """Offer *item*; the returned waitable completes when accepted."""
        token = Waitable()
        self._putters.append((token, item))
        self._match()
        return token

    def get(self) -> Waitable:
        """Take one item; the returned waitable completes with the item."""
        token = Waitable()
        self._getters.append(token)
        self._match()
        return token

    def _match(self) -> None:
        moved = True
        while moved:
            moved = False
            # Accept pending puts while there is room.
            while self._putters and (self.capacity is None
                                     or len(self._items) < self.capacity):
                token, item = self._putters.popleft()
                self._items.append(item)
                token._complete(item)
                moved = True
            # Satisfy pending gets while items exist.
            while self._getters and self._items:
                token = self._getters.popleft()
                item = self._items.popleft()
                token._complete(item)
                moved = True
        self._occupancy.set(self.sim.now, len(self._items))

    @property
    def items(self) -> int:
        """Items currently buffered."""
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Store {self.name!r} items={len(self._items)}>"


class Container:
    """A continuous-level reservoir (disk bytes, budget, fuel).

    ``take(x)`` blocks until *x* units are available; ``add(x)`` blocks while
    the fill would exceed capacity.  Waiters are served FIFO — a large take
    at the head blocks smaller ones behind it (no starvation).
    """

    def __init__(self, sim: Simulator, capacity: float, initial: float = 0.0,
                 name: str = "container") -> None:
        if capacity <= 0:
            raise ConfigurationError(f"container capacity must be > 0, got {capacity}")
        if not 0 <= initial <= capacity:
            raise ConfigurationError(
                f"initial level {initial} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = float(capacity)
        self.name = name
        self._level = float(initial)
        self._takers: deque[tuple[Waitable, float]] = deque()
        self._adders: deque[tuple[Waitable, float]] = deque()
        self.monitor = Monitor(name)
        self._lvl_stat = self.monitor.level("level", initial=initial, start_time=sim.now)

    def take(self, amount: float) -> Waitable:
        """Withdraw *amount*; waitable completes when available."""
        if amount <= 0:
            raise ConfigurationError(f"take amount must be > 0, got {amount}")
        if amount > self.capacity:
            raise CapacityError(f"{self.name}: take {amount} > capacity {self.capacity}")
        token = Waitable()
        self._takers.append((token, float(amount)))
        self._match()
        return token

    def add(self, amount: float) -> Waitable:
        """Deposit *amount*; waitable completes when it fits."""
        if amount <= 0:
            raise ConfigurationError(f"add amount must be > 0, got {amount}")
        if amount > self.capacity:
            raise CapacityError(f"{self.name}: add {amount} > capacity {self.capacity}")
        token = Waitable()
        self._adders.append((token, float(amount)))
        self._match()
        return token

    def _match(self) -> None:
        moved = True
        while moved:
            moved = False
            if self._adders and self._level + self._adders[0][1] <= self.capacity:
                token, amount = self._adders.popleft()
                self._level += amount
                token._complete(self._level)
                moved = True
            if self._takers and self._level >= self._takers[0][1]:
                token, amount = self._takers.popleft()
                self._level -= amount
                token._complete(self._level)
                moved = True
        self._lvl_stat.set(self.sim.now, self._level)

    @property
    def level(self) -> float:
        """Current fill level."""
        return self._level

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Container {self.name!r} level={self._level:.6g}/{self.capacity:.6g}>"
