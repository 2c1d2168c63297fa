"""Shared resources: FIFO service stations and item stores.

These are the queueing primitives the models build on: a disk's I/O
channel, the validation suite's M/M/c/K station, a mapped LP's server.
They integrate with the process layer (request tokens are
:class:`~repro.core.process.Waitable`) but are equally usable from plain
event callbacks via the ``on_grant`` callback.

:class:`Resource` is the FIFO station with *c* servers and an optional
bound *K* on its wait queue; scheduling disciplines are middleware's
(:mod:`repro.middleware.scheduling`).  Every resource self-instruments
(queue-length level, utilization level) so Little's-law
validation (E4) can run against *any* model that uses resources, not just
the purpose-built queueing examples.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from .engine import Simulator
from .errors import ConfigurationError, ResourceError
from .monitor import Monitor
from .process import Waitable

__all__ = ["Request", "Resource", "Store"]


class Request(Waitable):
    """Token for one pending or granted acquisition of one server.

    Completes (becomes yieldable-done) when the resource grants it.  A
    request turned away by a full queue completes at once with a ``None``
    result and :attr:`balked` set.
    """

    granted_at: Optional[float] = None
    released_at: Optional[float] = None
    #: True when a full queue turned the request away (never granted)
    balked = False

    def __init__(self, resource: "Resource", owner: Any) -> None:
        # per resource, so ids do not depend on earlier models
        resource._requests += 1
        self.id = resource._requests
        self.resource = resource
        self.owner = owner
        self.issued_at = resource.sim._now

    @property
    def waited(self) -> float:
        """Queue delay experienced (NaN until granted)."""
        return (self.granted_at - self.issued_at) if self.granted_at is not None else float("nan")

    def __repr__(self) -> str:  # pragma: no cover
        st = "granted" if self.granted_at is not None else "queued"
        return f"<Request #{self.id} {st}>"


class Resource:
    """A FIFO station: *capacity* servers and a bounded or unbounded queue.

    Parameters
    ----------
    capacity:
        Number of servers (concurrent grants).
    queue_limit:
        Max queued requests; an arrival that would have to queue beyond it
        is *balked*: its token completes at once with a ``None`` result and
        :attr:`Request.balked` set, and the resource counts it in
        :attr:`balked`.  ``None`` = unbounded.
    """

    def __init__(self, sim: Simulator, capacity: int = 1,
                 name: str = "resource", queue_limit: int | None = None) -> None:
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.queue_limit = queue_limit
        self._in_use = 0
        self._requests = 0  #: requests ever issued here (their ids)
        self._queue: deque[Request] = deque()
        self.balked = 0
        self.monitor = Monitor(name)
        self._q_level = self.monitor.level("queue_length", start_time=sim.now)
        self._u_level = self.monitor.level("in_use", start_time=sim.now)

    # -- acquisition ------------------------------------------------------------

    def request(self, owner: Any = None,
                on_grant: Callable[[Request], None] | None = None) -> Request:
        """Ask for one server; returns a token to ``yield`` or poll.

        ``on_grant`` supports callback-style (non-process) models.
        """
        req = Request(self, owner)
        if on_grant is not None:
            req._subscribe(lambda _result, r=req: on_grant(r))
        queue = self._queue
        if self._in_use < self.capacity:
            # a free server means nobody is queued: the queue never grows
            self._grant(req)
        elif self.queue_limit is not None and len(queue) >= self.queue_limit:
            self.balked += 1
            req.balked = True
            req._complete(None)  # balked tokens complete immediately with None
        else:
            queue.append(req)
            self._q_level.set(self.sim._now, len(queue))
        return req

    def release(self, req: Request) -> None:
        """Free a granted request's server and grant the queue's head."""
        if req.resource is not self:
            raise ResourceError(f"request {req.id} belongs to another resource")
        if req.granted_at is None:
            raise ResourceError(f"request {req.id} was never granted")
        if req.released_at is not None:
            raise ResourceError(f"request {req.id} already released")
        now = req.released_at = self.sim._now
        self._in_use -= 1
        self._u_level.set(now, self._in_use)
        self._dispatch()

    # -- internals ---------------------------------------------------------------

    def _dispatch(self) -> None:
        """Grant from the head of the queue while a server is free."""
        queue = self._queue
        while queue and self._in_use < self.capacity:
            req = queue.popleft()
            self._q_level.set(self.sim._now, len(queue))
            self._grant(req)

    def _grant(self, req: Request) -> None:
        """Give *req* a server; it is not (or no longer) queued."""
        now = req.granted_at = self.sim._now
        self._in_use += 1
        self._u_level.set(now, self._in_use)
        req._complete(req)

    # -- introspection -------------------------------------------------------------

    @property
    def in_use(self) -> int:
        """Servers currently granted."""
        return self._in_use

    @property
    def available(self) -> int:
        """Servers free right now."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting for a server."""
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

    @property
    def items(self) -> int:
        """Items currently buffered."""
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Store {self.name!r} items={len(self._items)}>"
