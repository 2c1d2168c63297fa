"""File-transfer service: the FTP/NFS-like application protocol layer.

Bridges transports (flow or packet granularity) and the data-grid
middleware: a :class:`FileTransferService` moves named files between sites,
records per-file statistics, and enforces a per-route concurrent-transfer
limit (GridFTP server slots), queueing the excess — which is what turns raw
bandwidth into the transfer backlogs the MONARC study measures.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.monitor import Monitor
from ..core.process import Waitable

__all__ = ["FileSpec", "FileTransferService"]


@dataclass(frozen=True, slots=True)
class FileSpec:
    """A named, sized file (logical file name + bytes)."""

    name: str
    size: float

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(f"file {self.name!r}: size must be >= 0")


class _TransferTicket(Waitable):
    """Completes when the file lands; carries queue + wire timings."""

    def __init__(self, file: FileSpec, src: str, dst: str, requested: float) -> None:
        self.file = file
        self.src = src
        self.dst = dst
        self.requested = requested
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: wire attempts so far (0 while queued; retries re-increment)
        self.attempts = 0
        #: True when every attempt aborted (link/site outage on the route);
        #: subscribers must check this before treating the file as landed.
        self.failed = False

    @property
    def total_time(self) -> float:
        """Request-to-completion time (queueing + wire)."""
        return (self.finished - self.requested) if self.finished is not None else float("nan")


class FileTransferService:
    """Queued file movement over any transport.

    Parameters
    ----------
    transport:
        Anything with ``transfer(src, dst, size) -> Waitable`` (all three
        protocol transports and both raw networks qualify).
    max_concurrent_per_route:
        Simultaneous transfers allowed per (src, dst) route; further
        requests wait FIFO — the "transfer server slots" knob.
    max_attempts:
        Total wire attempts per ticket when the transport reports a failed
        transfer (an aborted flow).  1 (the default) means no retry: the
        ticket completes with ``failed=True`` on the first abort.
    retry_backoff:
        Base delay before re-queueing a failed attempt; attempt *k* waits
        ``retry_backoff * 2**(k-1)`` — deterministic exponential backoff,
        so retry timing is byte-reproducible across runs.
    """

    def __init__(self, sim: Simulator, transport,
                 max_concurrent_per_route: int = 4,
                 max_attempts: int = 1, retry_backoff: float = 0.5) -> None:
        if max_concurrent_per_route < 1:
            raise ConfigurationError("max_concurrent_per_route must be >= 1")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0")
        self.sim = sim
        self.transport = transport
        self.max_concurrent = max_concurrent_per_route
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        #: per-route live-transfer counts and FIFO queues.  Both dicts are
        #: pruned as soon as a route goes idle, so route state is bounded
        #: by *concurrent* traffic, not by every (src, dst) pair ever seen.
        self._in_flight: dict[tuple[str, str], int] = {}
        self._backlog: dict[tuple[str, str], deque[_TransferTicket]] = {}
        self.monitor = Monitor("file-transfers")
        self.completed = 0
        self.retries = 0
        self.failed = 0
        #: ``src == dst`` requests served without touching the wire.  These
        #: count in ``completed`` and the monitor too, so hit ratios and
        #: mean delays reflect every request, not only remote ones.
        self.local_hits = 0

    def fetch(self, file: FileSpec, src: str, dst: str) -> _TransferTicket:
        """Request *file* to be copied ``src -> dst``; returns a ticket."""
        ticket = _TransferTicket(file, src, dst, self.sim.now)
        if src == dst:
            # already local — complete immediately (zero-cost hit)
            ticket.started = ticket.finished = self.sim.now
            self.local_hits += 1
            self.completed += 1
            self.monitor.tally("total_time").record(0.0)
            self.sim.schedule(0.0, ticket._complete, ticket, label="xfer_local")
            return ticket
        key = (src, dst)
        if self._in_flight.get(key, 0) < self.max_concurrent:
            self._launch(key, ticket)
        else:
            self._backlog.setdefault(key, deque()).append(ticket)
        return ticket

    def backlog_size(self, src: str, dst: str) -> int:
        """Queued (not yet started) transfers on a route."""
        return len(self._backlog.get((src, dst), ()))

    @property
    def total_backlog(self) -> int:
        """Queued transfers summed over all routes."""
        return sum(len(q) for q in self._backlog.values())

    def _launch(self, key: tuple[str, str], ticket: _TransferTicket) -> None:
        self._in_flight[key] = self._in_flight.get(key, 0) + 1
        if ticket.started is None:
            ticket.started = self.sim.now  # queue delay measures first start
        ticket.attempts += 1
        obs = self.sim._obs
        if obs is not None:
            obs.on_transfer_begin(ticket)
        handle = self.transport.transfer(ticket.src, ticket.dst, ticket.file.size)
        handle._subscribe(lambda result: self._done(key, ticket, result))

    def _done(self, key: tuple[str, str], ticket: _TransferTicket,
              result) -> None:
        # Transports that can abort (FlowNetwork under link outages) flag
        # the failure on their handle; anything else always succeeds.
        aborted = result.failed
        obs = self.sim._obs
        if obs is not None:
            obs.on_transfer_end(ticket)
        # Free the slot and pump the backlog first — a retry re-enters the
        # queue like any new request, so slot accounting stays exact.
        self._in_flight[key] -= 1
        queue = self._backlog.get(key)
        if queue:
            self._launch(key, queue.popleft())
        else:
            if queue is not None:
                del self._backlog[key]
            if not self._in_flight[key]:
                del self._in_flight[key]
        if aborted and ticket.attempts < self.max_attempts:
            self.retries += 1
            if obs is not None:
                obs.on_transfer_retry(ticket)
            delay = self.retry_backoff * (2 ** (ticket.attempts - 1))
            self.sim.schedule(delay, self._refetch, key, ticket,
                              label="xfer_retry")
            return
        ticket.finished = self.sim.now
        if aborted:
            ticket.failed = True
            self.failed += 1
        else:
            self.completed += 1
            self.monitor.tally("total_time").record(ticket.total_time)
        ticket._complete(ticket)

    def _refetch(self, key: tuple[str, str], ticket: _TransferTicket) -> None:
        """Re-queue a backed-off retry through the normal slot machinery."""
        if self._in_flight.get(key, 0) < self.max_concurrent:
            self._launch(key, ticket)
        else:
            self._backlog.setdefault(key, deque()).append(ticket)
