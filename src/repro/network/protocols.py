"""Transport protocols over the two network granularities.

Taxonomy *infrastructure communication protocols*: "lower-level protocols
such as TCP, UDP, etc. as well as higher-level application protocols such
as FTP, NFS".  Three transports share one duck-typed interface —
``transfer(src, dst, size) -> Waitable`` handle with ``success`` and
``duration`` — so middleware (file transfer, replication) is written once:

:class:`TcpTransport`
    Flow-level with a per-connection window cap ``cwnd / RTT`` — the
    standard first-order TCP throughput model: a connection cannot exceed
    its window rate even on an empty fat pipe, which is exactly why the
    MONARC study's single-stream transfers underused the 2.5 Gbps link.
:class:`UdpTransport`
    Packet-level, fire-and-forget: drops reduce ``success``; no retries.
:class:`ReliablePacketTransport`
    Packet-level with retransmission of dropped packets after a timeout —
    TCP-ish reliability at packet granularity (expensive, accurate).
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.process import Waitable
from .flow import FlowHandle, FlowNetwork
from .packet import PacketNetwork, PacketTransfer
from .topology import Topology

__all__ = ["TcpTransport", "UdpTransport", "ReliablePacketTransport"]


class TcpTransport:
    """Window-capped flow transport (the surveyed simulators' default).

    Per-connection throughput is ``min(fair share, window / RTT)`` where RTT
    is twice the route latency.  ``parallel_streams`` models GridFTP-style
    striping: *n* streams behave as one flow with an *n*-times window.
    """

    def __init__(self, sim: Simulator, network: FlowNetwork,
                 window: float = 8.0 * 2 ** 20, parallel_streams: int = 1) -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be > 0, got {window}")
        if parallel_streams < 1:
            raise ConfigurationError("parallel_streams must be >= 1")
        self.sim = sim
        self.network = network
        self.window = float(window)
        self.parallel_streams = parallel_streams
        #: per-route cap memo — transfer-heavy workloads revisit the same
        #: (src, dst) pairs constantly and the underlying path latency is
        #: a routed graph query.  Call :meth:`invalidate_caps` after
        #: mutating the topology mid-run.
        self._cap_cache: dict[tuple[str, str], float] = {}

    def rate_cap(self, src: str, dst: str) -> float:
        """The window-imposed throughput ceiling for this route."""
        key = (src, dst)
        cap = self._cap_cache.get(key)
        if cap is None:
            rtt = 2.0 * self.network.topology.path_latency(src, dst)
            cap = (math.inf if rtt <= 0
                   else self.parallel_streams * self.window / rtt)
            self._cap_cache[key] = cap
        return cap

    def invalidate_caps(self) -> None:
        """Drop cached route caps (after topology/latency changes)."""
        self._cap_cache.clear()

    def transfer(self, src: str, dst: str, size: float) -> FlowHandle:
        """Start a capped flow; the handle completes on the last byte."""
        return self.network.transfer(src, dst, size,
                                     rate_cap=self.rate_cap(src, dst))


class UdpTransport:
    """Unreliable datagram transport at packet granularity."""

    def __init__(self, sim: Simulator, network: PacketNetwork) -> None:
        self.sim = sim
        self.network = network

    def transfer(self, src: str, dst: str, size: float) -> PacketTransfer:
        """Send and forget; check ``handle.success`` for loss."""
        return self.network.transfer(src, dst, size)


class _ReliableHandle(Waitable):
    """Completes when all bytes are delivered, however many rounds it takes."""

    def __init__(self, src: str, dst: str, size: float, started: float) -> None:
        self.src = src
        self.dst = dst
        self.size = size
        self.started = started
        self.finished: Optional[float] = None
        self.rounds = 0
        self.retransmitted_bytes = 0.0

    @property
    def success(self) -> bool:
        """True when every byte was eventually delivered."""
        return self.finished is not None

    @property
    def duration(self) -> float:
        """Total time including retransmission rounds (NaN if unfinished)."""
        return (self.finished - self.started) if self.finished is not None else float("nan")


class ReliablePacketTransport:
    """Packet transport that retransmits dropped packets until delivered.

    Retransmission happens one RTO after a round completes with losses; the
    RTO backs off exponentially, capped at ``max_rounds`` (then the handle
    completes unsuccessfully — path persistently congested).
    """

    def __init__(self, sim: Simulator, network: PacketNetwork,
                 rto: float = 0.2, max_rounds: int = 50) -> None:
        if rto <= 0:
            raise ConfigurationError(f"rto must be > 0, got {rto}")
        self.sim = sim
        self.network = network
        self.rto = float(rto)
        self.max_rounds = max_rounds

    def transfer(self, src: str, dst: str, size: float) -> _ReliableHandle:
        handle = _ReliableHandle(src, dst, size, self.sim.now)
        self._send_round(handle, size, self.rto)
        return handle

    def _send_round(self, handle: _ReliableHandle, nbytes: float, rto: float) -> None:
        handle.rounds += 1
        if handle.rounds > 1:
            handle.retransmitted_bytes += nbytes
        inner = self.network.transfer(handle.src, handle.dst, nbytes)
        inner._subscribe(lambda result: self._round_done(handle, result, rto))

    def _round_done(self, handle: _ReliableHandle, inner: PacketTransfer,
                    rto: float) -> None:
        if inner.success:
            handle.finished = self.sim.now
            handle._complete(handle)
            return
        if handle.rounds >= self.max_rounds:
            handle._complete(handle)  # unsuccessful: finished stays None
            return
        lost_bytes = inner.dropped * self.network.mtu
        self.sim.schedule(rto, self._send_round, handle, lost_bytes,
                          min(rto * 2, 30.0), label="retransmit")
