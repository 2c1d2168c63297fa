"""Packet-level network model: store-and-forward with finite queues.

The expensive end of the taxonomy's *granularity* axis: every packet is
individually serialized onto each link of its route ("model in detail the
flow of each packet through the network, a time consuming operation that
leads to better output results").  The granularity ablation
(``tests/test_ablation_network_granularity.py``) sets its cost against
:mod:`repro.network.flow` on the same workload.

Per-hop behaviour:

* each directed link owns an output queue (finite ``queue_packets`` slots);
* a packet occupies the link for ``size / bandwidth`` (transmission delay),
  then arrives at the next hop after ``latency`` (propagation);
* packets arriving to a full queue are **dropped** — visible to UDP-style
  transports, retried by the TCP-style transport in
  :mod:`repro.network.protocols`.

Messages are segmented into MTU-sized packets; a :class:`PacketTransfer`
completes when the *last* packet of the message reaches the destination,
or fails (completes with ``success=False``) when every packet was dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.process import Waitable
from .topology import LinkSpec, Topology

__all__ = ["Packet", "PacketTransfer", "PacketNetwork"]

_DEFAULT_MTU = 1500.0


@dataclass(slots=True)
class Packet:
    """One segment of a message traversing the network."""

    transfer_id: int
    index: int
    size: float
    route: list[str]
    hop: int = 0
    dropped: bool = False


class PacketTransfer(Waitable):
    """Handle for one segmented message.  Completes with itself."""

    def __init__(self, transfer_id: int, src: str, dst: str, size: float,
                 npackets: int, started: float) -> None:
        self.id = transfer_id  # counted per network, like FlowHandle.id
        self.src = src
        self.dst = dst
        self.size = float(size)
        self.npackets = npackets
        self.started = started
        self.finished: Optional[float] = None
        self.delivered = 0
        self.dropped = 0

    @property
    def success(self) -> bool:
        """True when every packet arrived."""
        return self.delivered == self.npackets

    @property
    def duration(self) -> float:
        """Wall time from start to last packet (NaN in flight)."""
        return (self.finished - self.started) if self.finished is not None else float("nan")

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PacketTransfer #{self.id} {self.src}->{self.dst} "
                f"{self.delivered}/{self.npackets} delivered>")


@dataclass
class _LinkPort:
    """Output port state for one directed link."""

    spec: LinkSpec
    queue_limit: int
    busy: bool = False
    queue: list[tuple[Packet, "PacketTransfer"]] = field(default_factory=list)
    forwarded: int = 0
    dropped: int = 0


class PacketNetwork:
    """Store-and-forward packet simulation over a :class:`Topology`.

    Parameters
    ----------
    mtu:
        Packet payload size in bytes; messages are split into
        ``ceil(size / mtu)`` packets.
    queue_packets:
        Output-queue capacity per link, in packets (drop-tail beyond it).
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 mtu: float = _DEFAULT_MTU, queue_packets: int = 128) -> None:
        if mtu <= 0:
            raise ConfigurationError(f"mtu must be > 0, got {mtu}")
        if queue_packets < 1:
            raise ConfigurationError(f"queue_packets must be >= 1, got {queue_packets}")
        self.sim = sim
        self.topology = topology
        self.mtu = float(mtu)
        self.queue_packets = queue_packets
        self._ports: dict[tuple[str, str], _LinkPort] = {}
        self._transfers = 0

    # -- public API -------------------------------------------------------------

    def transfer(self, src: str, dst: str, size: float) -> PacketTransfer:
        """Send *size* bytes as individual packets; returns the handle."""
        if size < 0:
            raise ConfigurationError(f"transfer size must be >= 0, got {size}")
        route = self.topology.route(src, dst)
        npackets = max(1, math.ceil(size / self.mtu)) if size > 0 else 1
        self._transfers += 1
        handle = PacketTransfer(self._transfers, src, dst, size, npackets,
                                self.sim.now)
        if len(route) == 1:
            # Local delivery: all packets arrive instantly.
            handle.delivered = npackets
            handle.finished = self.sim.now
            self.sim.schedule(0.0, handle._complete, handle, label="pkt_local")
            return handle
        remaining = size
        for i in range(npackets):
            psize = min(self.mtu, remaining) if size > 0 else 0.0
            remaining -= psize
            pkt = Packet(handle.id, i, max(psize, 1.0), list(route))
            self._enqueue(pkt, handle)
        return handle

    def port(self, src: str, dst: str) -> _LinkPort:
        """Port state for the directed link (diagnostics / tests)."""
        key = (src, dst)
        p = self._ports.get(key)
        if p is None:
            spec = self.topology.link(src, dst)
            p = _LinkPort(spec, self.queue_packets)
            self._ports[key] = p
        return p

    @property
    def total_drops(self) -> int:
        """Packets dropped across all ports since construction."""
        return sum(p.dropped for p in self._ports.values())

    # -- per-hop machinery ----------------------------------------------------------

    def _enqueue(self, pkt: Packet, handle: PacketTransfer) -> None:
        """Place *pkt* on the output port of its current hop."""
        here, nxt = pkt.route[pkt.hop], pkt.route[pkt.hop + 1]
        port = self.port(here, nxt)
        if len(port.queue) >= port.queue_limit:
            port.dropped += 1
            pkt.dropped = True
            handle.dropped += 1
            self._maybe_finish(handle)
            return
        port.queue.append((pkt, handle))
        if not port.busy:
            self._transmit_next(port)

    def _transmit_next(self, port: _LinkPort) -> None:
        if not port.queue:
            port.busy = False
            return
        port.busy = True
        pkt, handle = port.queue.pop(0)
        tx = pkt.size / port.spec.bandwidth
        # Transmission holds the port; propagation overlaps with the next
        # packet's transmission (standard store-and-forward pipelining).
        self.sim.schedule(tx, self._tx_done, port, pkt, handle, label="pkt_tx")

    def _tx_done(self, port: _LinkPort, pkt: Packet, handle: PacketTransfer) -> None:
        port.forwarded += 1
        self.sim.schedule(port.spec.latency, self._arrive, pkt, handle,
                          label="pkt_hop")
        self._transmit_next(port)

    def _arrive(self, pkt: Packet, handle: PacketTransfer) -> None:
        pkt.hop += 1
        if pkt.hop == len(pkt.route) - 1:
            handle.delivered += 1
            self._maybe_finish(handle)
        else:
            self._enqueue(pkt, handle)

    def _maybe_finish(self, handle: PacketTransfer) -> None:
        if handle.delivered + handle.dropped == handle.npackets:
            handle.finished = self.sim.now
            handle._complete(handle)
