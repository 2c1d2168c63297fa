"""Background-load injectors for machines and networks.

Bricks schedules against a *monitored and predicted* background: servers
and networks in a global computing system carry external traffic the
scheduler does not control.  These injectors reproduce that environment:

:class:`RandomBurstLoad`
    Drives :meth:`~repro.hosts.cpu.Machine.set_background_load` with
    exponential burst arrivals of uniform levels and durations — the
    unpredictable competing load that separates load-aware from
    predictive scheduling in benchmark E11.
:class:`NetworkCrossTraffic`
    Poisson-started background flows on a
    :class:`~repro.network.flow.FlowNetwork`.
"""

from __future__ import annotations

from typing import Protocol

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.rng import Stream

__all__ = ["LoadTarget", "RandomBurstLoad", "NetworkCrossTraffic"]


class LoadTarget(Protocol):
    """Anything accepting a background-load fraction."""

    def set_background_load(self, fraction: float) -> None:
        """Apply an external-load fraction in [0, 1)."""
        ...  # pragma: no cover


class RandomBurstLoad:
    """Poisson load bursts: idle gaps ~ Exp(mean_gap), levels ~ U(0, peak).

    ``horizon`` bounds the schedule so a finite run drains.
    """

    def __init__(self, sim: Simulator, target: LoadTarget, stream: Stream,
                 mean_gap: float = 50.0, mean_burst: float = 20.0,
                 peak: float = 0.8, horizon: float = float("inf")) -> None:
        if mean_gap <= 0 or mean_burst <= 0:
            raise ConfigurationError("mean_gap and mean_burst must be > 0")
        if not 0 < peak < 1:
            raise ConfigurationError("peak must be in (0,1)")
        self.sim = sim
        self.target = target
        self.stream = stream
        self.mean_gap = mean_gap
        self.mean_burst = mean_burst
        self.peak = peak
        self.horizon = horizon
        self.current = 0.0
        self.bursts = 0
        sim.schedule(stream.exponential(mean_gap), self._burst_start,
                     label="burst_start")

    def _burst_start(self) -> None:
        if self.sim.now >= self.horizon:
            return
        self.current = self.stream.uniform(0.1 * self.peak, self.peak)
        self.bursts += 1
        self.target.set_background_load(self.current)
        self.sim.schedule(self.stream.exponential(self.mean_burst),
                          self._burst_end, label="burst_end")

    def _burst_end(self) -> None:
        self.current = 0.0
        self.target.set_background_load(0.0)
        if self.sim.now < self.horizon:
            self.sim.schedule(self.stream.exponential(self.mean_gap),
                              self._burst_start, label="burst_start")


class NetworkCrossTraffic:
    """Background flows competing with the modelled traffic on a network.

    Bricks simulates "processing schemes for networks and servers": its
    scheduling unit monitors *network* conditions too.  This injector
    creates that environment — Poisson-started transfers between random
    endpoint pairs steal fair-share bandwidth from the model's own flows
    through the normal max-min reallocation, so no special-casing is
    needed anywhere.

    Parameters
    ----------
    network:
        The :class:`~repro.network.flow.FlowNetwork` to load.
    endpoints:
        Candidate source/destination node names (pairs drawn uniformly,
        src != dst).
    mean_gap, mean_bytes:
        Exponential inter-start time and transfer size.
    horizon:
        No new cross-flows start after this time (bounded runs stay
        bounded; in-flight transfers complete normally).
    """

    def __init__(self, sim: Simulator, network, stream: Stream,
                 endpoints: list[str], mean_gap: float = 10.0,
                 mean_bytes: float = 1e7, horizon: float = 3_600.0) -> None:
        if len(endpoints) < 2:
            raise ConfigurationError("need at least two endpoints")
        if mean_gap <= 0 or mean_bytes <= 0 or horizon <= 0:
            raise ConfigurationError("gap, bytes and horizon must be > 0")
        self.sim = sim
        self.network = network
        self.stream = stream
        self.endpoints = list(endpoints)
        self.mean_gap = mean_gap
        self.mean_bytes = mean_bytes
        self.horizon = horizon
        self.flows_started = 0
        self.bytes_injected = 0.0
        sim.schedule(stream.exponential(mean_gap), self._start_flow,
                     label="cross_traffic")

    def _start_flow(self) -> None:
        if self.sim.now >= self.horizon:
            return
        src = self.stream.choice(self.endpoints)
        dst = self.stream.choice([e for e in self.endpoints if e != src])
        size = self.stream.exponential(self.mean_bytes)
        self.network.transfer(src, dst, size)
        self.flows_started += 1
        self.bytes_injected += size
        self.sim.schedule(self.stream.exponential(self.mean_gap),
                          self._start_flow, label="cross_traffic")
