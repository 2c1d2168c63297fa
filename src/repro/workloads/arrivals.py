"""Arrival processes: how work reaches a simulated system over time.

The taxonomy's *behavior* axis (probabilistic simulation) and MONARC's
"stochastic arrival patterns" both reduce to: generate the times at which
jobs, requests, or files appear.  :func:`poisson_arrivals` is the
memoryless shape, the analytic-validation workhorse (the M in M/M/1).  It
returns a plain sorted list of times so workload construction stays
decoupled from model execution.
"""

from __future__ import annotations

from ..core.errors import ConfigurationError
from ..core.rng import Stream

__all__ = ["poisson_arrivals"]


def poisson_arrivals(stream: Stream, rate: float, horizon: float,
                     start: float = 0.0) -> list[float]:
    """Poisson process: exponential gaps with mean ``1/rate`` until *horizon*."""
    if rate <= 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")
    if horizon <= start:
        raise ConfigurationError("horizon must exceed start")
    times = []
    t = start
    while True:
        t += stream.exponential(1.0 / rate)
        if t >= horizon:
            return times
        times.append(t)
