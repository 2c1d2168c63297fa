"""Time-driven DES — fixed-increment advancement on the kernel's model API.

The taxonomy's DES-kind axis: "a time-driven DES advances by fixed time
increments and is useful for modeling events that occur at regular time
intervals.  An event-driven DES is more efficient than a time-driven DES
since it does not step through regular time intervals when no event occurs."

:class:`TimeDrivenSimulator` subclasses the event-driven kernel and changes
only the advancement discipline: the clock moves tick by tick, and every
event scheduled inside a tick interval fires *at the tick boundary* (its
timestamp is quantized up).  Models written against :class:`Simulator`
therefore run unchanged — which is exactly what benchmark E3 needs to make
the efficiency comparison apples-to-apples, and which also quantifies the
accuracy cost of quantization (events within a tick lose their relative
spacing but keep their order).
"""

from __future__ import annotations

import math
import sys
from typing import Any, Callable

from .engine import Simulator
from .errors import SchedulingError
from .events import Event
from .queues import EventQueue

__all__ = ["TimeDrivenSimulator"]

#: float slop absorbed when comparing a time against a tick boundary
_SLOP = 1e-12


class TimeDrivenSimulator(Simulator):
    """Fixed-increment simulator: the clock visits every multiple of *tick*.

    Parameters
    ----------
    tick:
        Increment size.  Event timestamps are quantized **up** to the next
        tick boundary at scheduling time, mirroring how a time-stepped
        engine only observes the world once per step.
    """

    def __init__(
        self,
        tick: float = 1.0,
        queue: EventQueue | str = "heap",
        seed: int = 0,
        start_time: float = 0.0,
    ) -> None:
        if tick <= 0:
            raise SchedulingError(f"tick must be positive, got {tick}")
        super().__init__(queue=queue, seed=seed, start_time=start_time)
        self.tick = float(tick)
        self._ticks_stepped = 0
        self._latest_scheduled = float(start_time)

    @property
    def ticks_stepped(self) -> int:
        """How many increments the clock has visited (the E3 cost metric)."""
        return self._ticks_stepped

    def _quantize(self, time: float) -> float:
        """Round *time* up to the next tick boundary."""
        k = math.ceil((time - _SLOP) / self.tick)
        return k * self.tick

    def _enter(self, time: float, fn: Callable[..., Any], args: tuple,
               priority: int, label: str) -> Event:
        """Both public entry points land here: check *time* (>= now, with
        slop), quantise it up to the next tick boundary, then insert."""
        if math.isnan(time):
            raise SchedulingError("cannot schedule event at NaN time")
        if time < self._now - _SLOP:
            raise SchedulingError(
                f"cannot schedule event in the past (t={time} < now={self._now})"
            )
        # A time within the slop below `now` quantizes to `now`'s own tick.
        qt = max(self._quantize(time), self._now)
        if qt > self._latest_scheduled:
            self._latest_scheduled = qt
        return super()._enter(qt, fn, args, priority, label)

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Advance tick by tick, firing each tick's quantized events.

        Unlike the event-driven parent, the loop cost is proportional to the
        number of *ticks* in the horizon, not the number of events: an empty
        tick still costs one call of the kernel's dispatch loop.  ``until``
        defaults to the time of the last scheduled event (rounded up) so a
        bounded run terminates.
        """
        auto_horizon = until is None
        if auto_horizon:
            if math.isinf(self.peek_time()):
                return
            until = self._latest_scheduled
        budget = sys.maxsize if max_events is None else int(max_events)
        fired = 0
        # Integer tick index avoids additive float drift over long runs.
        k = math.ceil((self._now - _SLOP) / self.tick)
        while (t := k * self.tick) <= until + _SLOP:
            self._now = t
            self._ticks_stepped += 1
            # Everything quantized to this boundary, in priority order.
            left = budget - fired
            fired += self._fire_until(t + _SLOP, left, left)
            if fired >= budget:
                raise SchedulingError(
                    f"max_events budget of {max_events} exhausted at t={self._now}"
                )
            if self._stopped:
                return
            if auto_horizon and self._latest_scheduled > until:
                until = self._latest_scheduled  # model extended horizon
            k += 1
        if self._now < until:
            self._now = until
