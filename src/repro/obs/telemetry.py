"""Run telemetry — events/sec, sim/wall ratio, queue depth, heartbeat.

The numbers an operator wants while a long simulation runs: how fast is it
going, how far has it got, is the event list growing without bound.  The
firing count is the kernel's ``events_executed``, read only when reported;
the binding checks the heartbeat every ``CHECK_EVERY`` firings of its
simulator, and a line goes out ``heartbeat`` wall seconds after the last.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable

from ..core.errors import ConfigurationError

__all__ = ["Telemetry"]

#: firings of one simulator between heartbeat checks (a power of two that
#: the binding's 1-in-16 sample always contains)
CHECK_EVERY = 2048


class Telemetry:
    """Reports run-rate statistics over the simulators it observes.

    Parameters
    ----------
    heartbeat:
        Emit a progress line every this many *wall* seconds (None = never).
    sink:
        Where heartbeat lines go; default writes to stderr.  Any callable
        accepting one string works (a logger, a list's append...).

    Attributes
    ----------
    beat_hook:
        Optional callable receiving each heartbeat's snapshot dict right
        after the line is emitted — the campaign worker uses this to ship
        live "beat" frames to the parent without subclassing.
    """

    def __init__(self, heartbeat: float | None = None,
                 sink: Callable[[str], None] | None = None) -> None:
        if heartbeat is not None and heartbeat < 0:
            raise ConfigurationError(f"heartbeat must be >= 0, got {heartbeat}")
        self.heartbeat = heartbeat
        self.sink = sink if sink is not None else _stderr_sink
        self.beat_hook: Callable[[dict], None] | None = None
        self.start_wall = perf_counter()
        self.start_sim: float | None = None
        #: attached simulator -> its ``events_executed`` at attach
        self._base: dict[Any, int] = {}
        self._detached_events = 0
        self._last_beat_wall = self.start_wall
        self._last_beat_events = 0
        self.heartbeats = 0

    def attach(self, sim: Any) -> None:
        """Count *sim*'s firings from now on; the first attach starts the
        simulated span that ``sim_wall_ratio`` measures."""
        if self.start_sim is None:
            self.start_sim = sim.now
        self._base[sim] = sim.events_executed

    def detach(self, sim: Any) -> None:
        """Keep *sim*'s firings so far, stop reading its count."""
        self._detached_events += sim.events_executed - self._base.pop(sim)

    @property
    def events(self) -> int:
        """Firings observed since attach, summed over every simulator."""
        return self._detached_events + sum(
            sim.events_executed - base for sim, base in self._base.items())

    def check(self, sim: Any) -> None:
        """Emit a heartbeat for *sim* if one is due."""
        if self.heartbeat is not None:
            wall = perf_counter()
            if wall - self._last_beat_wall >= self.heartbeat:
                self.beat(sim, wall)

    # -- reporting -----------------------------------------------------------

    def beat(self, sim: Any, wall: float | None = None) -> str:
        """Emit (and return) one progress line for *sim* right now."""
        wall = perf_counter() if wall is None else wall
        self.heartbeats += 1
        snap = self.snapshot(sim, wall)
        events, window = snap["events"], wall - self._last_beat_wall
        inst_eps = ((events - self._last_beat_events) / window
                    if window > 0 else 0.0)
        self._last_beat_wall, self._last_beat_events = wall, events
        line = (f"[obs] t={snap['sim_time']:.6g} events={events:,} "
                f"eps={inst_eps:,.0f} (avg {snap['events_per_sec']:,.0f}) "
                f"depth={snap['queue_depth']} "
                f"sim/wall={snap['sim_wall_ratio']:.3g}")
        self.sink(line)
        hook = self.beat_hook
        if hook is not None:
            hook(snap)
        return line

    def snapshot(self, sim: Any = None, wall: float | None = None) -> dict:
        """Current run-rate metrics as a flat dict (CSV/JSON-friendly).

        Every value is a builtin ``int``/``float`` — no numpy scalars and
        no references back into the simulator — so the snapshot pickles
        cleanly across the campaign worker→parent queue.
        """
        wall = perf_counter() if wall is None else wall
        elapsed = float(wall - self.start_wall)
        events = self.events
        now = float(sim.now) if sim is not None else 0.0
        sim_span = now - (self.start_sim or 0.0) if sim is not None else 0.0
        return {
            "events": int(events),
            "wall_seconds": elapsed,
            "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
            "sim_time": now,
            "sim_wall_ratio": sim_span / elapsed if elapsed > 0 else 0.0,
            "queue_depth": int(sim.pending) if sim is not None else 0,
            "heartbeats": int(self.heartbeats),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Telemetry events={self.events} heartbeats={self.heartbeats}>"


def _stderr_sink(line: str) -> None:
    print(line, file=sys.stderr, flush=True)
