"""Run telemetry — events/sec, sim/wall ratio, queue depth, heartbeat.

The numbers an operator wants while a long simulation runs: how fast is it
going, how far has it got, is the event list growing without bound.  The
per-event cost is one integer increment and one comparison; everything
expensive (clock reads, queue-depth probes, line formatting) happens only
every ``check_every`` events, and the heartbeat line only after
``heartbeat`` wall seconds have passed since the last one.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["Telemetry"]


class Telemetry:
    """Counts firings and reports run-rate statistics.

    Parameters
    ----------
    heartbeat:
        Emit a progress line every this many *wall* seconds (None = never;
        counting still happens).
    sink:
        Where heartbeat lines go; default writes to stderr.  Any callable
        accepting one string works (a logger, a list's append...).
    check_every:
        How many firings between wall-clock checks — the knob trading
        heartbeat latency against per-event overhead.

    Attributes
    ----------
    beat_hook:
        Optional callable receiving each heartbeat's snapshot dict right
        after the line is emitted — the campaign worker uses this to ship
        live "beat" frames to the parent without subclassing.
    """

    def __init__(self, heartbeat: float | None = None,
                 sink: Callable[[str], None] | None = None,
                 check_every: int = 2048) -> None:
        self.heartbeat = heartbeat
        self.sink = sink if sink is not None else _stderr_sink
        self.beat_hook: Callable[[dict], None] | None = None
        self.check_every = max(1, int(check_every))
        self.events = 0
        self.start_wall = perf_counter()
        self.start_sim: float | None = None
        self._next_check = self.check_every
        self._last_beat_wall = self.start_wall
        self._last_beat_events = 0
        self.heartbeats = 0

    # -- hot path ------------------------------------------------------------

    def on_event(self, sim: Any) -> None:
        """Count one firing; occasionally check whether to heartbeat."""
        self.events += 1
        if self.events >= self._next_check:
            self._next_check = self.events + self.check_every
            if self.start_sim is None:
                self.start_sim = sim.now
            if self.heartbeat is not None:
                wall = perf_counter()
                if wall - self._last_beat_wall >= self.heartbeat:
                    self.beat(sim, wall)

    # -- reporting -----------------------------------------------------------

    def beat(self, sim: Any, wall: float | None = None) -> str:
        """Emit (and return) one progress line for *sim* right now."""
        wall = perf_counter() if wall is None else wall
        window = wall - self._last_beat_wall
        inst_eps = ((self.events - self._last_beat_events) / window
                    if window > 0 else 0.0)
        self._last_beat_wall = wall
        self._last_beat_events = self.events
        self.heartbeats += 1
        snap = self.snapshot(sim, wall)
        line = (f"[obs] t={snap['sim_time']:.6g} events={self.events:,} "
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
        now = float(getattr(sim, "now", 0.0)) if sim is not None else 0.0
        start_sim = self.start_sim if self.start_sim is not None else 0.0
        sim_span = now - start_sim if sim is not None else 0.0
        return {
            "events": int(self.events),
            "wall_seconds": elapsed,
            "events_per_sec": self.events / elapsed if elapsed > 0 else 0.0,
            "sim_time": now,
            "sim_wall_ratio": sim_span / elapsed if elapsed > 0 else 0.0,
            "queue_depth": int(getattr(sim, "pending", 0)) if sim is not None else 0,
            "heartbeats": int(self.heartbeats),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Telemetry events={self.events} heartbeats={self.heartbeats}>"


def _stderr_sink(line: str) -> None:
    print(line, file=sys.stderr, flush=True)
