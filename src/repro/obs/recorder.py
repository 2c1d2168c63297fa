"""Flight recorder — a bounded ring of the last N fired events.

When a campaign run is terminated for exceeding its timeout, the process
dies with everything an operator would want to know: where was it?  Which
handler was it grinding through?  Was the event list exploding?  The
recorder answers that post mortem: as each observed handler starts, one
tuple (track, sim time, callback, queue depth) goes into a fixed-size
ring, so a dump from inside a handler (a SIGTERM interrupts one) names
it; :meth:`FlightRecorder.dump` writes the ring — newest last — as JSONL.

One untimed ``pre_event_hooks`` call per firing; names resolve at dump
time.  The campaign runner attaches a ring only where something reads it.

Worker integration (:mod:`repro.campaign.runner`) uses the module-level
*armed post-mortem*: :func:`arm_postmortem` names the recorder and dump
path for the run in flight, and :func:`install_term_handler` installs a
``SIGTERM`` handler that dumps it before the process dies — so every
``terminate()`` the campaign parent issues leaves an artifact explaining
where the run was stuck.  Runs that die too hard for a handler (``SIGKILL``,
``os._exit``) are covered by the periodic partial dumps the worker writes
on each telemetry heartbeat.
"""

from __future__ import annotations

import json
import os
import signal
from collections import deque
from typing import Callable, Optional

from .spans import callback_name

__all__ = ["FlightRecorder", "write_dump", "arm_postmortem",
           "disarm_postmortem", "dump_postmortem", "install_term_handler"]


class FlightRecorder:
    """Bounded ring of the last *capacity* firings: :meth:`pre_event_hook`
    appends ``(track, sim_time, callback, queue_depth)`` to ``ring``."""

    __slots__ = ("ring", "capacity")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.ring: deque = deque(maxlen=self.capacity)

    def pre_event_hook(self, track: str, sim) -> Callable:
        """The ``sim.pre_event_hooks`` entry ringing *sim*'s firings; the
        depth reads *sim*, whose queue a Time Warp restore replaces."""
        append = self.ring.append

        def record(ev) -> None:
            append((track, ev.time, ev.fn, len(sim._queue)))
        return record

    # -- post-mortem ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ring)

    def __bool__(self) -> bool:
        # An attached-but-empty recorder is still "on" (facet truthiness).
        return True

    def snapshot(self) -> list[dict]:
        """The ring as plain dicts, oldest first (names resolved now)."""
        return [{"track": track, "sim_time": sim_time,
                 "handler": callback_name(fn), "queue_depth": depth}
                for track, sim_time, fn, depth in self.ring]

    def last_handler(self) -> Optional[str]:
        """Display name of the most recent firing (None when empty)."""
        if not self.ring:
            return None
        return callback_name(self.ring[-1][2])

    def dump(self, path: str, reason: str,
             extra: dict | None = None) -> str:
        """Write the ring with :func:`write_dump` (oldest event first);
        returns *path*."""
        return write_dump(path, reason, self.snapshot(),
                          {"capacity": self.capacity, **(extra or {})})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlightRecorder {len(self.ring)}/{self.capacity}>"


def write_dump(path: str, reason: str, entries: list[dict],
               extra: dict) -> str:
    """Write one flight dump as JSONL: a header line, then one line per
    entry.  The header names the record kind, the *reason*, the entry
    count and the last entry's handler, plus *extra*.  Overwrites *path*;
    returns it."""
    header = {"record": "flight-recorder", "reason": reason,
              "events": len(entries),
              "last_handler": entries[-1]["handler"] if entries else None,
              **extra}
    with open(path, "w") as fp:
        for line in (header, *entries):
            fp.write(json.dumps(line, sort_keys=True) + "\n")
    return path


# -- armed post-mortem (one per process; campaign workers are single-run) ----

_ARMED: tuple[FlightRecorder, str, dict] | None = None


def arm_postmortem(recorder: FlightRecorder, path: str,
                   extra: dict | None = None) -> None:
    """Declare *recorder* the one to dump to *path* if this process is
    asked to die (see :func:`install_term_handler`)."""
    global _ARMED
    _ARMED = (recorder, path, dict(extra or {}))


def disarm_postmortem() -> None:
    """Clear the armed post-mortem (the run finished on its own)."""
    global _ARMED
    _ARMED = None


def dump_postmortem(reason: str) -> Optional[str]:
    """Dump the armed recorder now (no-op when nothing is armed)."""
    if _ARMED is None:
        return None
    recorder, path, extra = _ARMED
    try:
        return recorder.dump(path, reason, extra)
    except OSError:  # pragma: no cover - dump path vanished mid-flight
        return None


def _on_term(signum, frame):  # pragma: no cover - runs in dying workers
    dump_postmortem("terminated")
    # Re-raise the default disposition so the exit code stays truthful.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def install_term_handler() -> bool:
    """Install the SIGTERM → dump-armed-postmortem handler.

    Returns False (and installs nothing) off the main thread or on
    platforms without SIGTERM delivery semantics.
    """
    try:
        signal.signal(signal.SIGTERM, _on_term)
        return True
    except (ValueError, OSError):  # not the main thread / unsupported
        return False
