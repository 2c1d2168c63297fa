"""Self-tuning event list: samples its own workload and migrates structures.

The source paper observes that no single queuing structure performs best —
"there is not a single unanimity accepted queuing structure"; the winner
depends on the event-time distribution and the operation mix, which a
simulation author rarely knows in advance (and which can change *within* a
run: a schedule-heavy warm-up followed by a steady hold pattern followed by
a drain).  :class:`AdaptiveQueue` removes the choice from the user: it
delegates to one of the bundled structures and keeps lightweight statistics
over a sliding window of operations — push/pop ratio, timestamp skew,
cancellation rate, dead-record fraction, live size — migrating its contents
to a different backend when the sampled profile crosses calibrated
thresholds.

Policy (evaluated once per *window* operations, with hysteresis so a
profile sitting on a boundary never thrashes):

* live size ≥ ``ladder_size`` → **ladder**: bucket structures dominate at
  scale and the ladder re-buckets skewed bands instead of degrading.
* mid-band size with low right-tail skew, a balanced push/pop mix, and few
  cancellations → **calendar**: the stationary hold pattern Brown's
  calendar queue was designed around.
* otherwise → **heap**: the robust default; lowest constants at small
  sizes and under erratic mixes.

Migration re-pushes only the live events (a free compaction) and leaves
every popped ordering byte-identical to the heapq reference — enforced by
the differential fuzzer with a small-window variant so migrations happen
mid-sequence.  Counters (``migrations``, ``migrated_events``, the last
sampled ``profile``) are public; when an :class:`~repro.obs.Observation`
is attached to the owning simulator it wires :attr:`on_migrate` so the
metrics registry and the Chrome trace record each switch.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from ..events import Event
from .base import EventQueue
from .calendar import CalendarQueue
from .heap import HeapQueue
from .ladder import LadderQueue

__all__ = ["AdaptiveQueue"]


class AdaptiveQueue(EventQueue):
    """Event queue that re-selects its backing structure at runtime.

    Parameters (all thresholds overridable, mainly so tests and the fuzzer
    can force migrations with tiny workloads):

    window:
        Operations (pushes + successful pops) between profile evaluations.
    ladder_size:
        Live size at or above which the ladder backend is selected; the
        queue leaves the ladder only below half of this (hysteresis).
    calendar_size:
        Minimum live size for the calendar backend to be considered.
    calendar_skew:
        Maximum right-tail skew — ``(max - mean) / (mean - min)`` over the
        window's pushed timestamps — for the calendar's uniform-width
        buckets to be trusted.
    balanced:
        ``(lo, hi)`` band of the push share (pushes / operations) treated
        as a steady hold pattern.
    calendar_cancel:
        Maximum per-window cancellation rate for the calendar (cancelled
        ghosts sit in its buckets until a sweep passes them).
    """

    BACKENDS: dict[str, Callable[[], EventQueue]] = {
        "heap": HeapQueue,
        "calendar": CalendarQueue,
        "ladder": LadderQueue,
    }

    def __init__(self, window: int = 2048, ladder_size: int = 16384,
                 calendar_size: int = 4096, calendar_skew: float = 3.0,
                 balanced: tuple[float, float] = (0.35, 0.65),
                 calendar_cancel: float = 0.05) -> None:
        super().__init__()
        self.window = max(2, int(window))
        self.ladder_size = ladder_size
        self.calendar_size = calendar_size
        self.calendar_skew = calendar_skew
        self.balanced = balanced
        self.calendar_cancel = calendar_cancel
        self._impl: EventQueue = HeapQueue()
        self.backend_kind = "heap"
        #: total structure switches / live events moved across them
        self.migrations = 0
        self.migrated_events = 0
        #: the most recent window's sampled profile (diagnostics)
        self.profile: dict[str, float] = {}
        #: ``(src_kind, dst_kind, moved) -> None``; wired to the obs layer
        #: by :meth:`repro.obs.Observation.attach`, else stays None.
        self.on_migrate: Optional[Callable[[str, str, int], None]] = None
        # sliding-window accumulators
        self._ops_left = self.window
        self._w_pushes = 0
        self._w_pops = 0
        self._w_cancels = 0
        self._w_tsum = 0.0
        self._w_tmin = float("inf")
        self._w_tmax = float("-inf")

    @property
    def backend(self) -> EventQueue:
        """The structure currently holding the events (for introspection)."""
        return self._impl

    # -- interface (all delegate to the current backend) ----------------------
    #
    # These are stable bound methods: the engine hot loop caches
    # ``queue.pop_if_le`` once per run(), so the indirection through
    # ``self._impl`` must happen *inside* the call — rebinding the wrapper's
    # methods to the backend's would leave the engine popping a structure
    # that a mid-run migration has already abandoned.

    def push(self, event: Event) -> None:
        self._impl.push(event)
        if event._on_cancel is not None:
            # Claim the hook back from the backend so cancellations are
            # counted in the window profile (then forwarded).
            event._on_cancel = self._cancel_cb
        t = event.time
        self._w_pushes += 1
        self._w_tsum += t
        if t < self._w_tmin:
            self._w_tmin = t
        if t > self._w_tmax:
            self._w_tmax = t
        self._ops_left -= 1
        if self._ops_left <= 0:
            self._evaluate()

    def pop_if_le(self, horizon: float) -> Optional[Event]:
        ev = self._impl.pop_if_le(horizon)
        if ev is not None:
            self._w_pops += 1
            self._ops_left -= 1
            if self._ops_left <= 0:
                self._evaluate()
        return ev

    def peek(self) -> Optional[Event]:
        return self._impl.peek()

    def __len__(self) -> int:
        return len(self._impl)

    def live_len(self) -> int:
        return self._impl.live_len()

    def __bool__(self) -> bool:
        return bool(self._impl)

    @property
    def dead_len(self) -> int:
        return self._impl.dead_len

    def compact(self) -> None:
        self._impl.compact()

    def _compact(self) -> None:  # pragma: no cover - compact() bypasses this
        self._impl._compact()

    def _iter_events(self) -> Iterator[Event]:
        return self._impl._iter_events()

    def _note_cancelled(self) -> None:
        # Installed as the pushed events' cancel hook (via ``_cancel_cb``):
        # count it for the window profile, then forward so the backend's
        # exact dead counter and compaction threshold still work.
        self._w_cancels += 1
        self._impl._note_cancelled()

    # -- sampling & migration --------------------------------------------------

    def _evaluate(self) -> None:
        """Close the window: sample the profile, migrate if it crossed."""
        self._ops_left = self.window
        pushes, pops, cancels = self._w_pushes, self._w_pops, self._w_cancels
        ops = pushes + pops
        size = self._impl.live_len()
        push_share = pushes / ops if ops else 0.5
        if pushes >= 2 and self._w_tmax > self._w_tmin:
            mean = self._w_tsum / pushes
            skew = (self._w_tmax - mean) / max(mean - self._w_tmin, 1e-12)
        else:
            skew = 1.0  # too few samples to distrust any structure
        raw = len(self._impl)
        self.profile = {
            "size": float(size),
            "push_share": push_share,
            "skew": skew,
            "cancel_rate": cancels / ops if ops else 0.0,
            "dead_fraction": self._impl.dead_len / raw if raw else 0.0,
        }
        self._w_pushes = self._w_pops = self._w_cancels = 0
        self._w_tsum = 0.0
        self._w_tmin = float("inf")
        self._w_tmax = float("-inf")
        target = self._choose()
        if target != self.backend_kind:
            self._migrate(target)

    def _choose(self) -> str:
        """Map the sampled profile to a backend kind (with hysteresis)."""
        p = self.profile
        size = p["size"]
        cur = self.backend_kind
        if size >= self.ladder_size:
            return "ladder"
        if cur == "ladder" and size * 2 >= self.ladder_size:
            return "ladder"  # hold until well below the boundary
        lo, hi = self.balanced
        calendar_fit = (p["skew"] <= self.calendar_skew
                        and lo <= p["push_share"] <= hi
                        and p["cancel_rate"] <= self.calendar_cancel)
        if size >= self.calendar_size and calendar_fit:
            return "calendar"
        if cur == "calendar" and size * 2 >= self.calendar_size and calendar_fit:
            return "calendar"
        return "heap"

    def _migrate(self, target: str) -> None:
        """Move live contents into a fresh *target* structure.

        Only live events move (cancelled records are dropped — their
        ``_on_cancel`` hooks already fired, so nothing references the old
        backend afterwards).  The set of live events and their total order
        are untouched, so popped sequences stay byte-identical across the
        switch.
        """
        old = self._impl
        src = self.backend_kind
        new = self.BACKENDS[target]()
        cb = self._cancel_cb
        moved = 0
        for ev in old._iter_events():
            if not ev._cancelled:
                new.push(ev)
                ev._on_cancel = cb  # claim the hook back from the backend
                moved += 1
        self._impl = new
        self.backend_kind = target
        self.migrations += 1
        self.migrated_events += moved
        hook = self.on_migrate
        if hook is not None:
            hook(src, target, moved)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<AdaptiveQueue backend={self.backend_kind} "
                f"len={len(self)} migrations={self.migrations}>")
