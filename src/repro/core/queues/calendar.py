"""Calendar queue — the amortized O(1) event list (Brown, CACM 1988).

This is the structure the paper means by "a system using an O(1) structure
for the event list will behave better than another one using an O(log n)
queuing structure".  Events are hashed into an array of *buckets* by
timestamp, like appointments onto the days of a wall calendar:

* bucket index = ``floor(time / width) mod nbuckets``,
* a full sweep of the array spans one *year* (``nbuckets * width``),
* delete-min resumes scanning from the bucket of the last minimum and only
  accepts events belonging to the current year, so each sweep advances the
  calendar exactly one year.

With bucket width matched to the mean inter-event gap, each bucket holds
O(1) events and both operations are amortized O(1).  The structure *adapts*:
when the population doubles/halves past thresholds it resizes the bucket
array and re-estimates the width by sampling the queue — Brown's original
heuristic.  Resizing drops cancelled records entirely, so dead events can
never skew the width estimate.  Heavily *skewed* event-time distributions
defeat the width estimate and pile events into few buckets, which is exactly
the "no single structure performs best" caveat benchmark E2 demonstrates.

Hot path: :meth:`CalendarQueue.pop_if_le` performs delete-min, horizon
check, and cancelled-head purging in **one** bucket sweep.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..events import Event
from .base import EventQueue

__all__ = ["CalendarQueue"]

_MIN_BUCKETS = 2


class CalendarQueue(EventQueue):
    """Adaptive multi-list calendar queue with Brown's resize heuristic.

    Parameters
    ----------
    initial_buckets:
        Starting bucket-array size (rounded up to a power of two).
    initial_width:
        Starting bucket width in simulation-time units.
    """

    def __init__(self, initial_buckets: int = 2, initial_width: float = 1.0) -> None:
        super().__init__()
        n = _MIN_BUCKETS
        while n < initial_buckets:
            n <<= 1
        self._init_width = float(initial_width)
        self._size = 0
        self._setup(n, float(initial_width), 0.0)

    def _setup(self, nbuckets: int, width: float, start: float) -> None:
        """(Re)build the bucket array; caller re-inserts any prior events."""
        self._nbuckets = nbuckets
        self._width = max(width, 1e-12)
        self._buckets: list[list[Event]] = [[] for _ in range(nbuckets)]
        # scan state: last-popped minimum defines where the next sweep begins
        self._last_prio = start
        self._cur_bucket = int(start / self._width) % nbuckets
        # upper time edge of the current bucket within the current year
        self._bucket_top = (int(start / self._width) + 1) * self._width
        self._resize_up = 2 * nbuckets
        self._resize_down = nbuckets // 2 - 2

    # -- core operations -------------------------------------------------------

    def push(self, event: Event) -> None:
        if event._cancelled:
            self._dead += 1
        else:
            event._on_cancel = self._cancel_cb
        t = event.time
        if t < self._last_prio:
            # Insert behind the scan position (legal for a general-purpose
            # priority queue even though engines never schedule in the past):
            # rewind the calendar so the sweep re-covers the event's bucket.
            j = int(t / self._width)
            self._cur_bucket = j % self._nbuckets
            self._bucket_top = (j + 1) * self._width
            self._last_prio = t
        i = int(t / self._width) % self._nbuckets
        bucket = self._buckets[i]
        # Buckets are kept sorted (they stay tiny when width is well-chosen),
        # so delete-min inspects only bucket heads.
        lo, hi = 0, len(bucket)
        key = event.sort_key
        while lo < hi:
            mid = (lo + hi) // 2
            if bucket[mid].sort_key < key:
                lo = mid + 1
            else:
                hi = mid
        bucket.insert(lo, event)
        self._size += 1
        if self._size > self._resize_up:
            self._resize(self._nbuckets * 2)

    def _pop_min_direct(self, horizon: float) -> Optional[Event]:
        """Global head scan for when a whole year sweep found nothing."""
        best_bucket: Optional[list[Event]] = None
        for bucket in self._buckets:
            while bucket and bucket[0]._cancelled:
                bucket.pop(0)
                self._size -= 1
                self._dead -= 1
            if bucket and (best_bucket is None
                           or bucket[0].sort_key < best_bucket[0].sort_key):
                best_bucket = bucket
        if best_bucket is None:  # every record was a purged ghost
            return None
        ev = best_bucket[0]
        if ev.time > horizon:
            return None
        best_bucket.pop(0)
        # Move the scan to the popped event's bucket.  (Popping directly —
        # rather than re-entering the sweep — guards against float-precision
        # collapse when width << event times.)
        j = int(ev.time / self._width)
        self._size -= 1
        self._last_prio = ev.time
        self._cur_bucket = j % self._nbuckets
        self._bucket_top = max((j + 1) * self._width, ev.time)
        ev._on_cancel = None
        if self._size < self._resize_down and self._nbuckets > _MIN_BUCKETS:
            self._resize(self._nbuckets // 2)
        return ev

    def pop_if_le(self, horizon: float) -> Optional[Event]:
        """Fused delete-min: one sweep covers purge + horizon check + pop."""
        if self._size == 0:
            return None
        i = self._cur_bucket
        top = self._bucket_top
        n = self._nbuckets
        buckets = self._buckets
        for _ in range(n):
            bucket = buckets[i]
            while bucket and bucket[0]._cancelled:
                bucket.pop(0)
                self._size -= 1
                self._dead -= 1
            if bucket:
                ev = bucket[0]
                if ev.time < top:
                    if ev.time > horizon:
                        return None
                    del bucket[0]
                    size = self._size - 1
                    self._size = size
                    self._last_prio = ev.time
                    self._cur_bucket = i
                    self._bucket_top = top
                    ev._on_cancel = None
                    if size < self._resize_down and n > _MIN_BUCKETS:
                        self._resize(n // 2)
                    return ev
            elif self._size == 0:  # purging emptied the queue mid-sweep
                return None
            i = (i + 1) % n
            top += self._width
        return self._pop_min_direct(horizon)

    def peek(self) -> Optional[Event]:
        # Mirror the pop sweep (O(1) amortized) instead of scanning every
        # bucket; a naive global scan would dominate small simulations.
        # Scan state is NOT advanced — only a successful pop may move it.
        if self._size == 0:
            return None
        before = self._size
        ev = self._peek_scan()
        if (self._size < before and self._size < self._resize_down
                and self._nbuckets > _MIN_BUCKETS):
            # The cancelled-head purge shrank the population below the
            # resize-down threshold: apply the same adaptation a pop would.
            self._resize(self._nbuckets // 2)
            return self._peek_scan()
        return ev

    def _peek_scan(self) -> Optional[Event]:
        i = self._cur_bucket
        top = self._bucket_top
        n = self._nbuckets
        for _ in range(n):
            bucket = self._buckets[i]
            while bucket and bucket[0]._cancelled:
                bucket.pop(0)
                self._size -= 1
                self._dead -= 1
            if bucket and bucket[0].time < top:
                return bucket[0]
            i = (i + 1) % n
            top += self._width
        # Nothing in the coming year: fall back to a global head scan.
        best: Optional[Event] = None
        for bucket in self._buckets:
            while bucket and bucket[0]._cancelled:
                bucket.pop(0)
                self._size -= 1
                self._dead -= 1
            if bucket and (best is None or bucket[0].sort_key < best.sort_key):
                best = bucket[0]
        return best

    def __len__(self) -> int:
        return self._size

    def _iter_events(self) -> Iterator[Event]:
        for bucket in self._buckets:
            yield from bucket

    # -- adaptation --------------------------------------------------------------

    def _compact(self) -> None:
        # A same-size resize already filters cancelled records and refreshes
        # the width estimate from the live population.
        self._resize(self._nbuckets)

    def _resize(self, new_nbuckets: int) -> None:
        new_nbuckets = max(new_nbuckets, _MIN_BUCKETS)
        # Cancelled records are dropped here, never re-inserted: they would
        # survive every resize otherwise, skewing Brown's width estimate.
        events = [ev for bucket in self._buckets for ev in bucket
                  if not ev._cancelled]
        self._dead = 0
        width = self._estimate_width(events)
        start = self._last_prio
        self._size = 0
        self._setup(new_nbuckets, width, start)
        for ev in events:
            self.push(ev)

    def _estimate_width(self, events: list[Event]) -> float:
        """Brown's width heuristic: ~3x the mean gap of a sample near the min."""
        live = sorted(ev.time for ev in events)
        if len(live) < 2:
            return self._init_width
        sample = live[: min(len(live), 25)]
        gaps = [b - a for a, b in zip(sample, sample[1:]) if b > a]
        if not gaps:
            return self._init_width
        mean_gap = sum(gaps) / len(gaps)
        width = 3.0 * mean_gap if mean_gap > 0 else self._init_width
        # Precision guard: keep bucket indices (t / width) well inside the
        # 53-bit float mantissa, else (j+1)*width can round below t and the
        # sweep would never terminate.
        t_max = abs(live[-1])
        if t_max > 0:
            width = max(width, t_max / 2.0**40)
        return width

    # -- diagnostics ---------------------------------------------------------------

    @property
    def nbuckets(self) -> int:
        """Current bucket-array size (exposed for tests and benchmarks)."""
        return self._nbuckets

    @property
    def width(self) -> float:
        """Current bucket width (exposed for tests and benchmarks)."""
        return self._width

    def max_bucket_occupancy(self) -> int:
        """Largest single-bucket population — skew diagnostic for E2."""
        return max((len(b) for b in self._buckets), default=0)
