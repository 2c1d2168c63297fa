"""Ladder queue — amortized O(1) event list resistant to skew (Tang et al. 2005).

The ladder queue was proposed as the successor to the calendar queue for
large-scale network simulation: it keeps calendar-like O(1) amortized cost
but, instead of one global bucket width, *recursively* re-buckets any bucket
that grows too large into a finer rung.  That makes it robust against the
skewed timestamp distributions that break a calendar queue's width estimate
— the property benchmark E2 measures.

Structure (three tiers):

``Top``
    Unsorted spill list for events beyond the ladder's horizon.  Cheap O(1)
    append; converted into a fresh rung when the ladder runs dry.
``Ladder``
    A stack of *rungs*; each rung is an array of buckets covering a time
    interval.  Rung *k+1* refines one oversized bucket of rung *k*.
``Bottom``
    A small sorted array holding the imminent events; delete-min reads it
    through an advancing cursor (no per-pop memmove).  When the cursor
    exhausts it, the next non-empty bucket of the lowest rung is sorted
    wholesale and *becomes* Bottom (or is re-bucketed into a new rung if it
    exceeds the threshold).

Performance note (the E2 drain fix): every rung keeps an incremental
record count, so emptiness checks are O(1).  The seed implementation
recomputed ``len(rung)`` by slicing and summing all remaining buckets on
every Bottom refill, which turned an N-event drain into O(N²/THRESHOLD)
work — the 200× collapse recorded in BENCH_kernel.json before this fix.
"""

from __future__ import annotations

from bisect import insort_right
from operator import attrgetter
from typing import Iterator, Optional

from ..events import Event
from .base import EventQueue

__all__ = ["LadderQueue"]

#: Bucket population above which a bucket is refined into a new rung rather
#: than sorted directly into Bottom (the paper's THRES).
_THRESHOLD = 50

#: Target mean bucket occupancy when spawning a rung.  Occupancy ~1 (the
#: seed's choice) makes every pop pay a full Bottom-refill round trip;
#: a handful of events per bucket amortizes the refill across that many
#: pops while keeping the per-bucket sort a tiny C call.
_OCCUPANCY = 8

_SORT_KEY = attrgetter("sort_key")


class _Rung:
    __slots__ = ("start", "width", "buckets", "cur", "count")

    def __init__(self, start: float, width: float, nbuckets: int) -> None:
        self.start = start
        self.width = max(width, 1e-12)
        self.buckets: list[list[Event]] = [[] for _ in range(nbuckets)]
        self.cur = 0  # index of the first possibly-non-empty bucket
        self.count = 0  # records currently stored (live + cancelled)

    @property
    def end(self) -> float:
        """Exclusive upper time bound of the rung."""
        return self.start + self.width * len(self.buckets)

    def insert(self, event: Event) -> bool:
        """Insert if the event belongs at or after the current bucket."""
        i = int((event.time - self.start) / self.width)
        if i < self.cur or i >= len(self.buckets):
            return False
        self.buckets[i].append(event)
        self.count += 1
        return True

    def next_bucket(self) -> Optional[list[Event]]:
        """Detach and return the next non-empty bucket, advancing ``cur``."""
        buckets = self.buckets
        n = len(buckets)
        cur = self.cur
        while cur < n:
            bucket = buckets[cur]
            cur += 1
            if bucket:
                buckets[cur - 1] = []
                self.cur = cur
                self.count -= len(bucket)
                return bucket
        self.cur = cur
        return None

    def bucket_bounds(self) -> tuple[float, float]:
        """Time range of the bucket just returned by :meth:`next_bucket`."""
        i = self.cur - 1
        return (self.start + i * self.width, self.start + (i + 1) * self.width)

    def __len__(self) -> int:
        # O(1): incrementally maintained.  (Recomputing this by slicing
        # ``buckets[cur:]`` on every refill was the quadratic-drain bug.)
        return self.count


class LadderQueue(EventQueue):
    """Three-tier (Top / Ladder / Bottom) adaptive event list."""

    def __init__(self) -> None:
        super().__init__()
        self._top: list[Event] = []
        self._top_min = float("inf")
        self._top_max = float("-inf")
        self._top_start = float("-inf")  # events beyond this go to Top
        self._rungs: list[_Rung] = []
        #: Bottom: events sorted ascending by sort key; ``_bot`` is the
        #: read cursor — slots before it are already-popped ghosts, dropped
        #: wholesale when Bottom is replaced on refill.
        self._bottom: list[Event] = []
        self._bot = 0
        self._size = 0

    # -- interface ------------------------------------------------------------

    def push(self, event: Event) -> None:
        if event._cancelled:
            self._dead += 1
        else:
            event._on_cancel = self._cancel_cb
        t = event.time
        self._size += 1
        # Strictly greater: an event at exactly the boundary timestamp must
        # join the ladder/Bottom tiers, where same-time events sort by the
        # full (time, priority, seq) key — routing it to Top would let a
        # lower-priority twin already in the ladder pop first.
        if t > self._top_start:
            self._top.append(event)
            if t < self._top_min:
                self._top_min = t
            if t > self._top_max:
                self._top_max = t
            return
        for rung in self._rungs:
            if t >= rung.start and rung.insert(event):
                return
        insort_right(self._bottom, event, lo=self._bot, key=_SORT_KEY)

    def pop_if_le(self, horizon: float) -> Optional[Event]:
        while True:
            bottom = self._bottom
            i = self._bot
            if i < len(bottom):
                ev = bottom[i]
                if not ev._cancelled:
                    if ev.time > horizon:
                        return None
                    self._bot = i + 1
                    self._size -= 1
                    ev._on_cancel = None
                    return ev
                # Purge the run of cancelled heads in one pass.
                n = len(bottom)
                while i < n and bottom[i]._cancelled:
                    i += 1
                    self._size -= 1
                    self._dead -= 1
                self._bot = i
                continue
            if self._size == 0:
                if bottom:
                    self._bottom = []
                    self._bot = 0
                return None
            self._refill_bottom()

    def peek(self) -> Optional[Event]:
        while True:
            bottom = self._bottom
            i = self._bot
            n = len(bottom)
            while i < n:
                ev = bottom[i]
                if not ev._cancelled:
                    self._bot = i
                    return ev
                i += 1
                self._size -= 1
                self._dead -= 1
            self._bot = i
            if self._size == 0:
                return None
            self._refill_bottom()

    def __len__(self) -> int:
        return self._size

    def _compact(self) -> None:
        self._top = [ev for ev in self._top if not ev._cancelled]
        if self._top:
            self._top_min = min(ev.time for ev in self._top)
            self._top_max = max(ev.time for ev in self._top)
        else:
            self._top_min = float("inf")
            self._top_max = float("-inf")
        for rung in self._rungs:
            count = 0
            for i, bucket in enumerate(rung.buckets):
                if bucket:
                    live = [ev for ev in bucket if not ev._cancelled]
                    rung.buckets[i] = live
                    count += len(live)
            rung.count = count
        while self._rungs and self._rungs[-1].count == 0:
            self._rungs.pop()
        self._bottom = [ev for ev in self._bottom[self._bot:]
                        if not ev._cancelled]
        self._bot = 0
        self._size = (len(self._top) + len(self._bottom)
                      + sum(r.count for r in self._rungs))

    def _iter_events(self) -> Iterator[Event]:
        yield from self._top
        for rung in self._rungs:
            for bucket in rung.buckets:
                yield from bucket
        yield from self._bottom[self._bot:]

    # -- tier management --------------------------------------------------------

    def _refill_bottom(self) -> None:
        """Replace exhausted Bottom with the earliest pending bucket (or Top)."""
        while True:
            # Drop exhausted rungs so their horizon reopens for insertion.
            rungs = self._rungs
            while rungs and rungs[-1].count == 0:
                rungs.pop()
            if rungs:
                rung = rungs[-1]
                bucket = rung.next_bucket()
                if bucket is None:
                    continue  # rung exhausted; loop pops it
                if len(bucket) > _THRESHOLD:
                    lo, hi = rung.bucket_bounds()
                    self._spawn_rung(bucket, lo, hi)
                    continue
                bucket.sort(key=_SORT_KEY)
                self._bottom = bucket
                self._bot = 0
                return
            if self._top:
                self._ladder_from_top()
                if self._bot < len(self._bottom):
                    return
                continue
            self._bottom = []
            self._bot = 0
            return

    def _ladder_from_top(self) -> None:
        """Convert the Top spill list into the first rung of a new ladder."""
        events = self._top
        self._top = []
        lo, hi = self._top_min, self._top_max
        self._top_min = float("inf")
        self._top_max = float("-inf")
        # The new horizon is the maximum *observed* timestamp: later pushes
        # strictly beyond it spill into the (new) Top, ties at the boundary
        # join Bottom where the full sort key orders them.  (The seed used
        # ``lo + 1.0`` when every spilled event shared one timestamp — an
        # arbitrary absolute offset that misrouted sub-unit-granularity
        # workloads into an ever-growing insort'd Bottom.)
        self._top_start = hi
        if len(events) <= _THRESHOLD or hi <= lo:
            events.sort(key=_SORT_KEY)
            self._bottom = events
            self._bot = 0
            return
        self._spawn_rung(events, lo, hi)

    def _spawn_rung(self, events: list[Event], lo: float, hi: float) -> None:
        """Re-bucket *events* spanning [lo, hi] into a finer rung."""
        span = hi - lo
        if span <= 0:
            # Degenerate: identical timestamps — ordering falls to Bottom
            # sort.  Only reachable with Bottom exhausted (both callers),
            # so the sorted batch simply becomes the new Bottom.
            events.sort(key=_SORT_KEY)
            self._bottom = events
            self._bot = 0
            return
        nb = max(len(events) // _OCCUPANCY, 2)
        width = span / nb
        rung = _Rung(lo, width, nb + 1)
        buckets = rung.buckets
        start = rung.start
        width = rung.width
        last = nb  # max valid index; guards float roundoff at t == hi
        for ev in events:
            i = int((ev.time - start) / width)
            buckets[i if i < last else last].append(ev)
        rung.count = len(events)
        self._rungs.append(rung)
