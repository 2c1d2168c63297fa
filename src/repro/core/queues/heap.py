"""Binary-heap event queue — the O(log n) workhorse.

The structure most production DES engines default to: ``heapq`` over
``(time, priority, seq)`` keys.  Both insert and delete-min are O(log n)
with small constants (CPython's ``heapq`` is C-accelerated), making it the
robust choice the paper contrasts with amortized-O(1) calendar structures.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterator, Optional

from ..events import Event
from .base import EventQueue

__all__ = ["HeapQueue"]


class HeapQueue(EventQueue):
    """Binary min-heap: O(log n) insert and delete-min."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[float, int, int, Event]] = []

    def push(self, event: Event) -> None:
        if event._cancelled:
            self._dead += 1
        else:
            event._on_cancel = self._cancel_cb
        heappush(self._heap, (event.time, event.priority, event.seq, event))

    def pop_if_le(self, horizon: float) -> Optional[Event]:
        heap = self._heap
        while heap:
            entry = heap[0]
            ev = entry[3]
            if ev._cancelled:
                heappop(heap)
                self._dead -= 1
                continue
            if entry[0] > horizon:
                return None
            heappop(heap)
            ev._on_cancel = None
            return ev
        return None

    def peek(self) -> Optional[Event]:
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heappop(heap)
            self._dead -= 1
        return heap[0][3] if heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def _note_cancelled(self) -> None:
        # The base hook with ``len(self._heap)`` for ``len(self)``: a cancel
        # is one call, not two (same threshold, same ``compact()``).
        self._dead = dead = self._dead + 1
        if dead >= self.compact_min and dead * 2 >= len(self._heap):
            self.compact()

    def _compact(self) -> None:
        self._heap = [e for e in self._heap if not e[3]._cancelled]
        heapify(self._heap)

    def _iter_events(self) -> Iterator[Event]:
        for entry in self._heap:
            yield entry[3]
