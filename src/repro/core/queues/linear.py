"""Sorted-list event queue — the O(n)-insert cautionary baseline.

Early simulators kept the future-event list as a time-ordered linked list;
insertion scans for position (O(n)) while delete-min pops the head (O(1)).
The paper's scalability discussion (Section 5) names this the structure that
makes "the time needed to run a complex simulation experiment ... quite
huge".  We keep it because (a) it is the natural straw-man for benchmark E2
and (b) for *tiny* event populations its constant factors win.

Implementation note: a Python ``list`` kept sorted in **reverse** order with
``bisect`` gives the same asymptotics as a linked list (O(n) insert via
element shifting, O(1) pop from the tail) with far better constants than an
actual pointer-chasing linked list in CPython.
"""

from __future__ import annotations

from bisect import insort_right
from typing import Iterator, Optional

from ..events import Event
from .base import EventQueue

__all__ = ["LinearQueue"]


class _ReverseKeyed:
    """Wrapper ordering events in *descending* sort-key order for bisect."""

    __slots__ = ("event",)

    def __init__(self, event: Event) -> None:
        self.event = event

    def __lt__(self, other: "_ReverseKeyed") -> bool:
        return other.event.sort_key < self.event.sort_key


class LinearQueue(EventQueue):
    """Time-ordered list: O(n) insert, O(1) delete-min."""

    def __init__(self) -> None:
        super().__init__()
        self._items: list[_ReverseKeyed] = []

    def push(self, event: Event) -> None:
        if event._cancelled:
            self._dead += 1
        else:
            event._on_cancel = self._cancel_cb
        insort_right(self._items, _ReverseKeyed(event))

    def pop_if_le(self, horizon: float) -> Optional[Event]:
        items = self._items
        while items:
            ev = items[-1].event
            if ev._cancelled:
                items.pop()
                self._dead -= 1
                continue
            if ev.time > horizon:
                return None
            items.pop()
            ev._on_cancel = None
            return ev
        return None

    def peek(self) -> Optional[Event]:
        # Purge cancelled tail entries, then read the minimum in place.
        items = self._items
        while items and items[-1].event._cancelled:
            items.pop()
            self._dead -= 1
        return items[-1].event if items else None

    def __len__(self) -> int:
        return len(self._items)

    def _compact(self) -> None:
        # Filtering preserves the descending sort order.
        self._items = [it for it in self._items if not it.event._cancelled]

    def _iter_events(self) -> Iterator[Event]:
        for item in self._items:
            yield item.event
