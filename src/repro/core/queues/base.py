"""Pluggable event-list structures.

The ICPP'09 paper singles out the *queuing structure adopted in the design of
the simulation engine for managing the event lists* as a first-order
performance concern: "A system using an O(1) structure for the event list
will behave better than another one using an O(log n) queuing structure",
while also noting that "there is not a single unanimity accepted queuing
structure that performs best" — behaviour depends on the event-time
distribution.  This subpackage makes that claim testable: five structures
with different asymptotics (and :class:`~.adaptive.AdaptiveQueue`, which
migrates between three of them) share one interface, and every engine
accepts any of them.

Dispatch protocol
-----------------
:meth:`EventQueue.pop_if_le` is the one delete-min a structure implements:
"remove and return the earliest live event at or before the horizon, else
leave the queue untouched" — horizon check, cancelled-head purge and removal
in a single pass, one call per firing.  :meth:`EventQueue.pop` is
``pop_if_le(inf)``.  ``peek()`` is guaranteed *non-mutating* with respect to
live events (it may purge cancelled records it walks over).

Cancellation policy
-------------------
All structures implement *lazy deletion with eager purging*:

* :meth:`EventQueue.pop` / :meth:`pop_if_le` silently discard events whose
  :attr:`~repro.core.events.Event.cancelled` flag is set, so cancellation is
  O(1) regardless of structure;
* at push time the queue registers itself on the event's ``_on_cancel``
  hook, maintaining an exact per-queue dead-record counter (``dead_len``);
* once at least :attr:`EventQueue.compact_min` records are dead *and* they
  make up at least half of the stored records, :meth:`EventQueue.compact`
  structurally removes them — so cancellation-heavy models stop paying for
  ghost events in every subsequent sweep, resize, and comparison.

The exact dead counter also makes ``live_len()`` and ``__bool__`` O(1).

Implementations
---------------
============================  ==========================  =======================
class                         insert / delete-min         notes
============================  ==========================  =======================
:class:`~.linear.LinearQueue`    O(n) / O(1)              cautionary baseline
:class:`~.heap.HeapQueue`        O(log n) / O(log n)      robust default
:class:`~.splay.SplayQueue`      amortized O(log n)       exploits access locality
:class:`~.calendar.CalendarQueue`  amortized O(1)         the paper's "O(1)"
:class:`~.ladder.LadderQueue`    amortized O(1)           skew-resistant
============================  ==========================  =======================
"""

from __future__ import annotations

import abc
import math
from typing import Iterator, Optional

from ..events import Event

__all__ = ["EventQueue"]


class EventQueue(abc.ABC):
    """Abstract priority queue over :class:`~repro.core.events.Event`.

    Contract (enforced by the shared conformance suite in
    ``tests/test_queues.py``):

    * :meth:`pop` returns live events in non-decreasing
      :attr:`~repro.core.events.Event.sort_key` order, exactly once each.
    * :meth:`pop_if_le` behaves like :meth:`pop` but returns ``None`` —
      leaving the head in place — when the earliest live event lies beyond
      the horizon.
    * :meth:`peek` never reorders or removes live events (purging cancelled
      records is allowed).
    * Cancelled events are never returned and do not count toward
      :meth:`live_len`.
    * ``len(q)`` may include cancelled-but-unpurged events (it is the raw
      slot count); :meth:`live_len` is exact and O(1).
    """

    #: Dead records required before :meth:`compact` may trigger; compaction
    #: also requires the dead to be at least half of all stored records, so
    #: the amortized cost per cancellation stays O(1).
    compact_min = 64

    def __init__(self) -> None:
        self._dead = 0
        # Bound once: pushed events get this as their cancel hook, so a
        # cancellation costs one attribute read + one call, no dict lookups.
        self._cancel_cb = self._note_cancelled

    # -- structure-specific primitives ---------------------------------------

    @abc.abstractmethod
    def push(self, event: Event) -> None:
        """Insert *event*.

        To keep the dead-record counter exact, count an already-cancelled
        event (``self._dead += 1``) and give a live one this queue's cancel
        hook (``event._on_cancel = self._cancel_cb``).
        """

    @abc.abstractmethod
    def pop_if_le(self, horizon: float) -> Optional[Event]:
        """Remove and return the earliest live event with ``time <= horizon``.

        Returns ``None`` — leaving the queue untouched — when the queue is
        empty or its earliest live event lies beyond *horizon*.  Cancelled
        records met on the way are purged (``_dead`` decremented for each)
        and the returned event's ``_on_cancel`` hook is cleared, so a later
        ``cancel()`` on it cannot reach this queue's dead count.
        """

    @abc.abstractmethod
    def peek(self) -> Optional[Event]:
        """Return (without removing) the earliest live event, or ``None``.

        Must be non-mutating with respect to live events; purging cancelled
        records encountered on the way is allowed (``_dead`` decremented
        for each).
        """

    @abc.abstractmethod
    def __len__(self) -> int:
        """Raw number of stored records (may include cancelled events)."""

    # -- dead-record accounting ----------------------------------------------

    def _note_cancelled(self) -> None:
        """Cancel hook: count the dead record, compacting past threshold."""
        self._dead += 1
        if self._dead >= self.compact_min and self._dead * 2 >= len(self):
            self.compact()

    @property
    def dead_len(self) -> int:
        """Exact count of cancelled records still occupying slots."""
        return self._dead

    def compact(self) -> None:
        """Structurally remove every cancelled record.  O(n)."""
        self._compact()
        self._dead = 0

    @abc.abstractmethod
    def _compact(self) -> None:
        """Drop every cancelled record from the storage, in place."""

    # -- shared behaviour ----------------------------------------------------

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest *live* event, or ``None`` if empty."""
        return self.pop_if_le(math.inf)

    def __bool__(self) -> bool:
        # O(1): raw slots minus exact dead count.
        return len(self) > self._dead

    def live_len(self) -> int:
        """Exact count of live (non-cancelled) events.  O(1)."""
        return len(self) - self._dead

    @abc.abstractmethod
    def _iter_events(self) -> Iterator[Event]:
        """Iterate the stored records, cancelled ones included, in arbitrary
        order and without disturbing them (migration, diagnostics)."""

    def drain(self) -> list[Event]:
        """Remove and return all live events in order (used by trace dump)."""
        out = []
        while True:
            ev = self.pop()
            if ev is None:
                return out
            out.append(ev)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} len={len(self)} dead={self._dead}>"
