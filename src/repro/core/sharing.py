"""Egalitarian processor sharing in virtual time, behind one completion timer.

A time-shared machine's jobs (:mod:`repro.hosts.cpu`) and a flow network's
route classes (:mod:`repro.network.flow`) are served this way: each
:class:`PSClass` keeps one virtual clock and a heap of fixed finish keys,
and a :class:`PSOwner` keeps its classes' head finish times in one heap
under one event.  DESIGN §5m states the clock, timer, due and order rules.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

from .events import Event


class PSClass:
    """Members served at one rate on one virtual clock, and the class's live
    entry in its owner's heap (``None`` while it has no draining head)."""

    __slots__ = ("sim", "rate", "v", "v_at", "members", "entry")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.rate = 0.0            #: each member's service rate; 0 when idle
        self.v = 0.0               #: virtual time: service each member received
        self.v_at = sim.now        #: when ``v`` was last settled
        #: ``(v₀ + size, id, member)`` per keyed member, earliest first
        self.members: list[tuple] = []
        self.entry: Optional[tuple] = None

    def v_now(self) -> float:
        """``v`` settled to now, without storing it."""
        v = self.v
        dt = self.sim.now - self.v_at
        if dt > 0:
            v += self.rate * dt
        return v

    def settle(self) -> None:
        """Advance ``v`` to now at the rate that held since the last settle;
        call before the rate or the membership changes."""
        now = self.sim.now
        dt = now - self.v_at
        if dt > 0:
            self.v += self.rate * dt
        self.v_at = now

    def key(self, member, size: float) -> None:
        """Start serving *member*: it is done once ``v`` has grown by *size*."""
        key = member._key = self.v + size
        heappush(self.members, (key, member.id, member))

    def head(self) -> Optional[tuple]:
        """The earliest live member's entry, stale ones dropped; None when
        no member is keyed."""
        members = self.members
        while members and members[0][2]._key != members[0][0]:
            heappop(members)
        return members[0] if members else None

    def reset(self) -> None:
        """Idle: restart the clock, keep keys small."""
        self.members.clear()
        self.rate = self.v = 0.0


class PSOwner:
    """One heap of class head finish times under one completion event.

    Subclasses define ``_finish(member)``, which takes a due member out of
    its class (already popped from ``members``) and completes it.
    """

    def __init__(self, sim, label: str) -> None:
        self.sim = sim
        #: ``(eta, head id, class)`` per draining class, earliest first
        self._finishers: list[tuple] = []
        self._timer: Optional[Event] = None   #: armed at the heap head's eta
        self._label = label

    def _rekey(self, c: PSClass, keep: bool = False) -> None:
        """Point *c*'s heap entry at its head's finish time at ``c.rate``
        (``v`` settled to now).  With *keep*, an entry whose head is still
        the head stays as it is."""
        head = c.head()
        if head is None or c.rate <= 0.0:
            # rate 0 (a flow capped at 0): idle until a re-rate
            c.entry = None
            return
        key, head_id, _ = head
        entry = c.entry
        if keep and entry is not None and entry[1] == head_id:
            return
        eta = self.sim.now + (key - c.v) / c.rate
        if entry is None or entry[0] != eta or entry[1] != head_id:
            c.entry = entry = (eta, head_id, c)
            heappush(self._finishers, entry)

    def _arm(self) -> None:
        """Point the one timer at the earliest live finish time: drop stale
        heap heads, and move the timer only if that time changed."""
        heap = self._finishers
        while heap and heap[0][2].entry is not heap[0]:
            heappop(heap)
        timer = self._timer
        if heap:
            # a time-driven engine fires the timer at the tick after the
            # head's eta, and a change at that tick re-arms first: the head
            # is then due now, not in the past
            due = max(heap[0][0], self.sim.now)
            if timer is not None:
                if timer.time == due:
                    return
                timer.cancel()
            self._timer = self.sim.schedule_at(due, self._on_timer,
                                               label=self._label)
        elif timer is not None:
            timer.cancel()
            self._timer = None

    def _on_timer(self) -> None:
        """Finish every member due now — the due classes in ``(eta, head
        id)`` order, each one's members in ``(key, id)`` order — then
        re-arm."""
        self._timer = None
        heap = self._finishers
        now = self.sim.now
        while heap and heap[0][0] <= now:
            entry = heappop(heap)
            if entry[2].entry is entry:
                self._drain(entry)
        self._arm()

    def _drain(self, entry: tuple) -> None:
        """Finish the members of *entry*'s class that are due now: those
        whose key ``v`` has reached, or whose finish time is too close for
        the clock to tell from now."""
        c = entry[2]
        c.entry = None
        c.settle()
        head = c.head()
        if head is not None and head[1] == entry[1] and head[0] > c.v:
            # the timer was armed for this head: float noise in ``v`` must
            # not leave it a hair short of its own finish
            c.v = head[0]
        members = c.members
        now = self.sim.now
        v, rate = c.v, c.rate
        while members:
            key, _, m = members[0]
            if m._key != key:
                heappop(members)   # left the class
            elif key <= v or now + (key - v) / rate <= now:
                heappop(members)
                self._finish(m)    # may empty the class: ``members`` too
            else:
                break
