"""Unit tests for event records: ordering, cancellation, firing."""

import pytest

from repro.core import Event, EventCancelledError, Priority


def ev(time, seq=0, priority=Priority.NORMAL, fn=lambda: None):
    return Event(time, seq, fn, priority=priority)


class TestOrdering:
    def test_earlier_time_sorts_first(self):
        assert ev(1.0, seq=5) < ev(2.0, seq=1)

    def test_priority_breaks_time_ties(self):
        assert ev(1.0, seq=5, priority=Priority.URGENT) < ev(1.0, seq=1, priority=Priority.NORMAL)

    def test_seq_breaks_full_ties(self):
        assert ev(1.0, seq=1) < ev(1.0, seq=2)

    def test_sort_key_shape(self):
        e = ev(3.5, seq=7, priority=Priority.HIGH)
        assert e.sort_key == (3.5, Priority.HIGH, 7)

    def test_le_consistent_with_lt(self):
        a, b = ev(1.0, seq=1), ev(1.0, seq=1)
        # distinct objects, equal keys: le holds both ways, lt neither
        assert a <= b and b <= a
        assert not (a < b) and not (b < a)

    def test_identity_equality(self):
        a, b = ev(1.0), ev(1.0)
        assert a == a and a != b
        assert len({a, b}) == 2


class TestLifecycle:
    def test_fire_invokes_callback_with_args(self):
        got = []
        e = Event(0.0, 0, lambda *a: got.append(a), ("x", 1))
        e.fire()
        assert got == [("x", 1)]
        # the fourth positional field is the priority: no kwargs slot between
        e = Event(0.0, 0, lambda: None, (), Priority.LOW, "tag")
        assert (e.priority, e.label) == (Priority.LOW, "tag")
        assert not hasattr(e, "kwargs")

    def test_fire_returns_callback_result(self):
        assert Event(0.0, 0, lambda: 42).fire() == 42

    def test_cancel_is_idempotent(self):
        e = ev(1.0)
        e.cancel()
        e.cancel()
        assert e.cancelled

    def test_fire_after_cancel_raises(self):
        e = ev(1.0)
        e.cancel()
        with pytest.raises(EventCancelledError):
            e.fire()

    def test_priority_bands_ordered(self):
        assert Priority.URGENT < Priority.HIGH < Priority.NORMAL < Priority.LOW < Priority.FINALIZE
