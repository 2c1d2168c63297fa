"""Conformance + property tests for all six event-list structures.

Every structure must dequeue identical orders on identical inputs — the
binary heap is the reference.  Hypothesis drives randomized schedules
including cancellations and interleaved push/pop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Event, Priority
from repro.core.queues import (QUEUE_FACTORIES, EventQueue, HeapQueue,
                               make_queue)

from .test_queues_fuzz import FUZZ_KINDS, build_queue

ALL_KINDS = sorted(QUEUE_FACTORIES)


def make_events(times, priority=Priority.NORMAL):
    return [Event(t, seq, lambda: None, priority=priority) for seq, t in enumerate(times)]


@pytest.fixture(params=ALL_KINDS)
def kind(request):
    return request.param


class TestBasics:
    def test_empty_pop_returns_none(self, kind):
        assert make_queue(kind).pop() is None

    def test_empty_peek_returns_none(self, kind):
        assert make_queue(kind).peek() is None

    def test_bool_false_when_empty(self, kind):
        assert not make_queue(kind)

    def test_single_roundtrip(self, kind):
        q = make_queue(kind)
        [e] = make_events([3.0])
        q.push(e)
        assert q.peek() is e
        assert q.pop() is e
        assert q.pop() is None

    def test_sorted_output(self, kind):
        q = make_queue(kind)
        times = [5.0, 1.0, 3.0, 2.0, 4.0, 0.5, 9.9, 3.3]
        for e in make_events(times):
            q.push(e)
        out = [q.pop().time for _ in range(len(times))]
        assert out == sorted(times)

    def test_fifo_among_equal_times(self, kind):
        q = make_queue(kind)
        events = make_events([1.0] * 10)
        for e in events:
            q.push(e)
        assert [q.pop().seq for _ in range(10)] == list(range(10))

    def test_priority_orders_within_timestamp(self, kind):
        q = make_queue(kind)
        lo = Event(1.0, 1, lambda: None, priority=Priority.LOW)
        hi = Event(1.0, 2, lambda: None, priority=Priority.URGENT)
        q.push(lo)
        q.push(hi)
        assert q.pop() is hi
        assert q.pop() is lo

    def test_len_counts_records(self, kind):
        q = make_queue(kind)
        for e in make_events([1, 2, 3]):
            q.push(e)
        assert len(q) == 3

    def test_cancelled_events_skipped(self, kind):
        q = make_queue(kind)
        events = make_events([1.0, 2.0, 3.0])
        for e in events:
            q.push(e)
        events[0].cancel()
        events[2].cancel()
        assert q.pop() is events[1]
        assert q.pop() is None

    def test_live_len_excludes_cancelled(self, kind):
        q = make_queue(kind)
        events = make_events([1.0, 2.0, 3.0, 4.0])
        for e in events:
            q.push(e)
        events[1].cancel()
        assert q.live_len() == 3

    def test_peek_skips_cancelled_head(self, kind):
        q = make_queue(kind)
        events = make_events([1.0, 2.0])
        for e in events:
            q.push(e)
        events[0].cancel()
        assert q.peek() is events[1]

    def test_drain_returns_sorted_live(self, kind):
        q = make_queue(kind)
        events = make_events([4.0, 1.0, 3.0, 2.0])
        for e in events:
            q.push(e)
        events[2].cancel()
        assert [e.time for e in q.drain()] == [1.0, 2.0, 4.0]
        assert q.pop() is None

    def test_make_queue_unknown_kind(self):
        with pytest.raises(KeyError, match="unknown event queue"):
            make_queue("fibonacci")


class TestInterleaved:
    def test_push_pop_interleaving(self, kind):
        q = make_queue(kind)
        e1, e2, e3 = make_events([10.0, 20.0, 15.0])
        q.push(e1)
        q.push(e2)
        assert q.pop() is e1
        q.push(e3)
        assert q.pop() is e3
        assert q.pop() is e2

    def test_reinsert_earlier_after_pops(self, kind):
        """Calendar/ladder structures must cope with inserts behind the scan."""
        q = make_queue(kind)
        far = make_events([100.0, 200.0, 300.0])
        for e in far:
            q.push(e)
        assert q.pop() is far[0]
        near = Event(150.0, 99, lambda: None)
        q.push(near)
        assert q.pop() is near
        assert q.pop() is far[1]
        assert q.pop() is far[2]

    def test_large_monotone_burst(self, kind):
        """Hold-model style: pop one, push one slightly later, many times."""
        q = make_queue(kind)
        for e in make_events([float(i) for i in range(64)]):
            q.push(e)
        t_prev = -1.0
        seq = 1000
        for step in range(500):
            e = q.pop()
            assert e.time >= t_prev
            t_prev = e.time
            seq += 1
            q.push(Event(e.time + 17.3, seq, lambda: None))
        assert len(q) == 64


@st.composite
def schedules(draw):
    """A list of operations: (push t) or (pop) or (cancel idx)."""
    n = draw(st.integers(min_value=1, max_value=120))
    ops = []
    for _ in range(n):
        ops.append(draw(st.sampled_from(["push", "push", "push", "pop", "cancel"])))
    times = draw(st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    return list(zip(ops, times))


@settings(max_examples=60, deadline=None)
@given(schedule=schedules(), kind=st.sampled_from([k for k in ALL_KINDS if k != "heap"]))
def test_property_equivalence_with_heap(schedule, kind):
    """Any structure dequeues exactly what the reference heap dequeues."""
    ref = make_queue("heap")
    q = make_queue(kind)
    seq = 0
    pushed = []
    ref_out, out = [], []
    for op, t in schedule:
        if op == "push":
            seq += 1
            a = Event(t, seq, lambda: None)
            b = Event(t, seq, lambda: None)
            pushed.append((a, b))
            ref.push(a)
            q.push(b)
        elif op == "pop":
            ra, rb = ref.pop(), q.pop()
            ref_out.append(None if ra is None else ra.sort_key)
            out.append(None if rb is None else rb.sort_key)
        else:  # cancel a random still-known pair (deterministic: first live)
            for a, b in pushed:
                if not a.cancelled:
                    a.cancel()
                    b.cancel()
                    break
    # Drain both completely.
    while True:
        ra, rb = ref.pop(), q.pop()
        ref_out.append(None if ra is None else ra.sort_key)
        out.append(None if rb is None else rb.sort_key)
        if ra is None and rb is None:
            break
    assert out == ref_out


@settings(max_examples=30, deadline=None)
@given(
    times=st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False,
                             allow_infinity=False), min_size=1, max_size=200),
    kind=st.sampled_from(ALL_KINDS),
)
def test_property_total_order(times, kind):
    """Popping everything yields non-decreasing sort keys."""
    q = make_queue(kind)
    for seq, t in enumerate(times):
        q.push(Event(t, seq, lambda: None))
    prev = None
    for _ in range(len(times)):
        e = q.pop()
        assert e is not None
        if prev is not None:
            assert prev <= e.sort_key
        prev = e.sort_key
    assert q.pop() is None


class TestPopIfLe:
    """Conformance for the fused single-call dispatch operation."""

    def test_empty_returns_none(self, kind):
        assert make_queue(kind).pop_if_le(float("inf")) is None

    def test_returns_events_in_order_up_to_horizon(self, kind):
        q = make_queue(kind)
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        for e in make_events(times):
            q.push(e)
        out = []
        while (ev := q.pop_if_le(3.0)) is not None:
            out.append(ev.time)
        assert out == [1.0, 2.0, 3.0]
        assert q.live_len() == 2  # 4.0 and 5.0 untouched

    def test_beyond_horizon_leaves_queue_untouched(self, kind):
        q = make_queue(kind)
        [e] = make_events([7.0])
        q.push(e)
        assert q.pop_if_le(6.999999) is None
        assert q.peek() is e
        assert q.pop_if_le(7.0) is e

    def test_skips_cancelled_below_horizon(self, kind):
        q = make_queue(kind)
        events = make_events([1.0, 2.0, 3.0])
        for e in events:
            q.push(e)
        events[0].cancel()
        assert q.pop_if_le(2.5) is events[1]
        assert q.pop_if_le(2.5) is None

    def test_cancelled_head_beyond_horizon_not_returned(self, kind):
        q = make_queue(kind)
        events = make_events([1.0, 9.0])
        for e in events:
            q.push(e)
        events[0].cancel()
        assert q.pop_if_le(5.0) is None
        assert q.pop() is events[1]

    def test_matches_peek_pop_protocol(self, kind):
        """pop_if_le(h) == (peek() if time<=h then pop()) on any state."""
        from repro.core.rng import StreamFactory

        stream = StreamFactory(3).stream(f"pil-{kind}")
        a, b = make_queue(kind), make_queue(kind)
        pushed = []
        seq = 0
        for step in range(400):
            r = stream.uniform(0.0, 1.0)
            if r < 0.5:
                seq += 1
                t = stream.uniform(0.0, 100.0)
                ea = Event(t, seq, lambda: None)
                eb = Event(t, seq, lambda: None)
                pushed.append((ea, eb))
                a.push(ea)
                b.push(eb)
            elif r < 0.65 and pushed:
                i = int(stream.uniform(0, len(pushed)))
                ea, eb = pushed[i]
                ea.cancel()
                eb.cancel()
            else:
                h = stream.uniform(0.0, 120.0)
                got = a.pop_if_le(h)
                ref = b.peek()
                expect = b.pop() if ref is not None and ref.time <= h else None
                assert (None if got is None else got.sort_key) \
                    == (None if expect is None else expect.sort_key), f"step {step}"


class TestOneDeleteMin:
    """``pop_if_le`` is the only delete-min a structure implements:
    ``pop()`` is ``pop_if_le(inf)``, and both keep the dead count exact."""

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_pop_equals_pop_if_le_inf(self, kind):
        from repro.core.rng import StreamFactory

        stream = StreamFactory(15).stream(f"one-{kind}")
        a, b = build_queue(kind), build_queue(kind)
        pending = []          # (event in a, its twin in b), live and stored
        seq = 0
        for step in range(600):
            r = stream.uniform(0.0, 1.0)
            if r < 0.5 or not pending:
                seq += 1
                t = stream.uniform(0.0, 100.0)
                pair = (Event(t, seq, lambda: None),
                        Event(t, seq, lambda: None))
                pending.append(pair)
                a.push(pair[0])
                b.push(pair[1])
            elif r < 0.7:
                # half of the cancellations hit the current head
                pending.sort(key=lambda p: p[0].sort_key)
                i = 0 if r < 0.6 else int(stream.uniform(0, len(pending)))
                for ev in pending.pop(i):
                    ev.cancel()
            else:
                got, want = a.pop(), b.pop_if_le(float("inf"))
                assert got.sort_key == want.sort_key, f"step {step}"
                pending.remove((got, want))
            for q in (a, b):
                assert q.live_len() == len(pending), f"step {step}"
                assert q.dead_len == len(q) - len(pending) == sum(
                    ev.cancelled for ev in q._iter_events()), f"step {step}"
        assert [e.sort_key for e in a.drain()] \
            == sorted(p[0].sort_key for p in pending)

    @pytest.mark.parametrize("kind", FUZZ_KINDS)
    def test_popped_event_cancel_hook_is_detached(self, kind):
        # A popped event that kept its hook would, when cancelled later,
        # count a dead record the queue no longer stores.
        q = build_queue(kind)
        events = make_events([float(i) for i in range(8)])
        for ev in events:
            q.push(ev)
        events[0].cancel()
        assert q.dead_len == 1
        got = q.pop()
        assert got is events[1]   # cancelled head purged, not returned
        assert q.dead_len == 0
        got.cancel()
        assert q.dead_len == 0
        assert q.live_len() == 6

    @pytest.mark.parametrize("omitted",
                             ["pop_if_le", "_compact", "_iter_events"])
    def test_structure_missing_a_primitive_cannot_be_built(self, omitted):
        # No silent quadratic default: the three are abstract.
        body = {name: vars(HeapQueue)[name]
                for name in ("push", "pop_if_le", "peek", "__len__",
                             "_compact", "_iter_events") if name != omitted}
        partial = type("Partial", (EventQueue,), body)
        with pytest.raises(TypeError, match=omitted):
            partial()


class TestCancellationHeavy:
    """Mass-cancellation conformance: ordering, counts, and eager purging."""

    def test_mass_cancel_then_drain_order(self, kind):
        q = make_queue(kind)
        events = make_events([float(i) for i in range(500)])
        for e in events:
            q.push(e)
        for e in events[::2]:  # kill every even-timed event
            e.cancel()
        assert q.live_len() == 250
        out = [e.time for e in q.drain()]
        assert out == [float(i) for i in range(1, 500, 2)]
        assert q.live_len() == 0
        assert not q

    def test_live_len_and_bool_track_cancellations(self, kind):
        q = make_queue(kind)
        events = make_events([1.0, 2.0, 3.0, 4.0])
        for e in events:
            q.push(e)
        assert q and q.live_len() == 4
        for e in events:
            e.cancel()
        assert q.live_len() == 0
        assert not q
        assert q.peek() is None and q.pop() is None

    def test_cancel_all_but_last(self, kind):
        q = make_queue(kind)
        events = make_events([float(i) for i in range(200)])
        for e in events:
            q.push(e)
        for e in events[:-1]:
            e.cancel()
        assert q.live_len() == 1
        assert q.peek() is events[-1]
        assert q.pop() is events[-1]
        assert q.pop() is None

    def test_threshold_compaction_purges_dead_records(self, kind):
        q = make_queue(kind)
        events = make_events([float(i) for i in range(300)])
        for e in events:
            q.push(e)
        for e in events[:299]:
            e.cancel()
        # Way past compact_min with dead >= half the records: the structure
        # must have purged (len is the raw slot count).
        assert len(q) < 300
        assert q.dead_len == len(q) - q.live_len()
        assert q.live_len() == 1
        assert q.pop() is events[299]

    def test_interleaved_cancel_push_pop(self, kind):
        """Cancel-churn while the queue keeps serving ordered pops."""
        from repro.core.rng import StreamFactory

        stream = StreamFactory(9).stream(f"churn-{kind}")
        q = make_queue(kind)
        seq = 0
        live = []
        prev_key = None
        for _ in range(150):
            for _ in range(6):
                seq += 1
                ev = Event(stream.uniform(0.0, 1e4), seq, lambda: None)
                q.push(ev)
                live.append(ev)
            # cancel half of what we know about
            for _ in range(3):
                i = int(stream.uniform(0, len(live)))
                live.pop(i).cancel()
            ev = q.pop()
            if ev is not None:
                assert not ev.cancelled
                if ev in live:
                    live.remove(ev)
        assert q.live_len() == len(live)
        drained = q.drain()
        assert all(not e.cancelled for e in drained)
        assert len(drained) == len(live)

    def test_cancel_across_calendar_resize(self):
        """Dead records must not survive a CalendarQueue resize."""
        from repro.core.queues import CalendarQueue

        q = CalendarQueue(initial_buckets=2, initial_width=1.0)
        events = make_events([float(i) for i in range(40)])
        for e in events:
            q.push(e)
        for e in events[:30]:
            e.cancel()
        before = q.nbuckets
        # Push enough new events to cross the resize-up threshold.
        extra = [Event(1000.0 + i, 100 + i, lambda: None) for i in range(200)]
        for e in extra:
            q.push(e)
        assert q.nbuckets > before
        # Cancelled records were dropped by the resize, not re-inserted.
        assert all(not ev.cancelled for ev in q._iter_events())
        out = [e.time for e in q.drain()]
        assert out == [float(i) for i in range(30, 40)] \
            + [1000.0 + i for i in range(200)]

    def test_calendar_peek_purge_applies_resize_down(self):
        """peek() purging cancelled heads shrinks the bucket array too."""
        from repro.core.queues import CalendarQueue

        q = CalendarQueue(initial_buckets=2, initial_width=1.0)
        events = make_events([float(i) for i in range(256)])
        for e in events:
            q.push(e)
        grown = q.nbuckets
        assert grown > 2
        # Cancel nearly everything without popping; stay below the
        # compaction threshold ratio by cancelling in one burst then
        # checking peek's own purge path on a fresh queue.
        for e in events[:-1]:
            e.cancel()
        assert q.peek() is events[-1]
        assert q.nbuckets < grown  # resize-down applied by the purge

    def test_cancel_across_ladder_spawn(self):
        """Mass-cancel survives a LadderQueue top->rung conversion."""
        from repro.core.queues import LadderQueue

        q = LadderQueue()
        # > _THRESHOLD events spread over a range: first pop spawns a rung.
        events = make_events([float(i) % 97 + 0.25 for i in range(400)])
        for e in events:
            q.push(e)
        for e in events[::3]:
            e.cancel()
        survivors = sorted((e.sort_key for e in events if not e.cancelled))
        assert q.live_len() == len(survivors)
        assert q._rungs or q._top or q._bottom
        out = [e.sort_key for e in q.drain()]
        assert out == survivors

    def test_dead_len_exact_through_mixed_ops(self, kind):
        q = make_queue(kind)
        events = make_events([float(i) for i in range(50)])
        for e in events:
            q.push(e)
        assert q.dead_len == 0
        events[0].cancel()
        events[10].cancel()
        assert q.dead_len == 2
        assert q.pop() is events[1]  # purges the dead head
        assert q.dead_len == len(q) - q.live_len()
        q.compact()
        assert q.dead_len == 0
        assert q.live_len() == 47

    def test_pushing_already_cancelled_event_counts_dead(self, kind):
        q = make_queue(kind)
        [e] = make_events([1.0])
        e.cancel()
        q.push(e)
        assert q.live_len() == 0
        assert q.dead_len == 1
        assert not q
        assert q.pop() is None


class TestCalendarInternals:
    def test_resize_grows_buckets(self):
        from repro.core.queues import CalendarQueue

        q = CalendarQueue(initial_buckets=2, initial_width=1.0)
        for seq, t in enumerate(range(100)):
            q.push(Event(float(t), seq, lambda: None))
        assert q.nbuckets > 2

    def test_skew_diagnostic(self):
        from repro.core.queues import CalendarQueue

        q = CalendarQueue()
        for seq in range(50):
            q.push(Event(0.001 * seq, seq, lambda: None))
        assert q.max_bucket_occupancy() >= 1
