"""Unit tests for the event-driven kernel."""

import functools
import math
import random

import pytest

from repro.core import (
    Event,
    Priority,
    SchedulingError,
    Simulator,
    StopSimulation,
)
from repro.core.queues import QUEUE_FACTORIES


class TestScheduling:
    def test_relative_schedule_fires_at_offset(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_absolute_schedule(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError, match="in the past"):
            sim.schedule_at(1.0, lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingError, match="NaN"):
            sim.schedule_at(float("nan"), lambda: None)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: (order.append("a"), sim.schedule(0.0, lambda: order.append("b"))))
        sim.schedule(1.0, lambda: order.append("c"))
        sim.run()
        # zero-delay event scheduled during t=1 runs after the other t=1 event
        assert order == ["a", "c", "b"]

    def test_kwargs_passed(self):
        """An event is ``fn(*args)``: positional args reach the handler, and
        a handler keyword argument to ``schedule`` is refused, not stored."""
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda *a: got.append(a), 9, "x")
        sim.schedule_at(2.0, functools.partial(got.append, "bound"))
        sim.run()
        assert got == [(9, "x"), "bound"]
        with pytest.raises(TypeError):
            sim.schedule(1.0, lambda **kw: None, value=9)
        with pytest.raises(TypeError):
            sim.schedule_at(5.0, lambda **kw: None, value=9)
        assert sim.pending == 0

    def test_events_without_kwargs_share_one_dict_that_stays_empty(self):
        """There is no kwargs dict left to share: an ``Event`` has no
        ``kwargs`` field, and it holds the args tuple it was given."""
        sim = Simulator()
        a = sim.schedule(1.0, lambda: None)
        b = sim.schedule(2.0, lambda *args: None, 7)
        assert not hasattr(a, "kwargs") and "kwargs" not in Event.__slots__
        assert a.args == () and b.args == (7,)
        sim.run()
        assert sim.events_executed == 2

    def test_cancel_prevents_firing(self):
        sim = Simulator()
        seen = []
        ev = sim.schedule(1.0, lambda: seen.append("x"))
        ev.cancel()
        sim.run()
        assert seen == []
        assert sim.events_executed == 0


class TestRunSemantics:
    def test_run_until_inclusive_and_clock_advance(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.0, lambda: seen.append(2))
        sim.schedule(5.0, lambda: seen.append(5))
        sim.run(until=3.5)
        assert seen == [2]
        assert sim.now == 3.5  # clock pinned to the horizon
        sim.run()
        assert seen == [2, 5]

    def test_event_at_exact_horizon_fires(self):
        sim = Simulator()
        seen = []
        sim.schedule(4.0, lambda: seen.append(1))
        sim.run(until=4.0)
        assert seen == [1]

    def test_stop_simulation_exception(self):
        sim = Simulator()
        seen = []

        def bomb():
            raise StopSimulation("enough")

        sim.schedule(1.0, seen.append, 1)
        sim.schedule(2.0, bomb)
        sim.schedule(3.0, seen.append, 3)
        sim.run()
        assert seen == [1]
        assert sim.stop_reason == "enough"

    def test_stop_method(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.stop("manual"))
        sim.schedule(2.0, seen.append, 2)
        sim.run()
        assert seen == []
        assert sim.stop_reason == "manual"
        # a fresh run resumes from the remaining queue
        sim.run()
        assert seen == [2]

    def test_max_events_budget(self):
        sim = Simulator()

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SchedulingError, match="budget"):
            sim.run(max_events=100)

    def test_max_events_budget_is_per_run(self):
        """The budget counts firings of *this* run() call, not the lifetime
        total — a second run after N earlier firings must not raise at once."""
        sim = Simulator()
        for i in range(10):
            sim.schedule_at(float(i), lambda: None)
        sim.run(max_events=100)
        assert sim.events_executed == 10
        for i in range(10, 15):
            sim.schedule_at(float(i), lambda: None)
        # 15 cumulative firings > 12, but this run only fires 5: no raise.
        sim.run(max_events=12)
        assert sim.events_executed == 15

        def loop():
            sim.schedule(1.0, loop)

        sim.schedule(1.0, loop)
        with pytest.raises(SchedulingError, match="budget"):
            sim.run(max_events=3)
        # exactly the budgeted number fired in the raising run
        assert sim.events_executed == 18

    def test_run_not_reentrant(self):
        sim = Simulator()
        captured = []

        def inner():
            try:
                sim.run()
            except SchedulingError as exc:
                captured.append(str(exc))

        sim.schedule(1.0, inner)
        sim.run()
        assert captured and "reentrant" in captured[0]

    def test_step_single_event(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(2.0, seen.append, "b")
        assert sim.step() and seen == ["a"]
        assert sim.step() and seen == ["a", "b"]
        assert not sim.step()

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() == float("inf")
        sim.schedule(3.0, lambda: None)
        assert sim.peek_time() == 3.0

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_executed == 5


class TestDeterminism:
    @pytest.mark.parametrize("kind", sorted(QUEUE_FACTORIES))
    def test_same_trajectory_across_queue_kinds(self, kind):
        """The event-list structure must never change model results."""

        def run(kind):
            sim = Simulator(queue=kind, seed=7)
            log = []
            stream = sim.stream("arrivals")

            def arrival(i):
                log.append((round(sim.now, 9), i))
                if i < 50:
                    sim.schedule(stream.exponential(2.0), arrival, i + 1)

            sim.schedule(0.0, arrival, 0)
            sim.run()
            return log

        assert run(kind) == run("heap")

    def test_same_seed_same_draws(self):
        a = Simulator(seed=123).stream("x").exponential(1.0)
        b = Simulator(seed=123).stream("x").exponential(1.0)
        assert a == b

    def test_different_seed_differs(self):
        a = Simulator(seed=1).stream("x").exponential(1.0)
        b = Simulator(seed=2).stream("x").exponential(1.0)
        assert a != b

    def test_priority_order_at_same_instant(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=Priority.LOW)
        sim.schedule(1.0, lambda: order.append("urgent"), priority=Priority.URGENT)
        sim.schedule(1.0, lambda: order.append("normal"))
        sim.run()
        assert order == ["urgent", "normal", "low"]


class TestHooks:
    def test_pre_event_hook_sees_events(self):
        sim = Simulator()
        labels = []
        sim.pre_event_hooks.append(lambda ev: labels.append(ev.label))
        sim.schedule(1.0, lambda: None, label="one")
        sim.schedule(2.0, lambda: None, label="two")
        sim.run()
        assert labels == ["one", "two"]


def _noop():
    pass


class TestEventPath:
    """The one insert (``Simulator._enter``) behind both public entry
    points: what it checks, what it stores and whom it tells."""

    def test_bad_times_raise_the_same_messages_from_both_entry_points(self):
        sim = Simulator()
        sim.run(until=2.0)
        with pytest.raises(SchedulingError) as err:
            sim.schedule(-0.5, _noop)
        assert str(err.value) == \
            "cannot schedule event in the past (t=1.5 < now=2.0)"
        with pytest.raises(SchedulingError) as err:
            sim.schedule_at(1.0, _noop)
        assert str(err.value) == \
            "cannot schedule event in the past (t=1.0 < now=2.0)"
        for call in (sim.schedule, sim.schedule_at):
            with pytest.raises(SchedulingError) as err:
                call(math.nan, _noop)
            assert str(err.value) == "cannot schedule event at NaN time"
        assert sim.pending == 0 and sim._seq == 0

    def test_on_schedule_fires_once_per_event_from_both_entry_points(self):
        from repro.obs import Observation

        obs = Observation(profile=False, telemetry=False)
        sim = Simulator()
        obs.attach(sim, track="t")
        sim.schedule(1.0, _noop)
        sim.schedule_at(2.0, _noop, priority=Priority.LOW)
        sim.schedule(0.0, lambda: sim.schedule_at(3.0, _noop))
        assert len(obs.tracer.spans) == 3
        sim.run()
        assert len(obs.tracer.spans) == 4
        assert [sp.seq for sp in obs.tracer.spans] == [1, 2, 3, 4]

    def test_event_time_is_float_after_an_int_clock(self):
        sim = Simulator()
        sim.run(until=10)
        assert type(sim.now) is int
        ev = sim.schedule(1, _noop)
        assert type(ev.time) is float and ev.time == 11.0
        assert type(sim.schedule_at(12, _noop).time) is float

    def test_priority_is_stored_as_a_plain_int(self):
        sim = Simulator()
        low = sim.schedule(1.0, _noop, priority=Priority.LOW)
        assert type(low.priority) is int and low.priority == 30
        assert type(sim.schedule(1.0, _noop).priority) is int
        assert low.sort_key == (1.0, 30, 1)

    def test_heap_dead_count_matches_a_recount_through_compaction(self):
        sim = Simulator(queue="heap")
        q = sim._queue
        rng = random.Random(7)
        live, compactions = [], 0
        for _ in range(3000):
            live.append(sim.schedule(rng.uniform(0.0, 50.0), _noop))
            if rng.random() < 0.2:
                sim.step()
            if live and rng.random() < 0.8:
                before = len(q)
                live.pop(rng.randrange(len(live))).cancel()
                compactions += len(q) < before
            assert q.dead_len == sum(e.cancelled for e in q._iter_events())
        assert compactions >= 2
        sim.run()
        assert q.dead_len == 0 and len(q) == 0
