"""Tests for the time-driven (fixed-increment) engine."""

import pytest

from repro.core import SchedulingError, Simulator, TimeDrivenSimulator


class TestQuantization:
    def test_events_fire_on_tick_boundaries(self):
        sim = TimeDrivenSimulator(tick=1.0)
        fired = []
        sim.schedule_at(2.3, lambda: fired.append(sim.now))
        sim.schedule_at(2.7, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0, 3.0]

    def test_exact_boundary_not_pushed_up(self):
        sim = TimeDrivenSimulator(tick=0.5)
        fired = []
        sim.schedule_at(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_order_preserved_within_tick(self):
        sim = TimeDrivenSimulator(tick=10.0)
        order = []
        sim.schedule_at(1.0, lambda: order.append("first"))
        sim.schedule_at(2.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]  # same tick, FIFO by seq

    def test_bad_tick_rejected(self):
        with pytest.raises(SchedulingError):
            TimeDrivenSimulator(tick=0.0)
        with pytest.raises(SchedulingError):
            TimeDrivenSimulator(tick=-1.0)


class TestStepping:
    def test_ticks_stepped_counts_empty_ticks(self):
        sim = TimeDrivenSimulator(tick=1.0)
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        # visits t=0..10 inclusive
        assert sim.ticks_stepped == 11

    def test_event_driven_skips_where_time_driven_steps(self):
        """The paper's E3 claim in miniature."""
        td = TimeDrivenSimulator(tick=1.0)
        ed = Simulator()
        for s in (td, ed):
            s.schedule_at(1000.0, lambda: None)
        td.run()
        ed.run()
        assert ed.events_executed == 1
        assert td.ticks_stepped == 1001  # stepped through empty time

    def test_model_extends_its_own_horizon(self):
        sim = TimeDrivenSimulator(tick=1.0)
        fired = []

        def chain(i):
            fired.append(sim.now)
            if i < 3:
                sim.schedule(5.0, chain, i + 1)

        sim.schedule_at(0.0, chain, 0)
        sim.run()
        assert fired == [0.0, 5.0, 10.0, 15.0]

    def test_run_until_caps_horizon(self):
        sim = TimeDrivenSimulator(tick=1.0)
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(3))
        sim.schedule_at(30.0, lambda: fired.append(30))
        sim.run(until=5.0)
        assert fired == [3]
        assert sim.now == 5.0

    def test_empty_run_returns_immediately(self):
        sim = TimeDrivenSimulator(tick=1.0)
        sim.run()
        assert sim.ticks_stepped == 0 and sim.now == 0.0

    def test_stop_inside_tick(self):
        sim = TimeDrivenSimulator(tick=1.0)
        fired = []
        sim.schedule_at(2.0, lambda: sim.stop("halt"))
        sim.schedule_at(3.0, lambda: fired.append(3))
        sim.run()
        assert fired == [] and sim.stop_reason == "halt"

    def test_stop_takes_effect_before_next_event_of_same_tick(self):
        sim = TimeDrivenSimulator(tick=1.0)
        fired = []
        sim.schedule_at(2.0, lambda: sim.stop("halt"))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [] and sim.stop_reason == "halt" and sim.pending == 1

    def test_run_from_a_handler_is_rejected(self):
        sim = TimeDrivenSimulator(tick=1.0)
        sim.schedule_at(1.0, sim.run)
        sim.schedule_at(2.0, lambda: None)
        with pytest.raises(SchedulingError, match="not reentrant"):
            sim.run()


class TestScheduleValidation:
    def test_past_time_rejected_not_clamped(self):
        sim = TimeDrivenSimulator(tick=1.0)
        sim.run(until=5.0)
        with pytest.raises(SchedulingError, match="in the past"):
            sim.schedule_at(2.0, lambda: None)
        assert sim.pending == 0

    def test_time_within_slop_of_now_lands_on_now(self):
        sim = TimeDrivenSimulator(tick=1.0)
        sim.run(until=5.0)
        assert sim.schedule_at(5.0 - 1e-13, lambda: None).time == 5.0

    def test_nan_rejected_like_the_base_class(self):
        sim = TimeDrivenSimulator(tick=1.0)
        with pytest.raises(SchedulingError, match="NaN"):
            sim.schedule_at(float("nan"), lambda: None)


class TestEquivalence:
    def test_same_model_same_aggregate_results(self):
        """With tick << inter-event gap, both engines agree on statistics."""

        def mm1(sim_cls, **kw):
            sim = sim_cls(seed=9, **kw)
            arr = sim.stream("arr")
            svc = sim.stream("svc")
            waiting = []
            busy = [False]
            done = []

            def depart(started):
                done.append(sim.now - started)
                busy[0] = False
                if waiting:
                    start(waiting.pop(0))

            def start(arrived_at):
                busy[0] = True
                sim.schedule(svc.exponential(0.5), depart, arrived_at)

            def arrive(n):
                if busy[0]:
                    waiting.append(sim.now)
                else:
                    start(sim.now)
                if n < 200:
                    sim.schedule(arr.exponential(1.0), arrive, n + 1)

            sim.schedule(0.0, arrive, 0)
            sim.run()
            return len(done)

        n_ed = mm1(Simulator)
        n_td = mm1(TimeDrivenSimulator, tick=0.001)
        # both complete every job that started service
        assert abs(n_ed - n_td) <= 2


class TestOneInsert:
    """Both public entry points reach the quantising insert, ``_enter``."""

    def test_schedule_and_schedule_at_both_quantise(self):
        sim = TimeDrivenSimulator(tick=1.0)
        assert sim.schedule(2.3, lambda: None).time == 3.0
        assert sim.schedule_at(2.7, lambda: None).time == 3.0
        sim.run(until=5.0)
        assert sim.schedule(0.25, lambda: None).time == 6.0
        assert sim.schedule_at(6.5, lambda: None).time == 7.0

    def test_schedule_extends_the_automatic_horizon(self):
        sim = TimeDrivenSimulator(tick=1.0)
        fired = []
        sim.schedule(7.2, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [8.0] and sim.ticks_stepped == 9

    def test_bad_times_raise_the_base_messages_from_both_entry_points(self):
        sim = TimeDrivenSimulator(tick=1.0)
        sim.run(until=5.0)
        with pytest.raises(SchedulingError,
                           match=r"in the past \(t=3\.0 < now=5\.0\)"):
            sim.schedule(-2.0, lambda: None)
        for call in (sim.schedule, sim.schedule_at):
            with pytest.raises(SchedulingError, match="NaN"):
                call(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_no_entry_point_of_its_own(self):
        assert "schedule" not in vars(TimeDrivenSimulator)
        assert "schedule_at" not in vars(TimeDrivenSimulator)
