"""Tests for the process-oriented ("active objects") layer."""

import pytest

from repro.core import (
    AllOf,
    AnyOf,
    Container,
    InterruptError,
    Process,
    ProcessError,
    Signal,
    Simulator,
    Store,
    Waitable,
    spawn,
    timer,
)


class TestHold:
    def test_hold_advances_local_time(self):
        sim = Simulator()
        log = []

        def body():
            log.append(sim.now)
            yield 5.0
            log.append(sim.now)
            yield 2.5
            log.append(sim.now)

        Process(sim, body)
        sim.run()
        assert log == [0.0, 5.0, 7.5]

    def test_zero_hold_allowed(self):
        sim = Simulator()
        done = []

        def body():
            yield 0.0
            done.append(sim.now)

        Process(sim, body)
        sim.run()
        assert done == [0.0]

    def test_negative_hold_rejected(self):
        sim = Simulator()

        def body():
            yield -1.0

        Process(sim, body, name="bad")
        with pytest.raises(ProcessError, match="negative"):
            sim.run()

    def test_bad_yield_type_rejected(self):
        sim = Simulator()

        def body():
            yield "nonsense"

        Process(sim, body)
        with pytest.raises(ProcessError, match="unsupported"):
            sim.run()

    def test_non_generator_body_rejected(self):
        sim = Simulator()
        with pytest.raises(ProcessError, match="generator"):
            Process(sim, lambda: 42)


class TestSignals:
    def test_signal_wakes_waiters_with_payload(self):
        sim = Simulator()
        sig = Signal("go")
        got = []

        def waiter():
            payload = yield sig
            got.append((sim.now, payload))

        Process(sim, waiter)
        Process(sim, waiter)
        sim.schedule(3.0, sig.fire, "payload")
        sim.run()
        assert got == [(3.0, "payload"), (3.0, "payload")]

    def test_fire_returns_waiter_count(self):
        sim = Simulator()
        sig = Signal()

        def waiter():
            yield sig

        Process(sim, waiter)
        counts = []
        sim.schedule(1.0, lambda: counts.append(sig.fire()))
        sim.run()
        assert counts == [1]

    def test_late_waiter_blocks_until_next_fire(self):
        sim = Simulator()
        sig = Signal()
        got = []

        def late():
            yield 5.0  # signal fires at t=1 while we sleep
            yield sig  # must wait for the t=9 firing, not see the old one
            got.append(sim.now)

        Process(sim, late)
        sim.schedule(1.0, sig.fire)
        sim.schedule(9.0, sig.fire)
        sim.run()
        assert got == [9.0]


class TestJoin:
    def test_join_returns_process_result(self):
        sim = Simulator()
        results = []

        def child():
            yield 4.0
            return "child-result"

        def parent():
            c = Process(sim, child)
            r = yield c
            results.append((sim.now, r))

        Process(sim, parent)
        sim.run()
        assert results == [(4.0, "child-result")]

    def test_join_already_finished_process(self):
        sim = Simulator()
        results = []

        def quick():
            yield 1.0
            return 7

        def parent(c):
            yield 10.0  # child long done
            r = yield c
            results.append((sim.now, r))

        c = Process(sim, quick)
        Process(sim, parent, c)
        sim.run()
        assert results == [(10.0, 7)]


class TestCombinators:
    def test_anyof_first_wins(self):
        sim = Simulator()
        got = []

        def sleeper(d):
            yield d
            return d

        def racer():
            a = Process(sim, sleeper, 10.0)
            b = Process(sim, sleeper, 3.0)
            idx, result = yield AnyOf([a, b])
            got.append((sim.now, idx, result))

        Process(sim, racer)
        sim.run()
        assert got == [(3.0, 1, 3.0)]

    def test_allof_waits_for_slowest(self):
        sim = Simulator()
        got = []

        def sleeper(d):
            yield d
            return d

        def gatherer():
            procs = [Process(sim, sleeper, d) for d in (5.0, 2.0, 8.0)]
            results = yield AllOf(procs)
            got.append((sim.now, results))

        Process(sim, gatherer)
        sim.run()
        assert got == [(8.0, [5.0, 2.0, 8.0])]

    def test_empty_combinators_rejected(self):
        with pytest.raises(ProcessError):
            AnyOf([])
        with pytest.raises(ProcessError):
            AllOf([])


class TestInterrupt:
    def test_interrupt_during_hold(self):
        sim = Simulator()
        log = []

        def victim():
            try:
                yield 100.0
                log.append("finished")
            except InterruptError as exc:
                log.append((sim.now, exc.cause))

        v = Process(sim, victim)
        sim.schedule(5.0, v.interrupt, "preempt")
        sim.run()
        assert log == [(5.0, "preempt")]
        assert sim.now == 5.0

    def test_interrupt_during_signal_wait(self):
        sim = Simulator()
        sig = Signal()
        log = []

        def victim():
            try:
                yield sig
            except InterruptError:
                log.append("interrupted")
                return
            log.append("woke")

        v = Process(sim, victim)
        sim.schedule(2.0, v.interrupt)
        sim.schedule(5.0, sig.fire)  # late fire must NOT resume the victim
        sim.run()
        assert log == ["interrupted"]

    def test_interrupt_finished_process_noop(self):
        sim = Simulator()

        def body():
            yield 1.0

        p = Process(sim, body)
        sim.run()
        p.interrupt("too late")  # must not raise
        sim.run()
        assert not p.alive

    def test_unhandled_interrupt_completes_with_cause(self):
        sim = Simulator()

        def victim():
            yield 100.0

        v = Process(sim, victim)
        sim.schedule(1.0, v.interrupt, "cause-x")
        sim.run()
        assert v.done and v.result == "cause-x"


class TestLifecycle:
    def test_process_crash_raises_processerror(self):
        sim = Simulator()

        def bad():
            yield 1.0
            raise ValueError("boom")

        Process(sim, bad, name="crasher")
        with pytest.raises(ProcessError, match="crasher"):
            sim.run()

    def test_spawn_helper(self):
        sim = Simulator()
        done = []

        def body():
            yield 1.0
            done.append(True)

        p = spawn(sim, body, name="helper")
        sim.run()
        assert done == [True] and p.name == "helper"

    def test_generator_instance_accepted(self):
        sim = Simulator()
        log = []

        def body(tag):
            yield 2.0
            log.append(tag)

        Process(sim, body("pre-built-gen-fn-call")((), ) if False else body("x"))
        sim.run()
        assert log == ["x"]

    def test_result_available_after_completion(self):
        sim = Simulator()

        def body():
            yield 1.0
            return 99

        p = Process(sim, body)
        sim.run()
        assert p.done and p.result == 99

    def test_many_processes_interleave_deterministically(self):
        def run():
            sim = Simulator(seed=3)
            log = []

            def worker(i):
                stream = sim.stream(f"w{i}")
                for _ in range(5):
                    yield stream.exponential(1.0)
                    log.append((round(sim.now, 10), i))

            for i in range(10):
                Process(sim, worker, i)
            sim.run()
            return log

        assert run() == run()


class TestTimer:
    def test_timer_completes_at_delay(self):
        from repro.core import timer

        sim = Simulator()
        got = []

        def body():
            t = timer(sim, 4.0, payload="ding")
            result = yield t
            got.append((sim.now, result))

        Process(sim, body)
        sim.run()
        assert got == [(4.0, "ding")]

    def test_timeout_race_slow_operation(self):
        from repro.core import timer

        sim = Simulator()
        outcome = []

        def slow():
            yield 100.0
            return "done"

        def guarded():
            op = Process(sim, slow)
            idx, result = yield AnyOf([op, timer(sim, 10.0)])
            outcome.append(("timeout" if idx == 1 else "completed", sim.now))

        Process(sim, guarded)
        sim.run()
        assert outcome == [("timeout", 10.0)]

    def test_fast_operation_beats_timer(self):
        from repro.core import timer

        sim = Simulator()
        outcome = []

        def fast():
            yield 1.0
            return "done"

        def guarded():
            op = Process(sim, fast)
            idx, result = yield AnyOf([op, timer(sim, 10.0)])
            outcome.append((idx, result, sim.now))

        Process(sim, guarded)
        sim.run()
        assert outcome == [(0, "done", 1.0)]

    def test_negative_delay_rejected(self):
        from repro.core import timer

        with pytest.raises(ProcessError):
            timer(Simulator(), -1.0)

    def test_zero_delay_timer(self):
        from repro.core import timer

        sim = Simulator()
        t = timer(sim, 0.0)
        sim.run()
        assert t.done


class TestWaiterSlot:
    """A waitable keeps its waiters as ``None``, one callback or a list."""

    def test_unsubscribe_with_zero_one_and_two_waiters(self):
        none, one = Waitable(), Waitable()
        got = []
        none._unsubscribe(got.append)           # nobody waiting: a no-op
        one._subscribe(got.append)
        one._unsubscribe(got.append)            # a fresh bound method: ==
        one._complete("x")
        assert got == [] and one._callbacks is None
        two, a, b = Waitable(), [], []
        two._subscribe(a.append)
        two._subscribe(b.append)
        two._unsubscribe(a.append)
        two._unsubscribe(a.append)              # already gone: a no-op
        two._complete("y")
        assert (a, b) == ([], ["y"])

    def test_waiters_run_once_in_subscription_order(self):
        w, log = Waitable(), []
        for tag in "abc":
            w._subscribe(lambda r, t=tag: log.append((t, r)))
        w._complete(1)
        w._complete(2)                          # completes once only
        w._subscribe(lambda r: log.append(("late", r)))   # runs at once
        assert log == [("a", 1), ("b", 1), ("c", 1), ("late", 1)]

    def test_anyof_losers_hold_no_callback(self):
        sim = Simulator()
        fast, slow, sig = timer(sim, 1.0, "fast"), timer(sim, 5.0), Signal()
        race = AnyOf([fast, slow, sig])
        sim.run(until=2.0)
        assert race.result == (0, "fast")
        assert slow._callbacks is None and sig._callbacks == []

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_signal_fire_returns_and_repr_counts_waiters(self, n):
        sim = Simulator()
        sig, got = Signal("go"), []

        def waiter():
            got.append((yield sig))

        for _ in range(n):
            Process(sim, waiter)
        sim.run()                               # every waiter blocks on sig
        assert repr(sig) == f"<Signal 'go' waiters={n}>"
        assert sig.fire("v") == n
        assert repr(sig) == "<Signal 'go' waiters=0>"
        sim.run()
        assert got == ["v"] * n

    def test_store_container_and_timer_tokens_complete(self):
        sim = Simulator()
        store, tank = Store(sim), Container(sim, capacity=10.0)
        got, put = store.get(), store.put("item")
        take, add = tank.take(4.0), tank.add(5.0)
        tick = timer(sim, 2.0, payload="t")
        assert put.done and got.result == "item"
        assert add.result == 5.0 and take.result == 1.0 and tank.level == 1.0
        assert not tick.done
        sim.run()
        assert tick.done and tick.result == "t" and sim.now == 2.0
