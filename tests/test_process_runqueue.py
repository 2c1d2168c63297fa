"""The process run queue: order rule and seams with the dispatch loop.

Spawns, wakes and interrupts are appends to ``Simulator._ready``; the one
dispatch loop drains it after each handler returns.  The rule pinned here
(stated in ``repro.core.process``): a process that becomes runnable runs at
the current instant, in the order it became runnable, as soon as the handler
that made it runnable returns and before any other event.
"""

import pytest

from repro.core import (
    InterruptError,
    Priority,
    Process,
    ProcessError,
    Resource,
    SchedulingError,
    Signal,
    Simulator,
    StopSimulation,
    TimeDrivenSimulator,
)


def waiter(sim, log, tag, waitable):
    value = yield waitable
    log.append((tag, sim.now, value))


class TestOrderRule:
    def test_one_fire_resumes_in_subscription_order(self):            # (a)
        sim = Simulator()
        sig, log = Signal("go"), []
        for tag in "abcd":
            Process(sim, waiter, sim, log, tag, sig)
        sim.schedule(2.0, sig.fire, "x")
        sim.run()
        assert log == [(t, 2.0, "x") for t in "abcd"]

    def test_one_release_resumes_in_request_order(self):              # (a)
        sim = Simulator()
        res, log = Resource(sim, capacity=3), []
        held = [res.request() for _ in range(3)]

        def release_all():
            for req in held:
                res.release(req)    # three grants from one handler

        def client(tag):
            yield res.request()
            log.append((tag, sim.now))

        sim.schedule(1.0, release_all)
        for tag in "abc":
            Process(sim, client, tag)
        sim.run()
        assert log == [("a", 1.0), ("b", 1.0), ("c", 1.0)]

    def test_woken_process_runs_before_any_other_event(self):         # (b)
        sim = Simulator()
        sig, log = Signal(), []
        Process(sim, waiter, sim, log, "proc", sig)
        # scheduled earlier than the firing, same instant: a NORMAL event
        # and an earlier-sequenced HIGH one.  At the parent commit the wake
        # was a HIGH event sequenced after both "high" and the fire.
        sim.schedule_at(1.0, sig.fire, "v", priority=Priority.URGENT)
        sim.schedule_at(1.0, log.append, "high", priority=Priority.HIGH)
        sim.schedule_at(1.0, log.append, "normal")
        sim.run()
        assert log == [("proc", 1.0, "v"), "high", "normal"]

    def test_resume_is_never_nested_in_what_caused_it(self):
        sim = Simulator()
        sig, log = Signal(), []
        Process(sim, waiter, sim, log, "woken", sig)

        def handler():
            sig.fire(1)
            Process(sim, waiter, sim, log, "spawned", 0.0)
            log.append("handler-end")

        sim.schedule(1.0, handler)
        sim.run()
        assert log[0] == "handler-end"
        assert [e[0] for e in log[1:]] == ["woken", "spawned"]


class TestBetweenRuns:
    def test_spawn_and_fire_between_runs(self):                       # (c)
        sim = Simulator()
        sig, log = Signal(), []
        Process(sim, waiter, sim, log, "w", sig)
        sim.schedule(5.0, log.append, "later")
        sim.run(until=2.0)
        assert sim.peek_time() == 5.0
        sig.fire("between")                     # outside any run
        Process(sim, waiter, sim, log, "s", 0.5)
        assert sim.peek_time() == sim.now == 2.0
        sim.run(until=2.0)
        assert log == [("w", 2.0, "between")]   # "s" started, now holding
        assert sim.peek_time() == 2.5
        assert sim.events_executed == 0 and sim.resumes_executed == 3

    def test_step_reports_events_not_resumes(self):                   # (c)
        sim = Simulator()
        log = []
        Process(sim, waiter, sim, log, "p", 1.0)
        assert sim.step() is True               # spawn resumed, hold fired
        assert log == [("p", 1.0, None)]
        Process(sim, waiter, sim, log, "q", Signal())
        assert sim.step() is False              # q started; no event fired
        assert sim.peek_time() == float("inf")
        assert sim.events_executed == 1


class TestStopMidDrain:                                               # (d)
    def build(self, stop):
        sim = Simulator()
        sig, log = Signal(), []

        def stopper():
            yield sig
            log.append("stopper")
            stop(sim)

        Process(sim, stopper)
        Process(sim, waiter, sim, log, "after", sig)
        sim.schedule(1.0, sig.fire, "v")
        return sim, log

    def check_rest_runs_next_time(self, sim, log):
        assert log == ["stopper"]
        assert sim.peek_time() == sim.now == 1.0
        sim.run()
        assert log == ["stopper", ("after", 1.0, "v")]

    def test_stop_leaves_later_entries_for_the_next_run(self):
        sim, log = self.build(lambda sim: sim.stop("enough"))
        sim.run()
        assert sim.stop_reason == "enough"
        self.check_rest_runs_next_time(sim, log)

    def test_stop_simulation_raised_in_a_segment(self):
        """As at the parent commit, a process body that raises (anything,
        StopSimulation included) has crashed: the run ends with ProcessError.
        The entries behind it stay queued, as their events would have."""
        def bail(sim):
            raise StopSimulation("enough")

        sim, log = self.build(bail)
        with pytest.raises(ProcessError) as err:
            sim.run()
        assert isinstance(err.value.__cause__, StopSimulation)
        self.check_rest_runs_next_time(sim, log)


class TestInterrupt:
    def test_woken_then_interrupted_gets_wake_value_first(self):      # (e)
        sim = Simulator()
        sig, log = Signal(), []

        def body():
            log.append(("got", (yield sig)))
            try:
                yield 10.0
            except InterruptError as exc:
                log.append(("interrupted", sim.now, exc.cause))
            yield 1.0
            log.append(("end", sim.now))

        p = Process(sim, body)

        def handler():
            sig.fire("wake")
            p.interrupt("why")          # p is woken, not yet resumed

        sim.schedule(3.0, handler)
        sim.run()
        # the 10.0 hold armed between wake and interrupt was torn down
        assert log == [("got", "wake"), ("interrupted", 3.0, "why"),
                       ("end", 4.0)]
        assert sim.now == 4.0

    def test_interrupting_a_finished_process_is_a_noop(self):         # (e)
        sim = Simulator()
        p = Process(sim, waiter, sim, [], "p", 1.0)
        sim.run()
        p.interrupt("late")
        assert sim.peek_time() == float("inf")
        sim.run()
        assert not p.alive and p.result is None


def test_zero_time_ping_pong_exhausts_max_events():                   # (f)
    sim = Simulator()
    ping, pong = Signal("ping"), Signal("pong")

    def player(mine, theirs):
        while True:
            yield mine
            theirs.fire()

    Process(sim, player, ping, pong)
    Process(sim, player, pong, ping)
    sim.schedule(1.0, ping.fire)
    with pytest.raises(SchedulingError, match="max_events"):
        sim.run(max_events=10_000)
    assert sim.now == 1.0 and sim.resumes_executed < 10_000
    assert sim.events_executed == 1     # resumes are not kernel events


def test_time_driven_holds_stay_quantised():                          # (g)
    sim = TimeDrivenSimulator(tick=1.0)
    log = []

    def body():
        yield 0.3
        log.append(sim.now)
        yield 1.2
        log.append(sim.now)

    Process(sim, body)
    sim.run()
    assert log == [1.0, 3.0]            # 0.3 -> 1.0; 1.0 + 1.2 -> 3.0


def test_deep_release_grant_chain_does_not_recurse():                 # (h)
    sim = Simulator()
    res, done = Resource(sim), []

    def job(i):
        req = yield res.request()
        res.release(req)                # grants the next one at once
        done.append(i)

    for i in range(5_000):
        Process(sim, job, i)
    sim.run()
    assert done == list(range(5_000))
    assert sim.events_executed == 0 and sim.now == 0.0


class TestDoneWaitResumesInPlace:
    """A segment that yields an already-done waitable while nothing else is
    owed continues in its own frame: that is the drain's next step, so the
    order, the resume count and the ``max_events`` budget are unchanged."""

    @pytest.mark.parametrize("entered_from", ["hold", "drain"])
    def test_spinning_on_a_done_wait_exhausts_max_events(self, entered_from):
        sim = Simulator()
        done = Resource(sim).request()      # granted at once: already done

        def spinner():
            if entered_from == "hold":
                yield 1.0
            while True:
                yield done

        Process(sim, spinner)
        with pytest.raises(SchedulingError, match="max_events"):
            sim.run(max_events=1_000)
        # the spin stops exactly at the budget and its next step stays owed
        assert sim.resumes_executed + sim.events_executed == 1_000
        assert sim.events_executed == (entered_from == "hold")
        assert sim.peek_time() == sim.now

    def test_done_wait_goes_behind_an_already_runnable_process(self):
        sim = Simulator()
        done, log = Resource(sim).request(), []

        def other():
            log.append("other")
            yield 0.0

        def first():
            log.append("first")
            Process(sim, other)             # owed before first's next step
            log.append(("first got", (yield done) is done))

        Process(sim, first)
        sim.run()
        assert log == ["first", "other", ("first got", True)]

    def test_done_wait_with_nothing_owed_beats_same_instant_events(self):
        sim = Simulator()
        done, log = Resource(sim).request(), []

        def body():
            yield 1.0
            sim.schedule(0.0, log.append, "urgent", priority=Priority.URGENT)
            yield done
            log.append("continued")

        Process(sim, body)
        sim.run()
        assert log == ["continued", "urgent"]
        assert sim.resumes_executed == 2 and sim.events_executed == 2

    @pytest.mark.parametrize("entered_from", ["hold", "drain"])
    def test_stop_then_done_wait_leaves_the_continuation(self, entered_from):
        sim = Simulator()
        done, log = Resource(sim).request(), []

        def body():
            if entered_from == "hold":
                yield 1.0
            sim.stop("pause")
            log.append("before")
            yield done
            log.append("after")

        Process(sim, body)
        sim.run()
        assert log == ["before"] and sim.stop_reason == "pause"
        assert sim.peek_time() == sim.now
        resumes = sim.resumes_executed
        sim.run()
        assert log == ["before", "after"]
        assert sim.resumes_executed == resumes + 1

    def test_time_driven_kernel_gives_the_same_stream(self):
        def run(sim):
            res, log = Resource(sim), []

            def client(tag, service):
                req = yield res.request()   # done at once when uncontended
                log.append((tag, "granted", sim.now))
                yield float(service)
                res.release(req)
                return tag

            def joiner(proc):
                yield 10.0
                log.append(("join", (yield proc), sim.now))  # long done

            procs = [Process(sim, client, t, s) for t, s in
                     (("a", 2), ("b", 3), ("c", 1))]
            Process(sim, joiner, procs[0])
            sim.schedule(7.0, lambda: Process(sim, client, "d", 2))
            sim.run()
            return log, sim.resumes_executed, sim.events_executed

        event_driven = run(Simulator())
        assert run(TimeDrivenSimulator(tick=1.0)) == event_driven
        assert event_driven[0][-1] == ("join", "a", 10.0)
