"""Trace equivalence: fused single-call dispatch vs. the legacy peek+pop loop.

The kernel's ``run()`` was restructured to touch the event list once per
firing (``pop_if_le``) instead of twice (``peek`` then ``pop``).  That is a
pure protocol change: for a fixed seed the executed event stream — times,
labels, sequence numbers, and the final clock — must be byte-identical to
the old loop's, on every queue structure.  These tests pin that guarantee.
"""

import math

import pytest

from repro.core import Priority, Simulator
from repro.core.errors import SchedulingError, StopSimulation
from repro.core.queues import QUEUE_FACTORIES

ALL_KINDS = sorted(QUEUE_FACTORIES)


class PeekPopReferenceSimulator(Simulator):
    """The pre-change dispatch loop, kept verbatim as the reference."""

    def run(self, until=None, max_events=None):
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self._running = True
        self._stopped = False
        self._stop_reason = ""
        budget = math.inf if max_events is None else int(max_events)
        try:
            while not self._stopped:
                ev = self._queue.peek()
                if ev is None:
                    break
                if until is not None and ev.time > until:
                    break
                popped = self._queue.pop()
                assert popped is ev
                self._now = ev.time
                self._events_executed += 1
                if self.pre_event_hooks:
                    for hook in self.pre_event_hooks:
                        hook(ev)
                try:
                    ev.fire()
                except StopSimulation as sig:
                    self._stopped = True
                    self._stop_reason = sig.reason or "StopSimulation"
                if self._events_executed >= budget:
                    raise SchedulingError(
                        f"max_events budget of {max_events} exhausted at t={self._now}"
                    )
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False


def _run_reference_model(sim_cls, kind, seed=42):
    """A branching model with cancellations, priorities, and ties.

    Returns the executed trace as (time, priority, seq, label) rows captured
    by a pre-event hook — exactly what a TraceRecorder would see.
    """
    sim = sim_cls(queue=kind, seed=seed)
    trace = []
    sim.pre_event_hooks.append(
        lambda ev: trace.append((round(ev.time, 12), ev.priority, ev.seq, ev.label)))
    stream = sim.stream("model")
    timers = []

    def arrival(i):
        if i < 120:
            sim.schedule(stream.exponential(1.0), arrival, i + 1, label=f"arr{i+1}")
        # park a timer and cancel an older one: builds dead records
        timers.append(sim.schedule(50.0 + stream.exponential(5.0), _noop,
                                   label=f"timer{i}"))
        if len(timers) > 3:
            timers.pop(0).cancel()
        if i % 7 == 0:
            # same-timestamp burst across priority bands
            sim.schedule(0.0, _noop, priority=Priority.URGENT, label=f"u{i}")
            sim.schedule(0.0, _noop, priority=Priority.LOW, label=f"l{i}")

    def _noop():
        pass

    sim.schedule(0.0, arrival, 0, label="arr0")
    sim.run(until=40.0)
    sim.run()  # drain the surviving timers in a second run
    return trace, sim.now, sim.events_executed


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fused_dispatch_trace_identical_to_peek_pop(kind):
    """Same seed => identical executed event stream under both protocols."""
    fused = _run_reference_model(Simulator, kind)
    legacy = _run_reference_model(PeekPopReferenceSimulator, kind)
    assert fused == legacy


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_fused_dispatch_trace_identical_across_seeds(kind):
    for seed in (0, 7, 1234):
        assert (_run_reference_model(Simulator, kind, seed)
                == _run_reference_model(PeekPopReferenceSimulator, kind, seed))


def _observed_sim_factory(**obs_kwargs):
    """A Simulator factory that attaches a fresh full Observation."""
    from repro.obs import Observation

    def make(queue="heap", seed=0):
        sim = Simulator(queue=queue, seed=seed)
        Observation(**obs_kwargs).attach(sim, track="ref")
        return sim

    return make


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_traced_stream_identical_to_untraced(kind):
    """Observation on => the fired-event stream is byte-identical.

    The obs subsystem must be a pure observer: spans, profiles, and
    telemetry may not perturb event order, timing, counts, or the clock on
    any queue structure.
    """
    traced = _observed_sim_factory(trace=True, profile=True, telemetry=True)
    assert _run_reference_model(traced, kind) == _run_reference_model(Simulator, kind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_profile_only_stream_identical(kind):
    """Same guarantee with the tracer off (profiler/telemetry only)."""
    profiled = _observed_sim_factory(trace=False, profile=True, telemetry=True)
    assert (_run_reference_model(profiled, kind)
            == _run_reference_model(Simulator, kind))


def _parallel():
    import repro.core.parallel as mod
    return mod


def _run_parallel_reference(executor_factory, observed):
    """A 3-LP relay with fan-out; returns per-LP fired streams + clocks."""
    from repro.core.parallel import LogicalProcess

    lps = [LogicalProcess(f"lp{i}", seed=i) for i in range(3)]
    for i, lp in enumerate(lps):
        lp.connect(lps[(i + 1) % 3], lookahead=0.5)
    if observed:
        from repro.obs import Observation

        Observation(trace=True, profile=True, telemetry=True).attach_lps(lps)
    traces = {lp.name: [] for lp in lps}
    for lp in lps:
        lp.sim.pre_event_hooks.append(
            lambda ev, log=traces[lp.name]: log.append(
                (round(ev.time, 12), ev.priority, ev.seq, ev.label)))

    def on_token(lp, msg):
        if msg.payload < 30:
            nxt = f"lp{(int(lp.name[2:]) + 1) % 3}"
            lp.send(nxt, "token", msg.payload + 1)
        if msg.payload % 4 == 0:  # local work fans out from the dispatch
            lp.sim.schedule(0.25, lambda: None, label=f"work{msg.payload}")

    for lp in lps:
        lp.on_message("token", on_token)
    lps[0].sim.schedule(0.0, lps[0].send, "lp1", "token", 0)
    executor_factory().run(lps, until=40.0)
    clocks = {lp.name: round(lp.sim.now, 12) for lp in lps}
    events = {lp.name: lp.sim.events_executed for lp in lps}
    return traces, clocks, events


@pytest.mark.parametrize("executor_factory", [
    lambda: _parallel().SequentialExecutor(),
    lambda: _parallel().CMBExecutor(),
    lambda: _parallel().WindowExecutor(),
], ids=["sequential", "cmb", "window"])
def test_traced_parallel_stream_identical(executor_factory):
    """Tracing a distributed run leaves every LP's stream untouched."""
    plain = _run_parallel_reference(executor_factory, observed=False)
    traced = _run_parallel_reference(executor_factory, observed=True)
    assert traced == plain


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_pop_if_le_horizon_boundary(kind):
    """Events exactly at the horizon fire; later ones stay queued."""
    sim = Simulator(queue=kind)
    seen = []
    sim.schedule_at(1.0, seen.append, 1)
    sim.schedule_at(2.0, seen.append, 2)
    sim.schedule_at(2.0 + 1e-9, seen.append, 3)
    sim.run(until=2.0)
    assert seen == [1, 2]
    assert sim.pending == 1
    sim.run()
    assert seen == [1, 2, 3]


# -- the thin callers of the one dispatch loop --------------------------------

def _stepping(make):
    """Wrap a simulator factory so that ``run()`` drains through ``step()``."""

    def factory(queue="heap", seed=0):
        sim = make(queue=queue, seed=seed)

        def run(until=None):
            horizon = math.inf if until is None else until
            while sim.peek_time() <= horizon and sim.step():
                pass
            if until is not None and sim.now < until:
                sim._now = until

        sim.run = run
        return sim

    return factory


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "full-obs"])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_step_drain_identical_to_run_drain(kind, observed):
    """step() is run() one event at a time: same trace, clock and count."""
    make = (_observed_sim_factory(trace=True, profile=True, telemetry=True)
            if observed else Simulator)
    assert (_run_reference_model(_stepping(make), kind)
            == _run_reference_model(make, kind)
            == _run_reference_model(PeekPopReferenceSimulator, kind))


def _time_driven(queue="heap", seed=0):
    from repro.core import TimeDrivenSimulator
    return TimeDrivenSimulator(tick=1.0, queue=queue, seed=seed)


@pytest.mark.parametrize("make", [
    Simulator,
    _observed_sim_factory(trace=False, profile=False, telemetry=False,
                          metrics=True),
    _observed_sim_factory(metrics=True, recorder=8),
    _time_driven,
], ids=["plain", "metrics-only", "full-obs", "time-driven"])
def test_max_events_equal_to_pending_still_raises(make):
    """Pinned: the budget check follows the Nth firing, drained or not."""
    sim = make(queue="heap", seed=0)
    fired = []
    for i in range(20):
        sim.schedule_at(float(i), fired.append, i)
    with pytest.raises(SchedulingError, match="budget of 20 exhausted"):
        sim.run(max_events=20)
    assert fired == list(range(20))
    assert sim.events_executed == 20 and sim.now == 19.0 and sim.pending == 0


@pytest.mark.parametrize("stopper", ["stop", "StopSimulation"])
def test_stop_inside_optimistic_run_is_a_configuration_error(stopper):
    from repro.core import ConfigurationError
    from repro.core.optimistic import OptimisticExecutor
    from repro.core.parallel import LogicalProcess

    def bail(sim):
        if stopper == "stop":
            sim.stop("bail")
        else:
            raise StopSimulation("bail")

    a, b = LogicalProcess("A"), LogicalProcess("B")
    a.connect(b, 1.0)
    b.connect(a, 1.0)
    a.sim.schedule(1.0, bail, a.sim)
    with pytest.raises(ConfigurationError, match="'bail'.*rolled back"):
        OptimisticExecutor().run([a, b], until=10.0)
