"""The event-driven simulation kernel.

This is the *event-driven DES* of the taxonomy's mechanics axis: simulation
time advances by irregular increments, jumping directly to the next
scheduled event ("more efficient than a time-driven DES since it does not
step through regular time intervals when no event occurs" — benchmarked in
E3 against :mod:`repro.core.timedriven`).

Design points, each mapped to a taxonomy category:

* **engine optimization / event list** — the future-event set is a pluggable
  :class:`~repro.core.queues.base.EventQueue`; pick the structure per run
  (``Simulator(queue="calendar")``).
* **behavior** — the kernel itself is strictly deterministic; stochastic
  models draw from :class:`~repro.core.rng.StreamFactory` streams owned by
  the simulator, so one integer seed pins the whole trajectory.
* **input data** — an attached :class:`~repro.core.trace.TraceRecorder`
  captures the executed event stream, enabling trace-driven replay.
* **one insert** — :meth:`Simulator.schedule` and :meth:`Simulator.schedule_at`
  are one-line calls into :meth:`Simulator._enter`, and an event is
  ``fn(*args)`` (no handler keyword arguments).
* **one dispatch loop** — :meth:`Simulator._fire_until` is the only place
  events are popped and fired and process segments resumed (only holds are
  kernel events); its docstring has the callers, the run-queue rule and
  what observability costs (gated by ``e11_obs_fleet``).
"""

from __future__ import annotations

import math
import sys
from collections import deque
from typing import Any, Callable, Optional

from .errors import SchedulingError, StopSimulation
from .events import Event, Priority
from .queues import EventQueue, make_queue
from .rng import Stream, StreamFactory

__all__ = ["Simulator"]


class Simulator:
    """Sequential event-driven discrete-event simulator.

    Parameters
    ----------
    queue:
        Event-list structure: an :class:`EventQueue` instance or a registry
        name (``"linear" | "heap" | "splay" | "calendar" | "ladder" |
        "adaptive"``).
    seed:
        Root seed for all random streams drawn via :meth:`stream`.
    start_time:
        Initial simulation clock value.

    Examples
    --------
    >>> sim = Simulator(seed=42)
    >>> fired = []
    >>> _ = sim.schedule(5.0, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (5.0, ['hello'])
    """

    def __init__(
        self,
        queue: EventQueue | str = "heap",
        seed: int = 0,
        start_time: float = 0.0,
    ) -> None:
        self._queue: EventQueue = make_queue(queue) if isinstance(queue, str) else queue
        self._now = float(start_time)
        self._seq = 0
        self._running = False
        self._stopped = False
        self._stop_reason = ""
        self._events_executed = 0
        #: process segments resumed so far (context switches; not events)
        self.resumes_executed = 0
        #: ``_events_executed + resumes_executed`` may not reach this during
        #: the current ``_fire_until`` call (its ``max_events`` budget); 0
        #: outside one, so nothing resumes in place between runs
        self._cap = 0
        self._processes = 0  #: processes ever spawned here (default names)
        #: the run queue: ``(process, value, is_interrupt)`` segments owed at
        #: the current instant, FIFO (filled by :mod:`repro.core.process`)
        self._ready: deque = deque()
        self.streams = StreamFactory(seed)
        #: optional hooks called as ``hook(event)`` just before each firing —
        #: used by trace recording and by debugging instrumentation.
        self.pre_event_hooks: list[Callable[[Event], None]] = []
        #: observability binding (:class:`repro.obs.session.ObsBinding`),
        #: installed by ``Observation.attach``.  Null-object protocol: the
        #: engine's only disabled-path cost is ``is None`` checks — one per
        #: ``_enter`` and one per firing.
        self._obs = None

    # -- clock & identity ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Raw future-event count (may include cancelled records)."""
        return len(self._queue)

    @property
    def stop_reason(self) -> str:
        """Why the last run ended ('' if it simply drained the queue)."""
        return self._stop_reason

    def stream(self, name: str) -> Stream:
        """Named independent random stream (see :class:`StreamFactory`)."""
        return self.streams.stream(name)

    # -- scheduling ---------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = Priority.NORMAL, label: str = "") -> Event:
        """Schedule ``fn(*args)`` to run *delay* time units from now.

        Returns the :class:`Event`, whose :meth:`~Event.cancel` method is the
        way to tear down timers.
        """
        return self._enter(self._now + delay, fn, args, priority, label)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = Priority.NORMAL, label: str = "") -> Event:
        """Schedule ``fn(*args)`` at absolute simulation *time* (>= now)."""
        return self._enter(time, fn, args, priority, label)

    def _enter(self, time: float, fn: Callable[..., Any], args: tuple,
               priority: int, label: str) -> Event:
        """The one insert behind :meth:`schedule` and :meth:`schedule_at`:
        check the time, number the event, push it, tell the observer.  All
        positional, so neither entry point re-packs its arguments; the
        time-driven kernel overrides it to quantise both."""
        if not time >= self._now:  # one comparison is also False for NaN
            if math.isnan(time):
                raise SchedulingError("cannot schedule event at NaN time")
            raise SchedulingError(
                f"cannot schedule event in the past (t={time} < now={self._now})"
            )
        self._seq = seq = self._seq + 1
        ev = Event(float(time), seq, fn, args, priority, label)
        self._queue.push(ev)
        obs = self._obs
        if obs is not None:
            obs.on_schedule(ev, self._now)
        return ev

    # -- execution ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Execute events until the queue drains, *until* passes, or stop.

        Parameters
        ----------
        until:
            Inclusive time horizon: events at ``t <= until`` fire; the clock
            is then advanced to *until* itself (so time-average statistics
            cover the full horizon even if the last event fired earlier).
        max_events:
            Safety valve for runaway models; raises after this many firings
            *within this call* (each ``run()`` gets a fresh budget).  Process
            resumes draw on the same budget, so a zero-time loop between
            processes is stopped too.
        """
        budget = sys.maxsize if max_events is None else int(max_events)
        if self._fire_until(math.inf if until is None else until,
                            budget, budget) >= budget:
            raise SchedulingError(
                f"max_events budget of {max_events} exhausted at t={self._now}"
            )
        if until is not None and not self._stopped and self._now < until:
            self._now = until

    def step(self) -> bool:
        """Fire one event and the process segments it made runnable.
        Returns False when no event fired (the queue is empty)."""
        return self._fire_until(math.inf, 1) == 1

    def _fire_until(self, horizon: float, limit: int,
                    budget: int = sys.maxsize) -> int:
        """The dispatch loop: fire events at ``t <= horizon``, at most *limit*.

        Every advancement discipline is a caller of this one method —
        :meth:`run`, :meth:`step` (``limit=1``), the time-driven subclass
        (one call per tick) and the Time Warp executor (``limit=1`` per
        speculative firing).  Each firing touches the event list exactly
        **once**: ``pop_if_le`` fuses delete-min with the horizon check,
        and never returns a cancelled event, so the callback is invoked
        directly rather than through ``Event.fire()``.

        The run queue is drained after each handler returns — inside its
        observed firing, so a woken segment is profiled and traced under
        the event that woke it — and once on entry, for processes made
        runnable outside a run; it is empty on every normal return.
        *limit* counts events only (an event plus the resumes it caused is
        one step); events and resumes together may not reach *budget*.
        That budget is ``_cap`` for the whole call, read by the drain and
        by a segment that continues in place (:mod:`repro.core.process`),
        which is why ``events_executed`` is stored as each event fires.

        Observability is data, not a second loop: the binding's
        ``sample_mask`` picks the firings to time (0 = all, 15 = every
        16th), counted over the simulator's lifetime so the cadence
        survives many short calls.  ``events_executed`` is the one firing
        count: telemetry reads it, and the registry's counter folds it in
        once, on exit (a between-runs statistic, not a mid-event one).

        A call refuses to nest inside a handler and starts un-stopped, so
        afterwards ``_stopped`` says whether *this* call was stopped.
        Returns the number of events it fired.
        """
        if self._running:
            raise SchedulingError("run() is not reentrant")
        self._stopped = False
        self._stop_reason = ""
        pop_if_le = self._queue.pop_if_le
        hooks = self.pre_event_hooks  # aliases the live list
        ready = self._ready
        obs = self._obs
        mask = 0 if obs is None else obs.sample_mask
        first = n = self._events_executed
        last = first + limit
        self._cap = first + self.resumes_executed + budget
        self._running = True
        try:
            if ready and self._now <= horizon:
                self._resume_ready()
            while n < last and not self._stopped:
                ev = pop_if_le(horizon)
                if ev is None:
                    break
                self._now = ev.time
                n += 1
                self._events_executed = n
                if hooks:
                    for hook in hooks:
                        hook(ev)
                if obs is None or n & mask:
                    ev.fn(*ev.args)
                    if ready:
                        self._resume_ready()
                else:
                    t0 = obs.begin_fire(ev)
                    try:
                        ev.fn(*ev.args)
                        if ready:
                            self._resume_ready()
                    finally:
                        obs.end_fire(ev, t0)
        except StopSimulation as sig:
            self._stopped = True
            self._stop_reason = sig.reason or "StopSimulation"
        finally:
            self._running = False
            self._cap = 0
            if obs is not None:
                obs.fold_fired(n - first)
        return n - first

    def _resume_ready(self) -> None:
        """Drain the run queue, FIFO; processes a segment makes runnable join
        the back and run in this drain, never nested.  A stop leaves the
        rest for the next run; so does a spent budget, which raises."""
        ready = self._ready
        # with the events fired so far, resumes may not reach this
        cap = self._cap - self._events_executed
        while ready and not self._stopped:
            if self.resumes_executed >= cap:
                raise SchedulingError("max_events budget exhausted by "
                                      f"process resumes at t={self._now}")
            process, value, is_interrupt = ready.popleft()
            self.resumes_executed += 1
            process._step(value, is_interrupt)

    def stop(self, reason: str = "") -> None:
        """Request the run loop to end after the current event."""
        self._stopped = True
        self._stop_reason = reason or "stop() called"

    def peek_time(self) -> float:
        """Time of the next live event or owed resume, +inf when idle."""
        if self._ready:
            return self._now
        ev = self._queue.peek()
        return ev.time if ev is not None else math.inf

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Simulator t={self._now:.6g} pending={len(self._queue)} "
                f"executed={self._events_executed}>")
