"""Process-oriented simulation: "active objects" on top of the event kernel.

MONARC 2 is described by the paper as "built based on a process oriented
approach for discrete event simulation, which is well suited to describe
concurrent running programs ... Threaded objects or 'Active Objects'
(having an execution thread, program counter, stack...) allow a natural way
to map the specific behavior of distributed data processing into the
simulation program."

Instead of OS threads (MONARC's Java mechanism), a :class:`Process` here is
a Python *generator*: the program counter and stack the paper mentions come
for free from the generator frame, and there are no real threads to
schedule.  A *hold* is one kernel event; a spawn, a wake or an interrupt is
an append to the simulator's run queue (``Simulator._ready``), which the
one dispatch loop drains.  This is also the taxonomy's *mapping of
simulation jobs on physical threads* optimization taken to its limit
(thousands of simulated concurrent programs on one OS thread);
:mod:`repro.core.mapping` quantifies the alternatives.

**Order rule.**  A process that becomes runnable (spawned, its waitable
completed, interrupted) runs at the current instant, in the order it became
runnable, as soon as the handler that made it runnable returns and before
any other event, whatever that event's priority — never nested inside the
handler or process segment that caused it.  Resumes draw on
``run(max_events=...)``'s budget and are counted in ``resumes_executed``,
not ``events_executed``.  Only this module appends to the run queue.

A segment that yields a waitable which is *already done* while the run
queue is empty (and the run is not stopped, nor its budget spent) is
continued in the same frame: under the rule above that continuation is
exactly the drain's next step, so it is taken without the append and pop,
and still counted as a resume.  With anything else owed it goes to the back
of the run queue as usual.

A process body ``yield``\\ s what it wants to wait for:

====================  =====================================================
yielded value         meaning
====================  =====================================================
``float | int``       hold (sleep) that many time units
:class:`Signal`       wait until some other entity fires the signal
:class:`Process`      join — resume when that process terminates
:class:`AnyOf`        resume when the first of several waitables completes
:class:`AllOf`        resume when all of several waitables complete
``Waitable``          anything implementing the subscribe protocol
                      (resource request tokens do this)
====================  =====================================================

The value sent back into the generator is the waitable's result (a signal's
payload, a joined process's return value...).  Interrupting a process throws
:class:`~repro.core.errors.InterruptError` at its current wait point.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator, Iterable, Optional

from .engine import Simulator
from .errors import InterruptError, ProcessError
from .events import Event

__all__ = ["Waitable", "Signal", "Process", "AnyOf", "AllOf", "spawn", "timer"]

ProcessBody = Generator[Any, Any, Any]


class Waitable:
    """Subscribe protocol: anything a process may ``yield``.

    Subclasses call :meth:`_complete` exactly once; subscribed processes are
    then resumed with the result.  Late subscribers to an already-completed
    waitable resume immediately — this removes a whole class of races where
    a process checks-then-waits.

    There is no ``__init__``: the state below is class defaults until the
    waitable is first subscribed to or completed.
    """

    #: True on a handle that completed without delivering (an aborted flow,
    #: a transfer out of attempts): whoever is resumed must check it before
    #: treating the result as arrived.
    failed = False
    _done = False
    _result: Any = None
    #: the waiters: ``None``, one callback, or a list of them (most
    #: waitables only ever have one, so that costs no list)
    _callbacks: Any = None

    @property
    def done(self) -> bool:
        """True once the waitable has completed."""
        return self._done

    @property
    def result(self) -> Any:
        """The completion value (None until done)."""
        return self._result

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        if self._done:
            callback(self._result)
            return
        cbs = self._callbacks
        if cbs is None:
            self._callbacks = callback
        elif type(cbs) is list:
            cbs.append(callback)
        else:
            self._callbacks = [cbs, callback]

    def _unsubscribe(self, callback: Callable[[Any], None]) -> None:
        """A waiter stops caring (interrupt, or it lost an AnyOf race)."""
        cbs = self._callbacks
        if type(cbs) is list:
            try:
                cbs.remove(callback)
            except ValueError:
                pass
        elif cbs is not None and cbs == callback:  # bound methods: ==, not is
            self._callbacks = None

    def _complete(self, result: Any = None) -> None:
        if self._done:
            return
        self._done = True
        self._result = result
        cbs = self._callbacks
        if cbs is None:
            return
        self._callbacks = None
        if type(cbs) is list:
            for cb in cbs:
                cb(result)
        else:
            cbs(result)


class Signal(Waitable):
    """A broadcast condition processes can wait on.

    Unlike a plain :class:`Waitable`, a signal can :meth:`fire` repeatedly —
    each firing wakes the *current* waiters with the payload; processes that
    wait afterwards block until the next firing.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.fire_count = 0
        self._callbacks: list[Callable[[Any], None]] = []

    def fire(self, payload: Any = None) -> int:
        """Wake all currently waiting processes; returns how many woke."""
        self.fire_count += 1
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(payload)
        return len(callbacks)

    def _subscribe(self, callback: Callable[[Any], None]) -> None:
        # Signals are level-less: never auto-complete, always queue.
        self._callbacks.append(callback)

    def __repr__(self) -> str:
        return f"<Signal {self.name!r} waiters={len(self._callbacks)}>"


class AnyOf(Waitable):
    """Completes with ``(index, result)`` of the first child to complete."""

    def __init__(self, waitables: Iterable[Waitable]) -> None:
        self.children = list(waitables)
        if not self.children:
            raise ProcessError("AnyOf needs at least one waitable")
        self._child_cbs: list[tuple[Waitable, Callable]] = []
        for i, w in enumerate(self.children):
            cb = self._make_cb(i)
            self._child_cbs.append((w, cb))
            w._subscribe(cb)

    def _make_cb(self, index: int) -> Callable[[Any], None]:
        def cb(result: Any) -> None:
            if not self._done:
                # Detach from the losers so they don't hold dead references.
                for w, other_cb in self._child_cbs:
                    if other_cb is not cb:
                        w._unsubscribe(other_cb)
                self._complete((index, result))
        return cb


class AllOf(Waitable):
    """Completes with the list of all children's results, in child order."""

    def __init__(self, waitables: Iterable[Waitable]) -> None:
        self.children = list(waitables)
        if not self.children:
            raise ProcessError("AllOf needs at least one waitable")
        self._pending = len(self.children)
        self._results: list[Any] = [None] * len(self.children)
        for i, w in enumerate(self.children):
            w._subscribe(self._make_cb(i))

    def _make_cb(self, index: int) -> Callable[[Any], None]:
        def cb(result: Any) -> None:
            self._results[index] = result
            self._pending -= 1
            if self._pending == 0:
                self._complete(list(self._results))
        return cb


class _State(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"
    HOLDING = "holding"
    DONE = "done"
    FAILED = "failed"


# bound once: member access on the enum class costs ~80 ns (CPython 3.11)
_READY, _RUNNING, _WAITING, _HOLDING, _DONE, _FAILED = _State
_FINISHED = (_DONE, _FAILED)


class Process(Waitable):
    """An active object: a generator driven by the event kernel.

    Completes (as a :class:`Waitable`) with the generator's return value, so
    processes can ``yield`` other processes to join them.

    Parameters
    ----------
    sim:
        The owning simulator.
    body:
        A *started generator* or a generator function plus ``args``.
    name:
        Diagnostic label; appears in kernel event labels.
    """

    state = _READY
    error: Optional[BaseException] = None
    _hold_event: Optional[Event] = None
    _waiting_on: Optional[Waitable] = None

    def __init__(self, sim: Simulator, body: Callable[..., ProcessBody] | ProcessBody,
                 *args: Any, name: str = "", **kwargs: Any) -> None:
        self.sim = sim
        gen = body(*args, **kwargs) if callable(body) else body
        if not hasattr(gen, "send"):
            raise ProcessError(f"process body must be a generator, got {type(gen)!r}")
        #: looked up at every step (observers may swap in a timed view)
        self._gen: ProcessBody = gen
        # counted per simulator: the default name is the event label, hence
        # the trace ``kind`` — it must not depend on earlier runs
        sim._processes += 1
        self.name = name or f"process-{sim._processes}"
        self._hold_label = f"hold:{self.name}"
        # first segment owed now: construction never runs model code
        sim._ready.append((self, None, False))
        obs = sim._obs
        if obs is not None:
            obs.on_process(self, "spawn")

    # -- lifecycle --------------------------------------------------------------

    @property
    def alive(self) -> bool:
        """True until the process terminates or fails."""
        return self.state not in _FINISHED

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process at its wait point.

        No-op on a finished process.  A process holding or waiting has its
        timer/subscription torn down now and is resumed by the order rule.
        One that is already runnable (spawned or woken, not yet resumed)
        first runs that segment, then gets the interrupt at its next wait.
        """
        if not self.alive:
            return
        self._disarm()
        self.sim._ready.append((self, cause, True))

    def _disarm(self) -> None:
        """Tear down whatever wait is armed (hold timer or subscription)."""
        if self._hold_event is not None:
            self._hold_event.cancel()
            self._hold_event = None
        if self._waiting_on is not None:
            self._waiting_on._unsubscribe(self._wake)
            self._waiting_on = None

    # -- engine plumbing -----------------------------------------------------------

    def _wake(self, result: Any) -> None:
        """Completion callback of the waitable this process yielded."""
        self._waiting_on = None
        self.sim._ready.append((self, result, False))

    def _step(self, value: Any, is_interrupt: bool) -> None:
        """Run the body from its wait point (run-queue entry or hold event)
        to its next real wait, and install that wait.

        An already-done waitable yielded while nothing else is owed, the run
        is not stopped and its budget not spent is the drain's next step
        (order rule): it is taken here and counted as a resume.  Otherwise
        the wait goes through the run queue, whose drain stops or raises.
        """
        if self.state in _FINISHED:
            return
        if is_interrupt:
            self._disarm()  # a wait armed since interrupt() was called
            resume, value = self._gen.throw, InterruptError(value)
        else:
            self._hold_event = None
            resume = self._gen.send
        self.state = _RUNNING
        sim = self.sim
        while True:
            try:
                yielded = resume(value)
            except (StopIteration, InterruptError) as end:
                # An interrupt the body let escape is a clean termination
                # with the interrupt cause as the result.
                self.state = _DONE
                obs = sim._obs
                if obs is not None:
                    obs.on_process(self, "done")
                self._complete(end.value if isinstance(end, StopIteration)
                               else end.cause)
                return
            except Exception as exc:
                self.state = _FAILED
                self.error = exc
                obs = sim._obs
                if obs is not None:
                    obs.on_process(self, "failed")
                raise ProcessError(f"process {self.name!r} crashed: {exc!r}") from exc
            if isinstance(yielded, (int, float)):
                if yielded < 0:
                    self.state = _FAILED
                    raise ProcessError(
                        f"process {self.name!r} held negative time {yielded}")
                self.state = _HOLDING
                # via the one insert, which the time-driven kernel quantises
                self._hold_event = sim.schedule_at(
                    sim._now + float(yielded), self._step, None, False,
                    label=self._hold_label)
                return
            if not isinstance(yielded, Waitable):
                self.state = _FAILED
                raise ProcessError(f"process {self.name!r} yielded unsupported "
                                   f"{type(yielded).__name__!r}")
            if not (yielded._done and not sim._ready and not sim._stopped
                    and sim.resumes_executed + sim._events_executed < sim._cap):
                # completion appends to the run queue: see the order rule
                self.state = _WAITING
                self._waiting_on = yielded
                yielded._subscribe(self._wake)
                return
            sim.resumes_executed += 1
            resume, value = self._gen.send, yielded._result

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name!r} state={self.state.value}>"


def spawn(sim: Simulator, body: Callable[..., ProcessBody] | ProcessBody,
          *args: Any, name: str = "", **kwargs: Any) -> Process:
    """Convenience constructor: ``spawn(sim, body, ...)`` == ``Process(...)``."""
    return Process(sim, body, *args, name=name, **kwargs)


def timer(sim: Simulator, delay: float, payload: Any = None) -> Waitable:
    """A waitable that completes *delay* time units from now.

    The building block for timeouts: race any operation against a timer
    with :class:`AnyOf` ::

        idx, result = yield AnyOf([transfer_handle, timer(sim, 30.0)])
        if idx == 1:
            ...  # timed out

    (A bare ``yield delay`` sleeps unconditionally; a timer can lose the
    race and be ignored.)
    """
    if delay < 0:
        raise ProcessError(f"timer delay must be >= 0, got {delay}")
    token = Waitable()
    sim.schedule(delay, token._complete, payload, label="timer")
    return token
