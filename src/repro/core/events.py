"""Event records for the discrete-event kernel.

An :class:`Event` is an immutable-ish record of *when* something happens and
*what* to do about it — ``fn(*args)``, nothing more.  Ordering is total and
deterministic:

1. simulation ``time`` (earlier first),
2. ``priority`` (numerically smaller first — :data:`Priority.URGENT` beats
   :data:`Priority.NORMAL` at the same timestamp),
3. insertion sequence number (FIFO among exact ties).

The deterministic tiebreak is what makes every engine run reproducible: two
runs with the same seed produce byte-identical event streams (taxonomy axis
*behavior = deterministic/probabilistic* — determinism is a kernel guarantee,
randomness enters only through :mod:`repro.core.rng` streams).

Cancellation is *lazy with eager purging*: :meth:`Event.cancel` flags the
record and every queue implementation discards flagged events at pop time,
giving O(1) cancel on every structure.  To stop dead records from occupying
queue slots until their timestamp comes up, the owning queue registers a
cancel hook (``_on_cancel``) at push time; the hook maintains a per-queue
dead-record counter that triggers threshold compaction (see
:meth:`repro.core.queues.base.EventQueue.compact`).
"""

from __future__ import annotations

from typing import Any, Callable

from .errors import EventCancelledError

__all__ = ["Priority", "Event"]


class Priority:
    """Discrete priority bands for same-timestamp ordering.

    Smaller values run first.  The bands leave numeric gaps so models can
    define finer-grained levels (any ``int`` is accepted by the kernel).
    A namespace of plain ``int`` constants, not an enum: ``Priority.LOW``
    *is* 30, so an event stores it as given.
    """

    URGENT = 0
    HIGH = 10
    NORMAL = 20
    LOW = 30

    #: Kernel-internal band used for end-of-run bookkeeping; always last.
    FINALIZE = 1_000_000


class Event:
    """One scheduled occurrence.

    Every field is stored as given — the engine's one insert
    (:meth:`~repro.core.engine.Simulator._enter`) has already made *time* a
    ``float`` and *seq* an ``int``.

    Parameters
    ----------
    time:
        Absolute simulation time at which the event fires.
    seq:
        Monotone insertion counter supplied by the engine; the final
        tiebreak, guaranteeing FIFO order among exact ties.
    fn:
        Callback invoked as ``fn(*args)`` when the event fires (bind keyword
        arguments with :func:`functools.partial` or a lambda).
    args:
        Positional arguments for *fn*.
    priority:
        Same-timestamp ordering band (smaller first).
    label:
        Optional human-readable tag; shows up in traces and ``repr``.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "label",
                 "_cancelled", "_on_cancel", "obs_span")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple = (),
        priority: int = Priority.NORMAL,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.label = label
        self._cancelled = False
        #: set by the owning queue at push time, cleared at pop time; lets
        #: the queue keep an exact dead-record count for eager purging.
        self._on_cancel: Callable[[], None] | None = None
        #: the tracer's lifecycle span (:mod:`repro.obs`), or None when the
        #: owning simulator is unobserved.  A dedicated slot rather than a
        #: tracer-side dict so the instrumented dispatch loop reads it
        #: without a hash lookup; the untraced path only ever stores None.
        self.obs_span: object | None = None

    # -- ordering -----------------------------------------------------------

    @property
    def sort_key(self) -> tuple[float, int, int]:
        """The total-order key ``(time, priority, seq)``."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "Event") -> bool:
        return self.sort_key <= other.sort_key

    def __eq__(self, other: object) -> bool:
        return self is other

    def __hash__(self) -> int:
        return id(self)

    # -- lifecycle ----------------------------------------------------------

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called; the event will not fire."""
        return self._cancelled

    def cancel(self) -> None:
        """Mark the event dead.  O(1) amortized; queues skip dead events at
        pop time and purge them eagerly once enough accumulate.

        Cancelling twice is a no-op (idempotent), matching how models
        typically tear down timers defensively.
        """
        if self._cancelled:
            return
        self._cancelled = True
        cb = self._on_cancel
        if cb is not None:
            self._on_cancel = None
            cb()

    def fire(self) -> Any:
        """Invoke the callback.  Raises if the event was cancelled."""
        if self._cancelled:
            raise EventCancelledError(f"cannot fire cancelled event {self!r}")
        return self.fn(*self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" {self.label!r}" if self.label else ""
        dead = " CANCELLED" if self._cancelled else ""
        fn_name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.6g} prio={self.priority} seq={self.seq}{tag} fn={fn_name}{dead}>"
