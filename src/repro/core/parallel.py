"""Distributed simulation: logical processes with conservative synchronization.

The taxonomy replaces Sulistio's serial/parallel split with
**centralized vs distributed** execution, and observes (citing Misra 1986
and Fujimoto 1993) that "despite over two decades of research, the
technology of distributed simulations has not significantly impressed the
general simulation community" — the overheads rarely pay off.  This module
lets benchmark E7 measure *why*, on real protocols:

* the model is partitioned into :class:`LogicalProcess` (LP) instances, each
  owning a private :class:`~repro.core.engine.Simulator` clock;
* LPs exchange timestamped messages over :class:`Channel` objects whose
  **lookahead** (minimum propagation delay — e.g. WAN link latency between
  simulated sites) bounds how far clocks may drift;
* three executors run the same partitioned model:

  :class:`SequentialExecutor`
      The centralized reference — globally lowest-timestamp-first off a
      heap of LPs, one clock.  Every other executor must match its results.
  :class:`CMBExecutor`
      Chandy–Misra–Bryant null-message protocol (Misra 1986).  Counts the
      null messages; small lookahead ⇒ null-message storms, the classic
      failure mode.
  :class:`WindowExecutor`
      Synchronous-window ("YAWNS"-style) conservative execution: per epoch,
      all events in ``[W, W + lookahead)`` are independent, so the LPs
      advance through the window in any order and exchange messages at
      the barrier.

Every executor runs one LP at a time on one OS thread: CPython's GIL makes
a thread pool over the window strictly slower than the in-line loop
(EXPERIMENTS.md E7), so real intra-run parallelism needs processes.

The optimistic half of the axis — Jefferson's Time Warp, with rollback,
anti-messages, and GVT-keyed fossil collection — lives in
:mod:`repro.core.optimistic` (:class:`~repro.core.optimistic.OptimisticExecutor`)
and builds on the :meth:`LogicalProcess.snapshot` / :meth:`LogicalProcess.restore`
state-saving protocol defined here.

All executors are deterministic: cross-LP message merge order is fixed by
``(receive time, source name, send sequence)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Sequence

from .engine import Simulator
from .errors import ConfigurationError, SchedulingError
from .events import Event, Priority

__all__ = [
    "Message",
    "Channel",
    "LogicalProcess",
    "ExecutionStats",
    "SequentialExecutor",
    "CMBExecutor",
    "WindowExecutor",
]


def _clone_event(ev: Event) -> Event:
    """A fresh, live :class:`Event` record with the same schedule identity.

    Clones share ``fn``/``args`` with the original (model state reached
    through them is saved separately, via the LP's registered state
    providers) but own their liveness: cancelling or firing the original
    after the snapshot cannot corrupt the saved copy, and vice versa.
    """
    return Event(ev.time, ev.seq, ev.fn, ev.args, ev.priority, ev.label)


def _validate_run(lps: Sequence["LogicalProcess"], until: float) -> None:
    """Every executor's pre-run check: unique LP names (channels and executor
    bookkeeping are keyed by name) and a horizon it can terminate against.

    ``until`` must not be NaN, and an *infinite* horizon is only meaningful
    when the model actually has channels: with zero channels every executor
    degenerates to "run each partition to exhaustion", which never returns
    for self-regenerating models and gives no epoch/round structure to
    measure.  Raising beats silently spinning forever.
    """
    names = [lp.name for lp in lps]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate LP names: {names}")
    if math.isnan(until):
        raise ConfigurationError("executor horizon `until` must not be NaN")
    if math.isinf(until) and until > 0:
        if not any(lp.outputs for lp in lps):
            raise ConfigurationError(
                "infinite horizon with zero channels: executors derive their "
                "progress bounds from channel lookahead, so a channel-free "
                "model under until=inf would run each partition forever; "
                "pass a finite `until` (or run the partition simulators "
                "directly)")


def _done(t: float, until: float) -> bool:
    """Nothing left at or below the horizon.  A model that ran dry reads
    ``t == inf``, which ``t > until`` alone misses under ``until = inf``."""
    return t > until or t == math.inf


@dataclass(frozen=True, slots=True)
class Message:
    """A timestamped inter-LP message.  ``null=True`` marks CMB null messages."""

    recv_time: float
    kind: str
    payload: Any
    src: str
    seq: int
    null: bool = False

    @property
    def order_key(self) -> tuple[float, str, int]:
        """Deterministic delivery order: (time, source, sequence)."""
        return (self.recv_time, self.src, self.seq)


class Channel:
    """Directed link between two LPs with a strictly positive lookahead.

    ``clock`` is the channel's guarantee: the source promises never to send
    a message with receive-time below it.  Real messages and null messages
    both advance it.

    ``pending`` is a min-heap of ``(recv_time, seq, Message)`` — not a FIFO:
    :meth:`send` tolerates a receive time 1e-12 below the clock, so arrival
    order is not quite time order.  ``seq`` is unique per channel, so two
    messages are never compared.
    """

    def __init__(self, src: "LogicalProcess", dst: "LogicalProcess",
                 lookahead: float) -> None:
        if lookahead <= 0:
            raise ConfigurationError(
                f"lookahead must be > 0 for conservative sync, got {lookahead}")
        self.src = src
        self.dst = dst
        self.lookahead = float(lookahead)
        self.clock = 0.0
        self.pending: list[tuple[float, int, Message]] = []
        self.messages_sent = 0
        self.nulls_sent = 0

    def send(self, msg: Message) -> None:
        """Accept a message, enforcing the channel-clock promise."""
        if msg.recv_time < self.clock - 1e-12 and not msg.null:
            raise SchedulingError(
                f"channel {self.src.name}->{self.dst.name}: message at "
                f"{msg.recv_time} violates channel clock {self.clock}")
        if msg.null:
            self.nulls_sent += 1
            self.clock = max(self.clock, msg.recv_time)
        else:
            self.messages_sent += 1
            self.clock = max(self.clock, msg.recv_time)
            heappush(self.pending, (msg.recv_time, msg.seq, msg))

    def take_ready(self, up_to: float) -> list[Message]:
        """Remove and return messages with recv_time <= up_to, earliest first."""
        pending = self.pending
        limit = up_to + 1e-12
        ready = []
        while pending and pending[0][0] <= limit:
            ready.append(heappop(pending)[2])
        return ready

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Channel {self.src.name}->{self.dst.name} la={self.lookahead} "
                f"clock={self.clock:.6g}>")


class LogicalProcess:
    """One partition of a distributed simulation model.

    Owns a private :class:`Simulator`; model code schedules local events on
    ``lp.sim`` and communicates with other partitions only via
    :meth:`send`.  Message arrival invokes the handler registered with
    :meth:`on_message` *at the receive time on the local clock*.
    """

    def __init__(self, name: str, queue: str = "heap", seed: int = 0) -> None:
        self.name = name
        self.sim = Simulator(queue=queue, seed=seed)
        self.outputs: dict[str, Channel] = {}
        self.inputs: dict[str, Channel] = {}
        self._handlers: dict[str, Callable[["LogicalProcess", Message], None]] = {}
        self._send_seq = 0
        self.events_executed_total = 0
        #: Time Warp hook (:class:`repro.core.optimistic.OptimisticExecutor`),
        #: installed for the duration of an optimistic run.  Null-object
        #: protocol like ``sim._obs``: conservative executors never set it.
        self._tw = None
        #: ``(get, set)`` pairs registered by :meth:`register_state`.
        self._state_providers: list[tuple[Callable[[], Any],
                                          Callable[[Any], None]]] = []

    def connect(self, dst: "LogicalProcess", lookahead: float) -> Channel:
        """Create (or return) the channel ``self -> dst``."""
        ch = self.outputs.get(dst.name)
        if ch is None:
            ch = Channel(self, dst, lookahead)
            self.outputs[dst.name] = ch
            dst.inputs[self.name] = ch
        return ch

    def on_message(self, kind: str,
                   handler: Callable[["LogicalProcess", Message], None]) -> "LogicalProcess":
        """Register the callback for incoming messages of *kind*; chainable."""
        self._handlers[kind] = handler
        return self

    def send(self, dst_name: str, kind: str, payload: Any = None,
             extra_delay: float = 0.0) -> Message:
        """Send to the LP named *dst_name*; arrives after lookahead+extra."""
        ch = self.outputs.get(dst_name)
        if ch is None:
            raise ConfigurationError(f"LP {self.name!r} has no channel to {dst_name!r}")
        if extra_delay < 0:
            raise ConfigurationError(f"extra_delay must be >= 0, got {extra_delay}")
        self._send_seq += 1
        msg = Message(self.sim.now + ch.lookahead + extra_delay, kind, payload,
                      self.name, self._send_seq)
        tw = self._tw
        if tw is not None:
            # Optimistic run: the Time Warp executor transports the message
            # (logging it for anti-message cancellation, suppressing
            # re-sends during coast-forward) and calls the obs hooks itself.
            tw.on_send(self, ch, msg)
            return msg
        obs = self.sim._obs
        if obs is not None:
            # The tracer remembers which local firing produced this message
            # so the destination LP's dispatch span gets it as causal parent.
            obs.on_message_send(msg)
        ch.send(msg)
        return msg

    # -- optimistic state saving ------------------------------------------------

    def register_state(self, get: Callable[[], Any],
                       set: Callable[[Any], None]) -> "LogicalProcess":
        """Register a model state provider for Time Warp rollback; chainable.

        *get* must return a **fresh copy** of the provider's state (picklable
        or plainly copyable — a ``dict(...)``/``list(...)`` of value types is
        the idiom); *set* must install such a blob without mutating it in
        place (``log[:] = blob`` rather than ``log = blob``), because one
        saved blob may be restored multiple times.

        Kernel-owned state (clock, event list, RNG streams, send sequence)
        is saved automatically by :meth:`snapshot`; only state the model
        mutates from its handlers needs a provider.  Conservative executors
        never call the providers.
        """
        self._state_providers.append((get, set))
        return self

    def snapshot(self) -> dict:
        """Capture the LP's full rollback state (Time Warp checkpoint).

        Saves the local clock, the scheduling sequence counter, the send
        sequence, a reference to every live pending event (in no particular
        order), the exact state of every RNG stream drawn so far, and one
        blob per registered state provider.  Firing or cancelling events
        after the call cannot corrupt it: the fields that schedule an event
        never change once it is built, and :meth:`restore` clones each saved
        record with a liveness of its own — per rollback, not per checkpoint.
        """
        sim = self.sim
        return {
            "now": sim._now,
            "seq": sim._seq,
            "send_seq": self._send_seq,
            "events": [ev for ev in sim._queue._iter_events()
                       if not ev._cancelled],
            "rng": {name: st._gen.bit_generator.state
                    for name, st in sim.streams._streams.items()},
            "model": [get() for get, _ in self._state_providers],
        }

    def restore(self, snap: dict) -> None:
        """Roll the LP back to a :meth:`snapshot` (idempotent per snapshot).

        Rebuilds the event list from clones of the saved events, restores
        clock/sequence counters, rewinds every RNG stream (streams first
        created *after* the snapshot are discarded so re-execution recreates
        them from their deterministic name-derived seed), and hands each
        provider its saved blob.  The raw ``events_executed`` counter is
        *not* rewound — it deliberately counts rolled-back work.
        """
        sim = self.sim
        fresh = type(sim._queue)()
        for ev in snap["events"]:
            fresh.push(_clone_event(ev))
        sim._queue = fresh
        sim._now = snap["now"]
        sim._seq = snap["seq"]
        self._send_seq = snap["send_seq"]
        streams = sim.streams._streams
        saved_rng = snap["rng"]
        for name in [n for n in streams if n not in saved_rng]:
            del streams[name]
        for name, state in saved_rng.items():
            sim.streams.stream(name)._gen.bit_generator.state = state
        for (_, set_state), blob in zip(self._state_providers, snap["model"]):
            set_state(blob)

    def send_null(self, lower_bound: float) -> None:
        """Promise all neighbours no message below ``lower_bound + lookahead``."""
        for ch in self.outputs.values():
            ts = lower_bound + ch.lookahead
            if ts > ch.clock:
                self._send_seq += 1
                ch.send(Message(ts, "__null__", None, self.name, self._send_seq,
                                null=True))

    # -- executor plumbing ------------------------------------------------------

    def deliver_pending(self, up_to: float) -> int:
        """Move channel messages with recv_time <= up_to into the local queue.

        Messages from *all* input channels are merged and sorted by
        ``order_key`` before scheduling, so same-timestamp deliveries are
        ordered identically under every executor.
        """
        ready: list[Message] = []
        for ch in self.inputs.values():
            if ch.pending:
                ready.extend(ch.take_ready(up_to))
        if not ready:
            return 0
        if len(ready) > 1:
            ready.sort(key=lambda m: m.order_key)
        sim = self.sim
        obs = sim._obs
        for msg in ready:
            ev = sim.schedule_at(
                max(msg.recv_time, sim.now), self._dispatch, msg,
                priority=Priority.HIGH, label=f"recv:{msg.kind}")
            if obs is not None:
                # Graft the sender's firing span onto the dispatch event —
                # the cross-LP leg of the causal chain.
                obs.on_message_recv(msg, ev)
        return len(ready)

    def _dispatch(self, msg: Message) -> None:
        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise ConfigurationError(
                f"LP {self.name!r}: no handler for message kind {msg.kind!r}")
        handler(self, msg)

    def input_floor(self) -> float:
        """Min over input channels of their clock (inf when no inputs)."""
        if not self.inputs:
            return math.inf
        return min(ch.clock for ch in self.inputs.values())

    def next_event_time(self) -> float:
        """Earliest pending work: local queue or undelivered channel message."""
        t = self.sim.peek_time()
        for ch in self.inputs.values():
            if ch.pending and ch.pending[0][0] < t:
                t = ch.pending[0][0]
        return t

    def advance(self, horizon: float) -> int:
        """Deliver + execute everything with time <= horizon.  Returns count.

        Executes on the kernel's fused single-touch dispatch
        (:meth:`~repro.core.queues.base.EventQueue.pop_if_le` inside
        ``sim.run``); the ``peek_time`` guard is a true non-mutating O(1)
        head read, so an idle LP costs one comparison per round.
        """
        before = self.sim.events_executed
        self.deliver_pending(horizon)
        # Delivering may schedule new local events; loop until quiescent
        # below the horizon (handler sends go to *other* LPs, so one
        # deliver/run round per level suffices; loop guards self-sends).
        while self.sim.peek_time() <= horizon:
            self.sim.run(until=horizon)
            if self.deliver_pending(horizon) == 0:
                break
        executed = self.sim.events_executed - before
        self.events_executed_total += executed
        return executed

    def __repr__(self) -> str:  # pragma: no cover
        return f"<LP {self.name!r} t={self.sim.now:.6g}>"


@dataclass(slots=True)
class ExecutionStats:
    """What an executor did — the E7 comparison record."""

    executor: str
    lps: int
    events: int = 0
    null_messages: int = 0
    real_messages: int = 0
    epochs: int = 0
    wall_seconds: float = 0.0
    #: mean events per epoch per LP — the available-parallelism metric
    parallelism: float = 0.0
    #: Time Warp accounting: conservative executors never roll back, so
    #: ``committed_events == events`` and ``efficiency == 1.0`` for them.
    rollbacks: int = 0
    rolled_back_events: int = 0
    anti_messages: int = 0
    committed_events: int = 0
    #: committed / executed — the optimism-waste ratio
    efficiency: float = 1.0


def _collect_stats(name: str, lps: Sequence[LogicalProcess],
                   epochs: int) -> ExecutionStats:
    nulls = sum(ch.nulls_sent for lp in lps for ch in lp.outputs.values())
    real = sum(ch.messages_sent for lp in lps for ch in lp.outputs.values())
    events = sum(lp.events_executed_total for lp in lps)
    stats = ExecutionStats(name, len(lps), events=events, null_messages=nulls,
                           real_messages=real, epochs=epochs,
                           committed_events=events)
    if epochs > 0 and lps:
        stats.parallelism = events / epochs / len(lps)
    return stats


class SequentialExecutor:
    """Centralized reference: always run the globally earliest LP next.

    A lazy heap of ``(next event time, LP index, stamp)`` finds it, ties to
    the lower index.  A step advances that LP by one timestamp cluster, then
    re-keys it and the LPs its output channels lead to — nothing else's
    next-event time can have moved — pushing only keys that changed and are
    finite, so the heap grows with key changes, not steps.  An entry is live
    iff it carries its LP's current stamp: validity by value would admit two
    live entries when a key goes A -> B -> A.
    """

    name = "sequential"

    def run(self, lps: Sequence[LogicalProcess], until: float) -> ExecutionStats:
        _validate_run(lps, until)
        wall0 = perf_counter()
        index = {lp.name: i for i, lp in enumerate(lps)}
        affected = [[i, *(index[n] for n in lp.outputs if n in index)]
                    for i, lp in enumerate(lps)]
        keys = [math.inf] * len(lps)
        stamps = [0] * len(lps)
        heap: list[tuple[float, int, int]] = []
        stale = range(len(lps))
        steps = 0
        while True:
            for j in stale:
                t = lps[j].next_event_time()
                if t != keys[j]:
                    keys[j] = t
                    stamps[j] += 1
                    if t < math.inf:
                        heappush(heap, (t, j, stamps[j]))
            while heap and heap[0][2] != stamps[heap[0][1]]:
                heappop(heap)
            if not heap or heap[0][0] > until:
                break
            t, i, _ = heap[0]
            lps[i].advance(t)
            steps += 1
            stale = affected[i]
        for lp in lps:
            lp.advance(until)  # drain anything at the horizon boundary
        stats = _collect_stats(self.name, lps, steps)
        stats.wall_seconds = perf_counter() - wall0
        return stats


class CMBExecutor:
    """Chandy–Misra–Bryant conservative execution with null messages.

    Each round, every LP executes up to its input floor (the safe bound),
    then advertises its new lower bound on future sends via null messages.
    Rounds repeat until no LP has work at or below *until*.  The null-message
    count — the protocol's famous overhead — scales inversely with lookahead.
    """

    name = "cmb"

    def __init__(self, max_rounds: int = 10_000_000) -> None:
        self.max_rounds = max_rounds

    def run(self, lps: Sequence[LogicalProcess], until: float) -> ExecutionStats:
        _validate_run(lps, until)
        wall0 = perf_counter()
        rounds = 0
        for _ in range(self.max_rounds):
            rounds += 1
            for lp in lps:
                # Strictly below the input floor is provably safe: channel
                # clocks only promise nothing *below* them, so an event at
                # exactly the floor could still be preempted by a message.
                floor = lp.input_floor()
                safe = min(floor - 1e-9 if math.isfinite(floor) else floor, until)
                lp.advance(safe)  # a no-op when nothing is due by `safe`
                # Null message: the LP's future sends happen no earlier than
                # max(local clock, min(next local event, input floor)).
                lower = min(max(lp.sim.now, min(lp.next_event_time(), floor)),
                            until)
                lp.send_null(lower)
            if all(_done(lp.next_event_time(), until) for lp in lps):
                break
        else:  # pragma: no cover - guarded by max_rounds
            raise SchedulingError("CMB executor exceeded max_rounds; "
                                  "likely zero-lookahead cycle")
        for lp in lps:
            lp.advance(until)
        stats = _collect_stats(self.name, lps, rounds)
        stats.wall_seconds = perf_counter() - wall0
        return stats


class WindowExecutor:
    """Synchronous conservative windows.

    Epoch protocol: let ``W`` be the globally earliest pending timestamp and
    ``L`` the minimum lookahead over all channels.  Every event in
    ``[W, W+L)`` is causally independent across LPs (any cross-LP influence
    needs >= L of propagation), so the LPs process that window in any
    order, then exchange messages at a barrier.
    """

    name = "window"

    def run(self, lps: Sequence[LogicalProcess], until: float) -> ExecutionStats:
        _validate_run(lps, until)
        wall0 = perf_counter()
        lookaheads = [ch.lookahead for lp in lps for ch in lp.outputs.values()]
        min_la = min(lookaheads) if lookaheads else math.inf
        epochs = 0
        while True:
            w = min((lp.next_event_time() for lp in lps), default=math.inf)
            if _done(w, until):
                break
            horizon = min(until, w + min_la * 0.999999) if math.isfinite(min_la) else until
            epochs += 1
            for lp in lps:
                lp.advance(horizon)
        for lp in lps:
            lp.advance(until)
        stats = _collect_stats(self.name, lps, epochs)
        stats.wall_seconds = perf_counter() - wall0
        return stats
