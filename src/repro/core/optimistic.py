"""Optimistic distributed execution — Jefferson's Time Warp.

The taxonomy's *distributed execution* category splits into conservative
protocols (CMB null messages, synchronous windows — :mod:`repro.core.parallel`)
and **optimistic** ones, where logical processes execute whatever work they
have without waiting for safety guarantees and *undo* mis-speculated work
when a message from the past — a **straggler** — arrives.  Time Warp
(Jefferson 1985; surveyed by Fujimoto 1990, both cited in PAPERS.md) is the
canonical optimistic protocol; this module completes benchmark E7's
conservative-vs-optimistic comparison.

Mechanics implemented here, each the textbook piece:

* **State saving** — every ``checkpoint_every`` firings an LP checkpoint is
  taken through :meth:`LogicalProcess.snapshot` (clock, pending events —
  cloned on restore —, RNG stream states, send sequence, plus model state
  from registered providers).
* **Input queue** — each LP's received messages are kept, processed *and*
  unprocessed, merged in the deterministic ``(receive time, source, send
  sequence)`` order shared with the conservative executors.
* **Rollback** — a straggler (or an anti-message for an already-processed
  message) restores the latest snapshot strictly older than the straggler
  time, returns later-processed messages to the input queue, and
  re-executes.  Re-execution below the straggler time is a *coast-forward*:
  replay whose sends are suppressed because the originals are still valid —
  up to the first input that differs from what the original run saw.
* **Anti-messages** — sends invalidated by a rollback are chased by
  anti-messages (aggressive cancellation).  An anti-message annihilates its
  positive in the destination's input queue, triggers a secondary rollback
  if the positive was already processed, or is remembered if it arrives
  first.
* **GVT** — the executor is round-based and single-threaded, so Global
  Virtual Time is an exact synchronous reduction each round: the minimum
  over LPs of unprocessed-message, in-transit-message, and pending-event
  times.  Nothing below GVT can ever be rolled back.
* **Fossil collection** — snapshots, processed messages, and output-log
  entries that GVT has made unreachable are reclaimed each round.

Determinism: the committed event stream is byte-identical to
:class:`~repro.core.parallel.SequentialExecutor` on the same partitioned
model.  Two caveats, both documented in DESIGN.md §5d: model events
explicitly scheduled at :data:`~repro.core.events.Priority.HIGH` for the
*current* timestamp from inside a handler may interleave differently with
message dispatches (use the default ``NORMAL``), and :class:`Event` handles
stored in registered state are not remapped across a rollback — make
cancellation decisions replayable from model state, or keep the schedule
and the cancel inside the same rollback frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import Optional, Sequence

from .errors import ConfigurationError, SchedulingError
from .events import Event, Priority
from .parallel import (Channel, ExecutionStats, LogicalProcess, Message,
                       _collect_stats, _done, _validate_run)

__all__ = ["OptimisticExecutor", "LPReport"]


@dataclass(slots=True)
class LPReport:
    """Per-LP Time Warp accounting, exposed as ``executor.lp_reports``."""

    rollbacks: int = 0
    #: total events undone (a coast-forward re-fires the still-valid ones)
    rolled_back_events: int = 0
    max_rollback_depth: int = 0
    antis_sent: int = 0
    #: positives removed before processing (in-queue or pre-arrival)
    annihilations: int = 0
    stragglers: int = 0
    snapshots_taken: int = 0


@dataclass(slots=True)
class _Snapshot:
    """One checkpoint: LP blob plus the executor-side cursors."""

    now: float
    #: value of the monotone processed-message counter at capture time —
    #: messages with a larger index were processed after this snapshot
    proc_count: int
    #: fired events not since undone at capture time (``restore()`` does not
    #: rewind the raw counter, so rollback depth is measured on the net one)
    events_executed: int
    blob: dict


class _Runtime:
    """Executor-private Time Warp state for one LP."""

    __slots__ = ("lp", "inbox", "unprocessed", "unprocessed_uids", "dead_uids",
                 "processed", "processed_uids", "proc_count", "out_log",
                 "snapshots", "pending_annihilation", "coast_until",
                 "fired_since_snapshot", "report")

    def __init__(self, lp: LogicalProcess) -> None:
        self.lp = lp
        #: in-transit messages appended by peers: (uid, Message, is_anti)
        self.inbox: list[tuple[int, Message, bool]] = []
        #: received-but-unprocessed heap: (recv_time, src, seq, uid, Message)
        self.unprocessed: list[tuple[float, str, int, int, Message]] = []
        self.unprocessed_uids: set[int] = set()
        #: uids annihilated while still sitting in `unprocessed` (lazy removal)
        self.dead_uids: set[int] = set()
        #: processed messages in processing order: (index, uid, Message)
        self.processed: list[tuple[int, int, Message]] = []
        self.processed_uids: set[int] = set()
        self.proc_count = 0
        #: chronological send log: (send_time, uid, Message, dst name)
        self.out_log: list[tuple[float, int, Message, str]] = []
        self.snapshots: list[_Snapshot] = []
        #: anti-messages that arrived before their positives
        self.pending_annihilation: set[int] = set()
        #: sends at sim times below this are replay of still-valid originals
        self.coast_until = -math.inf
        self.fired_since_snapshot = 0
        self.report = LPReport()


class OptimisticExecutor:
    """Time Warp: optimistic round-robin execution with rollback.

    Parameters
    ----------
    batch:
        Events each LP may fire per round.  Smaller batches interleave the
        LPs more tightly (fewer, shallower rollbacks); larger batches are
        more optimistic.
    checkpoint_every:
        Firings between state snapshots.  The classic space/time knob: a
        rollback restores the latest eligible snapshot and coast-forwards
        over at most this many events.
    throttle:
        Optional optimism window: when set, no LP executes past
        ``GVT + throttle`` within a round (bounded Time Warp).  ``None``
        (default) is pure, unthrottled optimism.
    max_rounds:
        Safety valve against livelock, mirroring :class:`CMBExecutor`.
    """

    name = "optimistic"

    def __init__(self, batch: int = 32, checkpoint_every: int = 8,
                 throttle: float | None = None,
                 max_rounds: int = 10_000_000) -> None:
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if throttle is not None and throttle <= 0:
            raise ConfigurationError(
                f"throttle must be > 0 (or None), got {throttle}")
        self.batch = batch
        self.checkpoint_every = checkpoint_every
        self.throttle = throttle
        self.max_rounds = max_rounds
        self._rts: dict[str, _Runtime] = {}
        self._lps: tuple[LogicalProcess, ...] = ()
        self._uid = 0
        #: per-LP accounting of the most recent run, keyed by LP name
        self.lp_reports: dict[str, LPReport] = {}

    # -- public protocol ------------------------------------------------------

    def run(self, lps: Sequence[LogicalProcess], until: float) -> ExecutionStats:
        wall0 = perf_counter()
        self._setup(lps, until)
        rounds = 0
        try:
            for _ in range(self.max_rounds):
                gvt = self._gvt()
                if _done(gvt, until):
                    break
                # GVT is a global quantity: notify one binding per round
                # (bindings of one Observation share the metrics registry).
                for lp in self._lps:
                    obs = lp.sim._obs
                    if obs is not None:
                        obs.on_gvt(gvt)
                        break
                for rt in (self._rts[lp.name] for lp in self._lps):
                    self._fossil_collect(rt, gvt)
                rounds += 1
                for lp in self._lps:
                    self._turn(self._rts[lp.name], until, gvt)
            else:  # pragma: no cover - guarded by max_rounds
                raise SchedulingError(
                    "optimistic executor exceeded max_rounds; GVT is not "
                    "advancing (rollback livelock?)")
        finally:
            for lp in self._lps:
                lp._tw = None
        return self._finish(until, rounds, perf_counter() - wall0)

    # -- lifecycle pieces (split out so edge-case tests can drive rounds) -----

    def _setup(self, lps: Sequence[LogicalProcess], until: float) -> None:
        _validate_run(lps, until)
        for lp in lps:
            if lp._tw is not None:
                raise ConfigurationError(
                    f"LP {lp.name!r} is already inside an optimistic run")
        self._lps = tuple(lps)
        self._rts = {lp.name: _Runtime(lp) for lp in lps}
        self._uid = 0
        self.lp_reports = {}
        for lp in lps:
            lp._tw = self
        for lp in lps:
            rt = self._rts[lp.name]
            # Adopt messages sent before the run through the conservative
            # channel path (e.g. seeding sends made outside any executor).
            for ch in lp.inputs.values():
                for msg in ch.take_ready(math.inf):
                    self._uid += 1
                    rt.inbox.append((self._uid, msg, False))
            rt.snapshots.append(self._take_snapshot(rt))

    def _finish(self, until: float, rounds: int,
                wall: float) -> ExecutionStats:
        for lp in self._lps:
            if math.isfinite(until) and lp.sim.now < until:
                # Nothing at or below the horizon remains (GVT > until);
                # this only advances the clock for time-weighted statistics.
                lp.sim.run(until=until)
        stats = _collect_stats(self.name, self._lps, rounds)
        stats.wall_seconds = wall
        self.lp_reports = {name: rt.report for name, rt in self._rts.items()}
        stats.rollbacks = sum(r.rollbacks for r in self.lp_reports.values())
        stats.rolled_back_events = sum(
            r.rolled_back_events for r in self.lp_reports.values())
        stats.anti_messages = sum(
            r.antis_sent for r in self.lp_reports.values())
        stats.committed_events = stats.events - stats.rolled_back_events
        stats.efficiency = (stats.committed_events / stats.events
                            if stats.events else 1.0)
        return stats

    # -- message transport (called from LogicalProcess.send) ------------------

    def on_send(self, lp: LogicalProcess, ch: Channel, msg: Message) -> None:
        """Transport *msg*, logging it for potential anti-message cancellation."""
        rt = self._rts[lp.name]
        if lp.sim.now < rt.coast_until:
            # Coast-forward replay: the original message was kept valid by
            # the rollback (send_time below the straggler), so re-sending
            # would duplicate it.  The send sequence was still consumed,
            # keeping replay byte-identical.
            return
        dst_rt = self._rts.get(ch.dst.name)
        if dst_rt is None:
            raise ConfigurationError(
                f"LP {lp.name!r} sent to {ch.dst.name!r}, which is not part "
                f"of this optimistic run")
        obs = lp.sim._obs
        if obs is not None:
            obs.on_message_send(msg)
        ch.messages_sent += 1
        self._uid += 1
        rt.out_log.append((lp.sim.now, self._uid, msg, ch.dst.name))
        dst_rt.inbox.append((self._uid, msg, False))

    # -- one LP turn ----------------------------------------------------------

    def _turn(self, rt: _Runtime, until: float, gvt: float) -> None:
        lp = rt.lp
        trigger = self._integrate_inbox(rt)
        sim = lp.sim
        if trigger <= sim.now:
            self._rollback(rt, trigger)
        elif trigger < math.inf:
            # Ahead of the clock but inside the coast-forward window: nothing
            # to undo, but the originals kept valid from there on are void.
            self._cancel_sends(rt, trigger)
        queue = sim._queue
        bound = until if self.throttle is None else min(until,
                                                        gvt + self.throttle)
        fired = 0
        while fired < self.batch:
            head = self._peek_unprocessed(rt)
            ev = queue.peek()
            ev_t = ev.time if ev is not None else math.inf
            m_t = head[0] if head is not None else math.inf
            if _done(min(m_t, ev_t), bound):
                break
            if head is not None and (
                    ev is None or m_t < ev_t
                    or (m_t == ev_t and Priority.HIGH < ev.priority)):
                # The message's dispatch is the strict next firing: only now
                # does it enter the local event list, exactly as the
                # conservative executors deliver — so its sequence number,
                # and therefore every same-timestamp tiebreak, matches.
                self._integrate_message(rt, head)
                continue
            self._fire_one(rt, bound)
            fired += 1
            if rt.fired_since_snapshot >= self.checkpoint_every:
                rt.snapshots.append(self._take_snapshot(rt))

    def _integrate_inbox(self, rt: _Runtime) -> float:
        """Drain in-transit messages; return the earliest time at which the
        input now differs from what this LP executed — before its rollback,
        while it coasts forward (inf when causality was not violated)."""
        if not rt.inbox:
            return math.inf
        inbox, rt.inbox = rt.inbox, []
        positives: dict[int, Message] = {}
        order: list[int] = []
        antis: list[tuple[int, Message]] = []
        for uid, msg, is_anti in inbox:
            if is_anti:
                antis.append((uid, msg))
            else:
                positives[uid] = msg
                order.append(uid)
        trigger = math.inf
        report = rt.report
        for uid, msg in antis:
            if uid in positives:
                # Annihilated while both were in transit (the anti caught
                # the positive it was chasing).
                del positives[uid]
                report.annihilations += 1
            elif uid in rt.processed_uids:
                # Secondary rollback: the mis-sent message already ran here.
                # Mark it dead so the rollback drops it instead of requeueing.
                trigger = min(trigger, msg.recv_time)
                rt.dead_uids.add(uid)
            elif uid in rt.unprocessed_uids:
                rt.dead_uids.add(uid)
                rt.unprocessed_uids.discard(uid)
                report.annihilations += 1
                if msg.recv_time < rt.coast_until:
                    # A rollback returned it: the sends kept valid saw it.
                    trigger = min(trigger, msg.recv_time)
            else:
                # The anti overtook its positive (cannot happen with the
                # built-in FIFO transport, but the protocol tolerates it).
                rt.pending_annihilation.add(uid)
        now = rt.lp.sim.now
        for uid in order:
            msg = positives.get(uid)
            if msg is None:
                continue
            if uid in rt.pending_annihilation:
                rt.pending_annihilation.discard(uid)
                report.annihilations += 1
                continue
            if msg.recv_time <= now:
                # Straggler: this LP optimistically executed past the
                # message's receive time (<= because events *at* `now` have
                # already fired and the dispatch may need to precede them).
                trigger = min(trigger, msg.recv_time)
                report.stragglers += 1
            elif msg.recv_time < rt.coast_until:
                trigger = min(trigger, msg.recv_time)
            heappush(rt.unprocessed,
                     (msg.recv_time, msg.src, msg.seq, uid, msg))
            rt.unprocessed_uids.add(uid)
        return trigger

    def _peek_unprocessed(
            self, rt: _Runtime) -> Optional[tuple[float, str, int, int, Message]]:
        heap = rt.unprocessed
        while heap and heap[0][3] in rt.dead_uids:
            rt.dead_uids.discard(heap[0][3])
            heappop(heap)
        return heap[0] if heap else None

    def _integrate_message(self, rt: _Runtime,
                           entry: tuple[float, str, int, int, Message]) -> None:
        heappop(rt.unprocessed)
        recv_time, _src, _seq, uid, msg = entry
        rt.unprocessed_uids.discard(uid)
        rt.proc_count += 1
        rt.processed.append((rt.proc_count, uid, msg))
        rt.processed_uids.add(uid)
        sim = rt.lp.sim
        ev = sim.schedule_at(recv_time, rt.lp._dispatch, msg,
                             priority=Priority.HIGH, label=f"recv:{msg.kind}")
        obs = sim._obs
        if obs is not None:
            obs.on_message_recv(msg, ev)

    def _fire_one(self, rt: _Runtime, bound: float) -> None:
        lp = rt.lp
        sim = lp.sim
        fired = sim._fire_until(bound, 1)
        lp.events_executed_total += fired
        rt.fired_since_snapshot += fired
        if sim._stopped:  # by stop() or StopSimulation alike
            raise ConfigurationError(
                f"stop ({sim._stop_reason!r}) inside an optimistic run: "
                f"a stop cannot be rolled back; bound the run with `until` "
                f"instead")

    # -- rollback -------------------------------------------------------------

    def _rollback(self, rt: _Runtime, trigger: float) -> None:
        """Undo everything at or after *trigger* virtual time on this LP."""
        lp = rt.lp
        sim = lp.sim
        snaps = rt.snapshots
        i = len(snaps) - 1
        # A snapshot taken exactly at the straggler's timestamp is NOT
        # eligible: events at that time had already fired into it.
        while i >= 0 and snaps[i].now >= trigger:
            i -= 1
        if i < 0:  # pragma: no cover - GVT keeps one eligible snapshot alive
            raise SchedulingError(
                f"time warp on LP {lp.name!r}: no snapshot below straggler "
                f"time {trigger}; the GVT invariant was violated")
        snap = snaps[i]
        report = rt.report
        depth = (sim._events_executed - report.rolled_back_events
                 - snap.events_executed)
        report.rollbacks += 1
        report.rolled_back_events += depth
        if depth > report.max_rollback_depth:
            report.max_rollback_depth = depth
        obs = sim._obs
        if obs is not None:
            obs.on_rollback(sim.now, trigger, snap.now, depth)
        self._cancel_sends(rt, trigger)
        # Return messages processed after the snapshot to the input queue
        # (exact, tie-proof: by monotone processing index, not timestamp).
        while rt.processed and rt.processed[-1][0] > snap.proc_count:
            _idx, uid, msg = rt.processed.pop()
            rt.processed_uids.discard(uid)
            if uid in rt.dead_uids:
                # Annihilated by the anti that triggered this rollback.
                rt.dead_uids.discard(uid)
                report.annihilations += 1
            else:
                heappush(rt.unprocessed,
                         (msg.recv_time, msg.src, msg.seq, uid, msg))
                rt.unprocessed_uids.add(uid)
        lp.restore(snap.blob)
        del snaps[i + 1:]
        rt.fired_since_snapshot = 0

    def _cancel_sends(self, rt: _Runtime, trigger: float) -> None:
        """Chase sends made at or after *trigger* with anti-messages."""
        log = rt.out_log
        keep = len(log)
        while keep and log[keep - 1][0] >= trigger:
            keep -= 1
        for _st, uid, msg, dst in log[keep:]:
            rt.report.antis_sent += 1
            self._rts[dst].inbox.append((uid, msg, True))
        del log[keep:]
        # Replay below the trigger is a coast-forward: sends there re-create
        # messages whose originals were kept valid above, so suppress them.
        rt.coast_until = trigger

    # -- GVT and fossil collection --------------------------------------------

    def _gvt(self) -> float:
        """Exact synchronous GVT: min pending work across LPs and transit."""
        gvt = math.inf
        for lp in self._lps:
            rt = self._rts[lp.name]
            m = lp.sim.peek_time()
            head = self._peek_unprocessed(rt)
            if head is not None and head[0] < m:
                m = head[0]
            for _uid, msg, _anti in rt.inbox:
                if msg.recv_time < m:
                    m = msg.recv_time
            if m < gvt:
                gvt = m
        return gvt

    def _take_snapshot(self, rt: _Runtime) -> _Snapshot:
        rt.fired_since_snapshot = 0
        rt.report.snapshots_taken += 1
        sim = rt.lp.sim
        return _Snapshot(sim.now, rt.proc_count,
                         sim._events_executed - rt.report.rolled_back_events,
                         rt.lp.snapshot())

    def _fossil_collect(self, rt: _Runtime, gvt: float) -> None:
        """Reclaim state GVT proved unreachable.

        Future rollback triggers are >= GVT, so only the newest snapshot
        strictly below GVT (and everything after it) can ever be restored;
        messages processed at or before that snapshot can never be
        unprocessed, and sends below GVT can never need anti-messages.
        """
        snaps = rt.snapshots
        i = len(snaps) - 1
        while i > 0 and snaps[i].now >= gvt:
            i -= 1
        if i > 0:
            del snaps[:i]
        floor = snaps[0].proc_count
        if rt.processed and rt.processed[0][0] <= floor:
            committed = [e for e in rt.processed if e[0] <= floor]
            for _idx, uid, _msg in committed:
                rt.processed_uids.discard(uid)
            rt.processed = [e for e in rt.processed if e[0] > floor]
        log = rt.out_log
        j = 0
        while j < len(log) and log[j][0] < gvt:
            j += 1
        if j:
            del log[:j]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<OptimisticExecutor batch={self.batch} "
                f"checkpoint_every={self.checkpoint_every} "
                f"throttle={self.throttle}>")
