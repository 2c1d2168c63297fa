"""Process-pool campaign runner — fan runs across cores, deterministically.

The one shape of multi-core parallelism CPython gives a discrete-event
simulator for free is *run-level*: independent replications share nothing,
so each can own a whole process.  This runner implements that with an
explicit worker protocol rather than ``multiprocessing.Pool`` because the
campaign needs three things Pool does not give cleanly:

* **per-run timeout + retry** — a hung run is killed (its worker is
  terminated and respawned) and retried up to ``retries`` times, without
  poisoning the rest of the campaign;
* **bounded dispatch with backpressure** — at most ``chunksize`` runs are
  queued ahead per worker, so a million-cell matrix never materializes in
  the pipes;
* **deterministic results** — records are reassembled by run index, so the
  output is byte-identical whatever order workers finish in (and identical
  to a serial run, since every run's RNG seed is baked into its
  :class:`~repro.campaign.spec.RunSpec` before dispatch).

Every worker owns a private pair of pipes (parent→worker tasks,
worker→parent results) — there is no shared queue.  That isolation is
what makes ``terminate()`` safe: a worker killed mid-message can only
corrupt its own pipes, which the parent discards with it, never a lock
or buffer other workers depend on.  Worker protocol (every message is a
picklable tuple)::

    parent -> worker : (RunSpec, attempt)
    parent -> worker : None                          # shutdown sentinel
    worker -> parent : ("start", index, attempt)
    worker -> parent : ("beat",  index, attempt, snapshot)   # heartbeat
    worker -> parent : ("done",  index, attempt, record)

The parent remembers, in dispatch order, every task it sent to each
worker, so nothing is ever lost: a run that exceeds ``timeout`` wall
seconds (clocked from its ``start`` message) gets its worker terminated
and is retried or recorded as ``timeout``; tasks queued behind it that
never started are re-dispatched without consuming an attempt; a worker
that dies silently — even before sending ``start`` — is detected by the
liveness sweep and its in-flight task retried.  Before terminating a
timed-out worker the parent drains that worker's result pipe once more,
so a run completing at the last instant is recorded, not killed.

Observability rides the same protocol.  Each run executes with a fresh
metrics :class:`~repro.obs.metrics.Registry` and a flight-recorder ring;
the registry dump and the run's telemetry snapshot come back inside the
``done`` record, and ``beat`` frames (when ``heartbeat`` is set) carry
live rate snapshots plus the recorder's tail — so the parent can flag a
stalled worker well before its hard timeout and can write a *partial*
post-mortem for a worker that died too hard to dump its own.  A worker
killed by the parent's ``terminate()`` dumps its full ring itself via
the SIGTERM handler installed at worker start (``recorder_dir`` names
where these JSONL artifacts land).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_ready
from time import perf_counter
from typing import Any, Callable, Sequence

from ..core.errors import ConfigurationError
from ..obs.metrics import Registry
from ..obs.recorder import (FlightRecorder, arm_postmortem,
                            disarm_postmortem, install_term_handler,
                            write_dump)
from .scenarios import _run_observation, run_scenario
from .spec import CampaignSpec, RunSpec
from .stats import MetricSummary, summarize, summarize_points
from .telemetry import CampaignTelemetry, aggregate_telemetry

__all__ = ["RunRecord", "CampaignResult", "run_campaign", "run_specs"]

#: default flight-recorder ring capacity (last N firings kept per run)
DEFAULT_RECORDER_EVENTS = 256


@dataclass(slots=True)
class RunRecord:
    """Outcome of one run — plain picklable data, no live references."""

    index: int
    scenario: str
    params: tuple
    point: int
    replication: int
    seed: int
    status: str = "ok"          #: ok | failed | timeout
    attempts: int = 1
    worker: int = -1            #: worker id, -1 for in-process (serial)
    wall_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)
    #: per-run metrics registry dump (``Registry.dump()`` — plain builtins);
    #: wall-clock dependent, so excluded from :meth:`canonical`.
    obs_metrics: list = field(default_factory=list)
    #: flight-recorder post-mortem JSONL, when this run left one behind
    recorder_path: str | None = None
    error: str | None = None

    @property
    def params_dict(self) -> dict[str, Any]:
        """The parameter assignment as a plain dict."""
        return dict(self.params)

    def canonical(self) -> dict:
        """The deterministic identity of this run: everything that must be
        byte-identical between serial and parallel execution (wall times,
        worker ids, and retry counts are excluded by construction)."""
        return {"index": self.index, "scenario": self.scenario,
                "params": list(self.params), "point": self.point,
                "replication": self.replication, "seed": self.seed,
                "status": self.status, "metrics": self.metrics}


def _record(spec: RunSpec, attempt: int, worker: int,
            **outcome: Any) -> RunRecord:
    """A record of one attempt at *spec*, its identity copied from it."""
    return RunRecord(index=spec.index, scenario=spec.scenario,
                     params=spec.params, point=spec.point,
                     replication=spec.replication, seed=spec.seed,
                     attempts=attempt, worker=worker, **outcome)


def _flight_path(recorder_dir: str | None, index: int, attempt: int,
                 partial: bool = False) -> str | None:
    """Where run *index* attempt *attempt* dumps its flight recorder."""
    if recorder_dir is None:
        return None
    stem = f"flight_run{index:05d}_a{attempt}"
    if partial:
        stem += ".partial"
    return os.path.join(recorder_dir, stem + ".jsonl")


def _execute(spec: RunSpec, attempt: int, worker: int,
             heartbeat: float | None = None, recorder_dir: str | None = None,
             beat_send: Callable[[tuple], None] | None = None) -> RunRecord:
    """Run one attempt at *spec* to a finished record (serial and worker
    path alike)."""
    rec = _record(spec, attempt, worker)
    registry = Registry()
    recorder = FlightRecorder(DEFAULT_RECORDER_EVENTS)
    dump_path = _flight_path(recorder_dir, spec.index, attempt)
    extra = {"run_index": spec.index, "attempt": attempt,
             "scenario": spec.scenario, "worker": worker}
    if dump_path is not None:
        # Armed for the whole run: if this process is terminated mid-run,
        # the SIGTERM handler dumps the ring to dump_path on the way out.
        arm_postmortem(recorder, dump_path, extra)
    beat_hook = None
    if beat_send is not None:
        def beat_hook(snap: dict) -> None:
            tail = recorder.snapshot()[-8:]
            payload = dict(snap)
            payload["recorder_tail"] = tail
            payload["last_handler"] = tail[-1]["handler"] if tail else None
            try:
                beat_send(("beat", spec.index, attempt, payload))
            except OSError:
                pass  # parent went away; the run still finishes locally
    t0 = perf_counter()
    try:
        with _run_observation(heartbeat=heartbeat, beat_hook=beat_hook,
                              registry=registry, recorder=recorder):
            metrics, telemetry = run_scenario(spec.scenario,
                                              dict(spec.params), spec.seed)
        rec.metrics = dict(metrics)
        rec.telemetry = dict(telemetry)
    except Exception:
        rec.status = "failed"
        rec.error = traceback.format_exc(limit=20)
        if dump_path is not None:
            try:
                rec.recorder_path = recorder.dump(dump_path, "exception",
                                                  extra)
            except OSError:
                pass
    finally:
        if dump_path is not None:
            disarm_postmortem()
    rec.obs_metrics = registry.dump()
    rec.wall_seconds = perf_counter() - t0
    return rec


def _worker_main(worker_id: int, task_r, res_w, heartbeat: float | None = None,
                 recorder_dir: str | None = None) -> None:  # pragma: no cover
    # Covered via subprocesses; coverage tooling does not see this frame.
    install_term_handler()
    while True:
        try:
            task = task_r.recv()
        except EOFError:
            break
        if task is None:
            break
        spec, attempt = task
        res_w.send(("start", spec.index, attempt))
        rec = _execute(spec, attempt, worker_id, heartbeat, recorder_dir,
                       res_w.send)
        res_w.send(("done", spec.index, attempt, rec))


@dataclass
class _Worker:
    """Parent-side view of one worker process and its private pipes."""

    proc: Any
    task_w: Any                 #: send end of the parent→worker task pipe
    res_r: Any                  #: recv end of the worker→parent result pipe
    #: dispatched-but-unfinished ``[spec, attempt, started]`` entries in
    #: send order; ``started`` is None until the ``start`` message arrives.
    queue: deque = field(default_factory=deque)
    #: latest heartbeat frame ``(index, attempt, payload)`` from this worker
    beat: tuple | None = None
    #: wall stamp of the last start/beat/done frame (stall detection)
    progress_t: float = 0.0

    def close(self) -> None:
        """Close the parent's ends of this worker's pipes."""
        for conn in (self.task_w, self.res_r):
            try:
                conn.close()
            except OSError:
                pass


@dataclass
class CampaignResult:
    """All run records (in matrix order) plus campaign-level accounting."""

    records: list[RunRecord]
    workers: int
    wall_seconds: float
    timeouts: int = 0
    retries_used: int = 0
    worker_deaths: int = 0
    stalls: int = 0
    #: fleet rollups (per-worker/per-point rates, merged metrics registry)
    telemetry: CampaignTelemetry | None = None

    @property
    def n_ok(self) -> int:
        """Runs that completed successfully."""
        return sum(1 for r in self.records if r.status == "ok")

    @property
    def failures(self) -> list[RunRecord]:
        """Records that did not finish with status ``ok``."""
        return [r for r in self.records if r.status != "ok"]

    def summaries(self, metrics: Sequence[str] | None = None,
                  level: float = 0.95) -> dict[str, MetricSummary]:
        """Cross-run statistics pooled over the whole campaign."""
        return summarize(self.records, metrics, level)

    def point_summaries(self, metrics: Sequence[str] | None = None,
                        level: float = 0.95
                        ) -> dict[int, dict[str, MetricSummary]]:
        """Cross-run statistics per grid point."""
        return summarize_points(self.records, metrics, level)

    def metrics_bytes(self) -> bytes:
        """Canonical bytes of the deterministic record content.

        Equal bytes ⇔ identical per-seed results; the E10 benchmark gate
        compares serial vs parallel executions with this.
        """
        return json.dumps([r.canonical() for r in self.records],
                          sort_keys=True,
                          separators=(",", ":")).encode("utf-8")


def run_campaign(spec: CampaignSpec, **options: Any) -> CampaignResult:
    """Expand *spec* and execute its run matrix; *options* are those of
    :func:`run_specs`."""
    return run_specs(spec.expand(), **options)


def run_specs(runs: Sequence[RunSpec], workers: int = 1,
              timeout: float | None = None, retries: int = 1,
              chunksize: int | None = None,
              progress: Callable[[str], None] | None = None,
              heartbeat: float | None = None,
              stall_after: float | None = None,
              recorder_dir: str | None = None) -> CampaignResult:
    """Execute an explicit list of runs; records come back in run order.

    ``workers <= 1`` without a ``timeout`` runs everything in-process (no
    pool, no pickling) — that is both the speedup baseline and the
    determinism reference.  A per-run ``timeout`` needs a process to kill,
    so with one set even a single worker runs under the pool.  ``retries``
    is the number of *extra* attempts granted to a run that failed, timed
    out, or lost its worker; ``chunksize`` bounds how many runs may be
    queued ahead at each worker.

    Observability knobs: ``heartbeat`` makes each run emit telemetry
    progress lines every that many wall seconds *and* (under the pool)
    ship live "beat" frames to the parent; ``stall_after`` flags — via
    ``progress`` — a worker whose current run has shown no start/beat
    progress for that long (defaults to ``max(5·heartbeat, 1.0)`` when a
    heartbeat is set, otherwise off); ``recorder_dir`` enables flight-
    recorder post-mortem JSONL dumps for runs that raise, time out, or
    lose their worker (the ring keeps the last ``DEFAULT_RECORDER_EVENTS``
    firings).  Workers start by fork where the platform has it, else spawn.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
    if recorder_dir is not None:
        os.makedirs(recorder_dir, exist_ok=True)
    t0 = perf_counter()
    incidents = dict.fromkeys(
        ("timeouts", "retries_used", "worker_deaths", "stalls"), 0)
    workers = max(1, min(workers, len(runs)))
    if workers == 1 and timeout is None:
        records = [_execute(s, 1, -1, heartbeat, recorder_dir) for s in runs]
    else:
        records = _run_pool(runs, workers, timeout, retries, chunksize,
                            progress, heartbeat, stall_after, recorder_dir,
                            incidents)
    wall = perf_counter() - t0
    return CampaignResult(
        records=records, workers=workers, wall_seconds=wall, **incidents,
        telemetry=aggregate_telemetry(records, wall_seconds=wall,
                                      **incidents))


def _run_pool(runs: Sequence[RunSpec], workers: int, timeout: float | None,
              retries: int, chunksize: int | None,
              progress: Callable[[str], None] | None,
              heartbeat: float | None, stall_after: float | None,
              recorder_dir: str | None,
              incidents: dict[str, int]) -> list[RunRecord]:
    """Execute *runs* on *workers* processes, counting into *incidents*;
    returns the final records in run order."""
    # fork shares the already-imported interpreter (cheap, inherits
    # test-registered scenarios); fall back to spawn where unavailable.
    ctx = mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn")
    depth = (chunksize if chunksize else
             max(2, min(32, len(runs) // workers or 1)))
    if stall_after is None and heartbeat is not None:
        stall_after = max(5.0 * heartbeat, 1.0)

    pool: dict[int, _Worker] = {}
    next_wid = 0

    def spawn_worker() -> None:
        nonlocal next_wid
        wid = next_wid
        next_wid += 1
        task_r, task_w = ctx.Pipe(duplex=False)
        res_r, res_w = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker_main,
                           args=(wid, task_r, res_w, heartbeat, recorder_dir),
                           daemon=True, name=f"campaign-w{wid}")
        proc.start()
        # Close the worker-side ends in the parent so the worker's death
        # is the only thing keeping them open (recv then raises EOFError).
        task_r.close()
        res_w.close()
        pool[wid] = _Worker(proc, task_w, res_r, progress_t=perf_counter())

    pending = deque((s, 1) for s in runs)
    attempts = {s.index: 1 for s in runs}
    done: dict[int, RunRecord] = {}
    stall_flagged: set[tuple[int, int]] = set()  # (index, attempt) pairs
    reported = [0]  # len(done) at the last progress emission

    def emit_progress() -> None:
        # Only on a newly added record — a retry does not grow done, and
        # re-announcing the same count would duplicate lines.
        if (progress is not None and len(done) != reported[0]
                and len(done) % 25 == 0):
            reported[0] = len(done)
            progress(f"[campaign] {len(done)}/{len(runs)} runs "
                     f"done ({incidents['timeouts']} timeouts)")

    def dispatch() -> None:
        while pending:
            sent = False
            for w in sorted(pool.values(), key=lambda w: len(w.queue)):
                if not pending:
                    break
                if not w.proc.is_alive() or len(w.queue) >= depth:
                    continue
                try:
                    w.task_w.send(pending[0])
                except OSError:
                    continue  # dying worker; the liveness sweep reconciles it
                spec, attempt = pending.popleft()
                w.queue.append([spec, attempt, None])
                sent = True
            if not sent:
                return

    def give_up(spec: RunSpec, status: str, err: str, wid: int) -> None:
        att = attempts[spec.index]
        rec = _record(spec, att, wid, status=status, error=err)
        # A terminated worker dumped its full ring via SIGTERM; a dead one
        # may have left a parent-written partial.  Either way, point at it.
        for partial in (False, True):
            path = _flight_path(recorder_dir, spec.index, att, partial)
            if path is not None and os.path.exists(path):
                rec.recorder_path = path
                break
        done[spec.index] = rec
        emit_progress()

    def reap_or_retry(spec: RunSpec, status: str, err: str,
                      wid: int = -1) -> None:
        if attempts[spec.index] <= retries:
            attempts[spec.index] += 1
            incidents["retries_used"] += 1
            pending.append((spec, attempts[spec.index]))
        else:
            give_up(spec, status, err, wid)
        # Unconditional: a terminal give-up frees a dispatch slot exactly
        # like a completion does — without this refill, a campaign whose
        # window filled with given-up runs would stall forever.
        dispatch()

    def handle(w: _Worker, msg: tuple) -> None:
        kind, idx, att = msg[0], msg[1], msg[2]
        head = w.queue[0] if w.queue else None
        if head is None or head[0].index != idx or head[1] != att:
            return  # defensive: messages are FIFO per worker, so the
            # head is always the run in progress; anything else is stale
        w.progress_t = perf_counter()
        if kind == "start":
            head[2] = w.progress_t
        elif kind == "beat":
            w.beat = (idx, att, msg[3])
        elif kind == "done":
            w.queue.popleft()
            rec = msg[3]
            if rec.status == "failed" and attempts[idx] <= retries:
                reap_or_retry(head[0], "failed", rec.error or "")
            else:
                done[idx] = rec
                emit_progress()
                dispatch()

    def drain(w: _Worker) -> None:
        """Process every result already in *w*'s pipe without blocking."""
        while True:
            try:
                if not w.res_r.poll():
                    return
                msg = w.res_r.recv()
            except (EOFError, OSError):
                return  # dead worker / partial message; sweeps reconcile
            handle(w, msg)

    def replace(wid: int) -> list | None:
        """Swap worker *wid* for a fresh one; returns its head entry.

        Its pipes close, and the tasks queued behind the head never ran,
        so they go back to the *front* of pending with their attempt count
        untouched; the head (the run in progress, if any) is the caller's
        to reap or retry.
        """
        w = pool.pop(wid)
        w.close()
        for spec, att, _ in reversed(list(w.queue)[1:]):
            pending.appendleft((spec, att))
        spawn_worker()
        return w.queue[0] if w.queue else None

    try:
        for _ in range(workers):
            spawn_worker()
        dispatch()
        while len(done) < len(runs):
            conns = {w.res_r: w for w in pool.values()}
            for conn in _wait_ready(list(conns), timeout=0.05):
                drain(conns[conn])
            now = perf_counter()
            if timeout is not None:
                for wid, w in list(pool.items()):
                    head = w.queue[0] if w.queue else None
                    if (head is None or head[2] is None
                            or now - head[2] <= timeout):
                        continue
                    # Close the completed-at-the-last-instant race: a
                    # 'done' already in the pipe beats the kill.
                    drain(w)
                    if not w.queue or w.queue[0] is not head:
                        continue
                    incidents["timeouts"] += 1
                    w.proc.terminate()
                    w.proc.join(timeout=5.0)
                    replace(wid)
                    reap_or_retry(head[0], "timeout",
                                  f"run exceeded {timeout}s wall timeout",
                                  wid)
            if stall_after is not None:
                for wid, w in pool.items():
                    head = w.queue[0] if w.queue else None
                    if head is None or head[2] is None:
                        continue  # nothing started: dispatch idle, not stall
                    key = (head[0].index, head[1])
                    if key in stall_flagged:
                        continue
                    quiet = now - max(w.progress_t, head[2])
                    if quiet <= stall_after:
                        continue
                    stall_flagged.add(key)
                    incidents["stalls"] += 1
                    last = ""
                    if w.beat is not None and w.beat[:2] == key:
                        handler = w.beat[2].get("last_handler")
                        if handler:
                            last = f", last handler {handler}"
                    if progress is not None:
                        progress(f"[campaign] worker {wid} stalled on run "
                                 f"{key[0]} (attempt {key[1]}): no "
                                 f"progress for {quiet:.1f}s{last}")
            for wid, w in list(pool.items()):
                if w.proc.is_alive():
                    continue
                drain(w)  # results sent before the crash still count
                reason = f"worker died (exitcode {w.proc.exitcode})"
                head = replace(wid)
                incidents["worker_deaths"] += 1
                if head is None:
                    dispatch()
                    continue
                spec, att, _ = head
                if recorder_dir is not None and w.beat is not None \
                        and w.beat[:2] == (spec.index, att):
                    # The worker died too hard to dump its own ring;
                    # reconstruct a partial from its last beat frame.
                    try:
                        write_dump(
                            _flight_path(recorder_dir, spec.index, att,
                                         partial=True),
                            reason, w.beat[2]["recorder_tail"],
                            {"partial": True, "run_index": spec.index,
                             "attempt": att, "worker": wid})
                    except OSError:
                        pass
                reap_or_retry(spec, "failed", reason, wid)
    finally:
        for w in pool.values():
            try:
                w.task_w.send(None)
            except OSError:
                pass
        deadline = perf_counter() + 5.0
        for w in pool.values():
            w.proc.join(timeout=max(0.0, deadline - perf_counter()))
        for w in pool.values():
            if w.proc.is_alive():
                w.proc.terminate()
            w.close()
    return [done[s.index] for s in runs]
