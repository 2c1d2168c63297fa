"""Process-pool campaign runner — fan runs across cores, deterministically.

The one shape of multi-core parallelism CPython gives a discrete-event
simulator for free is *run-level*: independent replications share nothing,
so each can own a whole process.  This runner implements that with an
explicit worker protocol rather than ``multiprocessing.Pool`` because the
campaign needs three things Pool does not give cleanly:

* **per-run timeout + retry** — a hung run is killed (its worker is
  terminated and respawned) and retried up to ``retries`` times, without
  poisoning the rest of the campaign;
* **one run in flight per worker** — a worker is sent its next run only
  once it has finished the last, so the next run goes to whichever
  worker frees first and a million-cell matrix never materializes in the
  pipes;
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

The parent holds the one run each worker has in flight, so every message
a worker sends is about that run, and a worker lost is one run to reap
or retry.  A timed-out worker (its run past ``timeout`` wall seconds,
clocked from its ``start`` message) and a worker that died silently —
even before sending ``start`` — take one path: the worker is replaced
and its run retried or recorded as ``timeout`` / ``failed``.  Before
terminating a timed-out worker the parent drains that worker's result
pipe once more, so a run completing at the last instant is recorded,
not killed.

Observability rides the same protocol.  Each run executes under one
:class:`~repro.obs.Observation`, which the runner builds around a fresh
metrics :class:`~repro.obs.metrics.Registry` and the registry attaches to
the run's simulator; the registry dump comes back with the run's
telemetry snapshot inside the ``done`` record.  A run gets a
flight-recorder ring only where something reads it: ``beat`` frames
(pooled, with ``heartbeat``) carry live rate snapshots plus its tail —
so the parent can flag a stalled worker before its hard timeout and
write a *partial* post-mortem for a worker that died too hard to dump
its own — and with ``recorder_dir`` a run that raises, or a worker the
parent's ``terminate()`` kills (SIGTERM handler), dumps the whole ring.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from multiprocessing.connection import wait as _wait_ready
from time import perf_counter
from typing import Any, Callable, Sequence

from ..core.errors import ConfigurationError
from ..obs import Observation
from ..obs.metrics import Registry
from ..obs.recorder import (FlightRecorder, arm_postmortem,
                            disarm_postmortem, install_term_handler,
                            write_dump)
from .scenarios import _filled, _registered
from .spec import CampaignSpec, RunSpec
from .stats import MetricSummary, summarize, summarize_points
from .telemetry import CampaignTelemetry, aggregate_telemetry

__all__ = ["RunRecord", "CampaignResult", "run_campaign", "run_specs"]


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
    """Run one attempt at *spec*, observed, to a finished record (serial
    and worker path alike)."""
    rec = _record(spec, attempt, worker)
    registry = Registry()
    dump_path = _flight_path(recorder_dir, spec.index, attempt)
    extra = {"run_index": spec.index, "attempt": attempt,
             "scenario": spec.scenario, "worker": worker}
    beat_hook = None
    if beat_send is not None and heartbeat is not None:
        def beat_hook(snap: dict) -> None:
            tail = recorder.snapshot()[-8:]
            payload = dict(snap)
            payload["recorder_tail"] = tail
            payload["last_handler"] = tail[-1]["handler"] if tail else None
            try:
                beat_send(("beat", spec.index, attempt, payload))
            except OSError:
                pass  # parent went away; the run still finishes locally
    # A ring only where something reads it: a beat frame or a dump.
    recorder = FlightRecorder() if beat_hook or dump_path else None
    if dump_path is not None:
        # Armed for the whole run: if this process is terminated mid-run,
        # the SIGTERM handler dumps the ring to dump_path on the way out.
        arm_postmortem(recorder, dump_path, extra)
    obs = Observation(trace=False, profile=False, heartbeat=heartbeat,
                      metrics=registry, recorder=recorder)
    obs.telemetry.beat_hook = beat_hook
    t0 = perf_counter()
    try:
        metrics, telemetry = _registered(spec.scenario)(
            dict(spec.params), spec.seed, obs)
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
    #: the run in flight ``[spec, attempt, started]``, or None when idle;
    #: ``started`` is None until the ``start`` message arrives.  The pipes
    #: are FIFO, so every message the worker sends is about this run.
    task: list | None = None
    #: payload of the run in flight's latest heartbeat frame
    beat: dict | None = None
    #: wall stamp of the last start/beat frame (stall detection)
    progress_t: float = 0.0
    #: whether the run in flight has been flagged as stalled
    stalled: bool = False

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

    @cached_property
    def telemetry(self) -> CampaignTelemetry:
        """Fleet rollups (per-worker/per-point rates, merged metrics
        registry) of the final records, folded on first read."""
        return aggregate_telemetry(self)

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
              progress: Callable[[str], None] | None = None,
              heartbeat: float | None = None,
              recorder_dir: str | None = None) -> CampaignResult:
    """Execute an explicit list of runs; records come back in run order.

    ``workers <= 1`` without a ``timeout`` runs everything in-process (no
    pool, no pickling) — that is both the speedup baseline and the
    determinism reference.  A per-run ``timeout`` needs a process to kill,
    so with one set even a single worker runs under the pool.  ``retries``
    is the number of *extra* attempts granted to a run that failed, timed
    out, or lost its worker.  A run whose params a scenario's declared
    defaults reject is a :class:`ConfigurationError` before any run starts.

    Observability knobs: ``heartbeat`` makes each run emit telemetry
    progress lines every that many wall seconds *and* (under the pool)
    ship live "beat" frames to the parent, which flags — via ``progress``
    — a worker whose run has shown no start/beat progress for
    ``max(5·heartbeat, 1.0)`` seconds; ``recorder_dir`` enables flight-
    recorder post-mortem JSONL dumps for runs that raise, time out, or
    lose their worker; only then, or with ``heartbeat`` under the pool,
    does a run keep a ring (the :class:`~repro.obs.recorder.FlightRecorder`
    default capacity).  Workers start by fork where available, else spawn.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ConfigurationError(f"timeout must be > 0, got {timeout}")
    if heartbeat is not None and heartbeat < 0:
        raise ConfigurationError(f"heartbeat must be >= 0, got {heartbeat}")
    for s in runs:
        _filled(s.scenario, s.params_dict)
    if recorder_dir is not None:
        os.makedirs(recorder_dir, exist_ok=True)
    t0 = perf_counter()
    incidents = dict.fromkeys(
        ("timeouts", "retries_used", "worker_deaths", "stalls"), 0)
    workers = max(1, min(workers, len(runs)))
    if workers == 1 and timeout is None:
        records = [_execute(s, 1, -1, heartbeat, recorder_dir) for s in runs]
    else:
        records = _run_pool(runs, workers, timeout, retries, progress,
                            heartbeat, recorder_dir, incidents)
    return CampaignResult(records=records, workers=workers,
                          wall_seconds=perf_counter() - t0, **incidents)


def _run_pool(runs: Sequence[RunSpec], workers: int, timeout: float | None,
              retries: int, progress: Callable[[str], None] | None,
              heartbeat: float | None, recorder_dir: str | None,
              incidents: dict[str, int]) -> list[RunRecord]:
    """Execute *runs* on *workers* processes, counting into *incidents*;
    returns the final records in run order."""
    # fork shares the already-imported interpreter (cheap, inherits
    # test-registered scenarios); fall back to spawn where unavailable.
    ctx = mp.get_context(
        "fork" if "fork" in mp.get_all_start_methods() else "spawn")
    quiet_limit = None if heartbeat is None else max(5.0 * heartbeat, 1.0)

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
        pool[wid] = _Worker(proc, task_w, res_r)

    pending = deque((s, 1) for s in runs)
    done: dict[int, RunRecord] = {}

    def finish(rec: RunRecord) -> None:
        done[rec.index] = rec
        if progress is not None and len(done) % 25 == 0:
            progress(f"[campaign] {len(done)}/{len(runs)} runs "
                     f"done ({incidents['timeouts']} timeouts)")

    def dispatch() -> None:
        for w in pool.values():
            if pending and w.task is None:
                try:
                    w.task_w.send(pending[0])
                except OSError:
                    continue  # dying worker; the sweep replaces it
                w.task = [*pending.popleft(), None]
                w.beat, w.stalled = None, False

    def reap_or_retry(spec: RunSpec, att: int, status: str, err: str,
                      wid: int) -> None:
        if att <= retries:
            incidents["retries_used"] += 1
            pending.append((spec, att + 1))
            return
        rec = _record(spec, att, wid, status=status, error=err)
        # A terminated worker dumped its full ring via SIGTERM; a dead one
        # may have left a parent-written partial.  Either way, point at it.
        for partial in (False, True):
            path = _flight_path(recorder_dir, spec.index, att, partial)
            if path is not None and os.path.exists(path):
                rec.recorder_path = path
                break
        finish(rec)

    def drain(w: _Worker) -> None:
        """Process every result already in *w*'s pipe without blocking."""
        while True:
            try:
                if not w.res_r.poll():
                    return
                kind, *_, payload = w.res_r.recv()
            except (EOFError, OSError):
                return  # dead worker / partial message; the sweep reaps it
            if kind == "start":
                w.progress_t = w.task[2] = perf_counter()
            elif kind == "beat":
                w.progress_t, w.beat = perf_counter(), payload
            elif kind == "done":
                spec, att, _ = w.task
                w.task = None
                if payload.status == "failed" and att <= retries:
                    reap_or_retry(spec, att, "failed", payload.error or "",
                                  -1)
                else:
                    finish(payload)

    try:
        for _ in range(workers):
            spawn_worker()
        while len(done) < len(runs):
            # First in the loop, so a give-up in the last sweep cannot
            # leave a free worker idle.
            dispatch()
            conns = {w.res_r: w for w in pool.values()}
            for conn in _wait_ready(list(conns), timeout=0.05):
                drain(conns[conn])
            now = perf_counter()
            for wid, w in list(pool.items()):
                started = w.task[2] if w.task is not None else None
                if (timeout is not None and started is not None
                        and now - started > timeout):
                    # A 'done' already in the pipe beats the kill.
                    drain(w)
                    if w.task is None:
                        continue
                    incidents["timeouts"] += 1
                    w.proc.terminate()
                    w.proc.join(timeout=5.0)
                    status = "timeout"
                    reason = f"run exceeded {timeout}s wall timeout"
                elif w.proc.is_alive():
                    quiet = now - w.progress_t
                    if (quiet_limit is not None and started is not None
                            and quiet > quiet_limit and not w.stalled):
                        w.stalled = True
                        incidents["stalls"] += 1
                        handler = (w.beat or {}).get("last_handler")
                        last = f", last handler {handler}" if handler else ""
                        if progress is not None:
                            progress(f"[campaign] worker {wid} stalled on "
                                     f"run {w.task[0].index} (attempt "
                                     f"{w.task[1]}): no progress for "
                                     f"{quiet:.1f}s{last}")
                    continue
                else:
                    drain(w)  # results sent before the crash still count
                    incidents["worker_deaths"] += 1
                    status = "failed"
                    reason = f"worker died (exitcode {w.proc.exitcode})"
                    if (recorder_dir is not None and w.task is not None
                            and w.beat is not None):
                        # The worker died too hard to dump its own ring;
                        # reconstruct a partial from its last beat frame.
                        spec, att, _ = w.task
                        try:
                            write_dump(
                                _flight_path(recorder_dir, spec.index, att,
                                             partial=True),
                                reason, w.beat["recorder_tail"],
                                {"partial": True, "run_index": spec.index,
                                 "attempt": att, "worker": wid})
                        except OSError:
                            pass
                pool.pop(wid)
                w.close()
                spawn_worker()
                if w.task is not None:
                    reap_or_retry(*w.task[:2], status, reason, wid)
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
