"""Processing elements and machines: time-shared and space-shared CPUs.

Taxonomy *host characteristics*: "how different simulators model the load of
the computing nodes, the granularity of jobs being processed".  GridSim's
distinction is reproduced exactly: **space-shared** machines (batch nodes —
each job monopolizes one PE, FCFS) and **time-shared** machines (interactive
nodes — all jobs progress simultaneously under processor sharing, kept in
virtual time behind one completion timer per machine; see
:mod:`repro.core.sharing` and DESIGN §5m).

Work is measured in MI (millions of instructions), PE speed in MIPS, so a
job of length L on a PE of rating R takes L/R seconds when running alone.
Both machine kinds accept any object with a ``length`` attribute and return
a :class:`JobRun` waitable, so middleware schedulers never care which kind
they dispatch to.

Background load (the Bricks ingredient) multiplies effective capacity by
``1 - load``; see :mod:`repro.hosts.load` for injectors that vary it.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.events import Event
from ..core.monitor import Monitor
from ..core.process import Waitable
from ..core.sharing import PSClass, PSOwner

__all__ = ["JobRun", "Machine", "SpaceSharedMachine", "TimeSharedMachine"]


class JobRun(Waitable):
    """One job's execution on a machine.  Completes with itself.

    ``id`` numbers the submissions of one machine from 1.
    """

    def __init__(self, run_id: int, job, submitted: float) -> None:
        self.id = run_id
        self.job = job
        self.length = float(getattr(job, "length", job))
        if self.length <= 0:
            raise ConfigurationError(f"job length must be > 0, got {self.length}")
        self.submitted = submitted
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        # MI left: space-shared runs settle it at each (re)start; time-shared
        # runs keep ``length`` (progress lives in the machine's virtual
        # time) until they finish, then 0.  Plus the space-shared completion
        # event of the current stint.
        self.remaining = self.length
        self._completion: Optional[Event] = None

    def __repr__(self) -> str:  # pragma: no cover
        state = "done" if self.finished is not None else "running/queued"
        return f"<JobRun #{self.id} len={self.length:.4g} {state}>"


class Machine:
    """Common interface: ``submit(job) -> JobRun``; concrete policies below.

    Parameters
    ----------
    pes:
        Number of processing elements.
    rating:
        MIPS per processing element.
    """

    kind = "abstract"

    def __init__(self, sim: Simulator, pes: int = 1, rating: float = 1000.0,
                 name: str = "machine") -> None:
        if pes < 1:
            raise ConfigurationError(f"pes must be >= 1, got {pes}")
        if rating <= 0:
            raise ConfigurationError(f"rating must be > 0, got {rating}")
        self.sim = sim
        self.pes = pes
        self.rating = float(rating)
        self.name = name
        self._background = 0.0
        self.monitor = Monitor(name)
        self._busy_level = self.monitor.level("busy_pes", start_time=sim.now)
        self.completed = 0
        self._runs = 0

    def _new_run(self, job) -> JobRun:
        self._runs += 1
        return JobRun(self._runs, job, self.sim.now)

    @property
    def total_mips(self) -> float:
        """Aggregate effective capacity after background load."""
        return self.pes * self.rating * (1.0 - self._background)

    @property
    def background_load(self) -> float:
        """Current external-load fraction in [0, 1)."""
        return self._background

    def set_background_load(self, fraction: float) -> None:
        """External (non-grid) load stealing a fraction of the capacity."""
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(f"background load must be in [0,1), got {fraction}")
        self._on_capacity_change(fraction)

    def _on_capacity_change(self, fraction: float) -> None:
        self._background = fraction

    def submit(self, job) -> JobRun:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def running(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def queued(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def estimated_completion(self, length: float) -> float:
        """Scheduler hint: when would a job of *length* finish if submitted
        now?  Concrete machines refine this; the default is optimistic."""
        return self.sim.now + length / (self.rating * (1.0 - self._background))

    def _finish_run(self, run: JobRun) -> None:
        run.finished = self.sim.now
        self.completed += 1
        run._complete(run)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r} pes={self.pes} rating={self.rating}>"


class SpaceSharedMachine(Machine):
    """Batch semantics: one job per PE, FCFS queue when all PEs busy.

    Supports failure injection: :meth:`fail` stops the machine (running
    jobs are requeued — with their remaining work under the ``checkpoint``
    policy, or from scratch under ``restart``) and :meth:`repair` brings it
    back.  Submissions during downtime queue normally.
    """

    kind = "space-shared"

    def __init__(self, sim: Simulator, pes: int = 1, rating: float = 1000.0,
                 name: str = "space-shared",
                 restart_policy: str = "checkpoint") -> None:
        if restart_policy not in ("checkpoint", "restart"):
            raise ConfigurationError(
                f"restart_policy must be checkpoint|restart, got {restart_policy!r}")
        super().__init__(sim, pes, rating, name)
        self.restart_policy = restart_policy
        self._queue: list[JobRun] = []
        #: insertion-ordered, so re-timing and eviction visit the running
        #: jobs in start order — a set hashed by address would visit them in
        #: an order that depends on what else the process allocated.
        self._running: dict[JobRun, None] = {}
        self._failed = False
        self.failures = 0
        self.evictions = 0
        #: cumulative seconds spent down over *closed* outages; the open
        #: interval (if any) is added by :attr:`total_downtime`.  Living on
        #: the machine — not the injector — keeps the accounting correct
        #: when external ``fail()``/``repair()`` calls mix with an injector.
        self.downtime = 0.0
        self._down_at: float | None = None
        #: absolute time the current outage is expected to end (a scheduler
        #: hint set by whoever crashed the machine); None = unknown.
        self.repair_eta: float | None = None

    @property
    def failed(self) -> bool:
        """True while the machine is down."""
        return self._failed

    @property
    def total_downtime(self) -> float:
        """Down seconds including the still-open outage (if any)."""
        down = self.downtime
        if self._down_at is not None:
            down += self.sim.now - self._down_at
        return down

    @property
    def availability(self) -> float:
        """Fraction of elapsed time the machine was up (1.0 before t>0)."""
        t = self.sim.now
        if t <= 0:
            return 1.0
        return 1.0 - self.total_downtime / t

    def fail(self, repair_eta: float | None = None) -> int:
        """Crash the machine; returns how many running jobs were evicted.

        *repair_eta* (absolute time) is the expected end of the outage;
        :meth:`estimated_completion` uses it so schedulers stop treating a
        dead machine as idle.  Idempotent: failing a failed machine only
        refreshes the hint.
        """
        if self._failed:
            if repair_eta is not None:
                self.repair_eta = repair_eta
            return 0
        self._failed = True
        self.repair_eta = repair_eta
        self._down_at = self.sim.now
        self.failures += 1
        victims = []
        for run in list(self._running):
            assert run._completion is not None
            # Zero-residue guard: a crash firing at the same timestamp as
            # the job's completion must not resurrect the job as a
            # zero-length rerun (double-counted in busy-level and eviction
            # tallies) — the work is done, so complete it here.
            if run._completion.time <= self.sim.now:
                run._completion.cancel()
                run._completion = None
                run.remaining = 0.0
                del self._running[run]
                self._finish_run(run)
                continue
            if self.restart_policy == "checkpoint":
                rate = self.rating * (1.0 - self._background)
                run.remaining = max(0.0,
                                    (run._completion.time - self.sim.now) * rate)
            else:
                run.remaining = run.length
            run._completion.cancel()
            run._completion = None
            del self._running[run]
            victims.append(run)
        # evicted jobs go to the *front* of the queue, oldest first
        self._queue[:0] = sorted(victims, key=lambda r: r.submitted)
        self._busy_level.set(self.sim.now, 0)
        self.evictions += len(victims)
        return len(victims)

    def repair(self) -> None:
        """Bring the machine back; queued work resumes immediately."""
        if not self._failed:
            return
        self._failed = False
        self.repair_eta = None
        if self._down_at is not None:
            self.downtime += self.sim.now - self._down_at
            self._down_at = None
        while self._queue and len(self._running) < self.pes:
            self._start(self._queue.pop(0))

    def submit(self, job) -> JobRun:
        run = self._new_run(job)
        if not self._failed and len(self._running) < self.pes:
            self._start(run)
        else:
            self._queue.append(run)
        return run

    @property
    def running(self) -> int:
        return len(self._running)

    @property
    def queued(self) -> int:
        return len(self._queue)

    def estimated_completion(self, length: float) -> float:
        """FCFS estimate: wait for the earliest-ending PE through the queue.

        A failed machine has ``_running`` empty, which used to make it look
        *idle* to schedulers; instead, PEs free up at the expected repair
        time (``repair_eta``), or never (``inf``) when no hint exists.
        """
        rate = self.rating * (1.0 - self._background)
        if self._failed:
            if self.repair_eta is None:
                return math.inf
            free_at = [max(self.repair_eta, self.sim.now)] * self.pes
        else:
            ends = sorted((r._completion.time if r._completion else self.sim.now)
                          for r in self._running)
            free_at = list(ends) + [self.sim.now] * (self.pes - len(ends))
            free_at.sort()
        for qr in self._queue:
            t0 = free_at.pop(0)
            # `remaining` is the checkpointed residue for evicted jobs.
            free_at.append(t0 + qr.remaining / rate)
            free_at.sort()
        return free_at[0] + length / rate

    def _start(self, run: JobRun) -> None:
        if run.started is None:
            run.started = self.sim.now
        # `remaining` equals `length` for fresh runs and the checkpointed
        # residue for runs evicted by a failure.
        service = run.remaining / (self.rating * (1.0 - self._background))
        run._completion = self.sim.schedule(service, self._depart, run,
                                            label=f"job_done:{self.name}")
        self._running[run] = None
        self._busy_level.set(self.sim.now, len(self._running))

    def _depart(self, run: JobRun) -> None:
        del self._running[run]
        self._busy_level.set(self.sim.now, len(self._running))
        self._finish_run(run)
        if self._queue and len(self._running) < self.pes:
            self._start(self._queue.pop(0))

    def _on_capacity_change(self, fraction: float) -> None:
        """Re-time running jobs at the new effective rating."""
        old_rate = self.rating * (1.0 - self._background)
        super()._on_capacity_change(fraction)
        new_rate = self.rating * (1.0 - self._background)
        for run in self._running:
            assert run._completion is not None
            left = (run._completion.time - self.sim.now) * old_rate  # MI left
            run.remaining = left  # keep failure checkpointing consistent
            run._completion.cancel()
            run._completion = self.sim.schedule(
                left / new_rate, self._depart, run, label=f"job_done:{self.name}")


class TimeSharedMachine(Machine, PSOwner):
    """Egalitarian processor sharing: every job runs at ``min(rating,
    total/n)`` MIPS.

    The per-job cap at one PE's rating mirrors real round-robin scheduling:
    a single job cannot use more than one processor.  Every active job
    gets the same share, so the jobs are one class on one virtual clock
    (MI served to each active job) behind the machine's one completion
    timer: an arrival costs O(log n) and at most one timer move, not n
    cancels and n pushes.
    """

    kind = "time-shared"

    def __init__(self, sim: Simulator, pes: int = 1, rating: float = 1000.0,
                 name: str = "time-shared") -> None:
        super().__init__(sim, pes, rating, name)
        PSOwner.__init__(self, sim, f"job_done:{name}")
        self._jobs = PSClass(sim)   #: the active jobs, keyed by length

    def submit(self, job) -> JobRun:
        run = self._new_run(job)
        run.started = self.sim.now  # PS admits immediately
        jobs = self._jobs
        jobs.settle()
        jobs.key(run, run.length)
        self._busy_level.set(self.sim.now, min(len(jobs.members), self.pes))
        self._rerate()
        self._arm()
        return run

    @property
    def running(self) -> int:
        return len(self._jobs.members)

    @property
    def queued(self) -> int:
        return 0  # PS has no queue; everyone runs (slowly)

    def estimated_completion(self, length: float) -> float:
        """PS estimate: finish time if one more job joined now."""
        return self.sim.now + length / self._share(len(self._jobs.members) + 1)

    def _share(self, n: int) -> float:
        """MIPS each of *n* active jobs gets at the current capacity."""
        return min(self.rating * (1.0 - self._background),
                   self.total_mips / n)

    def _rerate(self) -> None:
        """Give the jobs the share of their count at the current capacity
        (``v`` settled to now) and re-key the head."""
        jobs = self._jobs
        n = len(jobs.members)
        if n:
            jobs.rate = self._share(n)
        else:
            jobs.reset()
        self._rekey(jobs)

    def _finish(self, run: JobRun) -> None:
        run.remaining = 0.0
        self._busy_level.set(self.sim.now,
                             min(len(self._jobs.members), self.pes))
        self._finish_run(run)
        self._rerate()

    def _on_capacity_change(self, fraction: float) -> None:
        self._jobs.settle()
        super()._on_capacity_change(fraction)
        self._rerate()
        self._arm()
