"""Execution harnesses: brokers that drive jobs through a grid.

Where :mod:`~repro.middleware.scheduling` holds pure *policy*, this module
holds the *mechanism*: entities that accept jobs, consult a policy, stage
data, submit to machines, and collect statistics.  Three harnesses cover
the execution styles of the surveyed simulators:

:class:`GridRunner`
    Push-mode broker for independent jobs — Bricks/GridSim style.  A job is
    dispatched at its submission time to the site the policy picks (or a
    static batch plan fixes), inputs are staged from best replicas, the
    output lands at the execution site.
:class:`WorkQueueRunner`
    Pull-mode self-scheduling: one central queue, each free PE grabs the
    next job ("WorkQueue" in the scheduling literature) — the simplest
    *runtime* scheduling category.
:class:`DagRunner`
    Workflow execution honouring precedence and inter-task data movement —
    SimGrid's application model, runnable from a compile-time HEFT plan or
    a runtime per-ready-task policy (benchmark E9 compares the two).

All three move data through :meth:`ReplicaCatalog.stage
<repro.middleware.catalog.ReplicaCatalog.stage>` and share its rule — no
data, no job: a job whose input (or DAG edge) transfer ends ``failed`` goes
``JobState.FAILED`` into ``failed`` without running, and a DAG never
releases its descendants.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional, Sequence

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.monitor import Monitor
from ..hosts.site import Grid
from ..network.transfer import FileSpec
from .catalog import ReplicaCatalog
from .jobs import Dag, Job, JobState
from .scheduling import BatchScheduler, SchedulingContext, TaskScheduler

__all__ = ["GridRunner", "WorkQueueRunner", "DagRunner"]


class _RunnerBase:
    """Shared staging/completion machinery for all harnesses."""

    def __init__(self, sim: Simulator, grid: Grid,
                 catalog: Optional[ReplicaCatalog] = None,
                 replication=None, name: str = "runner") -> None:
        self.sim = sim
        self.grid = grid
        self.catalog = catalog if catalog is not None else ReplicaCatalog(grid)
        self.replication = replication
        self.ctx = SchedulingContext(grid)
        self.monitor = Monitor(name)
        self.completed: list[Job] = []
        #: jobs whose input (or DAG edge) data never arrived: they never ran
        self.failed: list[Job] = []

    # -- staging ------------------------------------------------------------------

    def _stage_inputs(self, job: Job, site_name: str, then) -> None:
        """Fetch missing input files to *site_name*, then call ``then()``."""
        tickets = [self.catalog.stage(f, site_name, self.monitor, self.replication)
                   for f in job.input_files]
        if any(t is not None for t in tickets):
            job.transition(JobState.STAGING, self.sim.now)
        self._when_landed(tickets, job, site_name, then)

    def _when_landed(self, tickets, job: Job, site_name: str, then) -> None:
        """Call ``then()`` once every ticket (``None`` = nothing to wait for)
        completed — or, no data, no job: fail *job* instead when any of
        them ended ``failed``."""
        tickets = [t for t in tickets if t is not None]
        pending = [len(tickets)]

        def one_done(_ticket) -> None:
            pending[0] -= 1
            if pending[0] == 0:
                if any(t.failed for t in tickets):
                    self._job_failed(job, site_name)
                else:
                    then()

        if not tickets:
            then()
        for t in tickets:
            t._subscribe(one_done)

    def _job_failed(self, job: Job, site_name: str) -> None:
        if job.state is JobState.FAILED:
            return  # a DAG child can lose more than one edge
        job.transition(JobState.FAILED, self.sim.now)
        self.failed.append(job)

    def _execute(self, job: Job, site_name: str) -> None:
        site = self.grid.site(site_name)
        if job.state is not JobState.RUNNING:
            job.transition(JobState.RUNNING, self.sim.now)
        run = site.submit(job)
        run._subscribe(lambda _r: self._job_done(job, site_name))

    def _job_done(self, job: Job, site_name: str) -> None:
        job.transition(JobState.DONE, self.sim.now)
        self.completed.append(job)
        self.monitor.tally("turnaround").record(job.turnaround)
        self.monitor.counter(f"jobs@{site_name}").increment(self.sim.now)
        if job.output_size > 0:
            self.catalog.land(FileSpec(f"out-{job.id}", job.output_size), site_name)
        self._after_completion(job, site_name)

    def _after_completion(self, job: Job, site_name: str) -> None:
        """Hook for pull-mode / DAG continuation."""

    # -- reporting ------------------------------------------------------------------

    @property
    def mean_turnaround(self) -> float:
        """Mean job turnaround over completed jobs."""
        return self.monitor.tally("turnaround").mean

    @property
    def makespan(self) -> float:
        """Last completion minus first submission (NaN before any finish)."""
        if not self.completed:
            return math.nan
        return (max(j.finished for j in self.completed)
                - min(j.submitted for j in self.completed))

    def remote_fraction(self) -> float:
        """Fraction of input reads that needed a network fetch."""
        fetched = self.monitor.counter("remote_fetches").count
        total = self.monitor.counter("input_reads").count
        return fetched / total if total else 0.0


class GridRunner(_RunnerBase):
    """Push-mode broker: policy-per-job or a static batch plan.

    Pass either ``scheduler`` (an online :class:`TaskScheduler`) or
    ``batch`` (a :class:`BatchScheduler`, whose plan is computed over the
    first ``submit_all`` call's jobs).
    """

    def __init__(self, sim: Simulator, grid: Grid,
                 scheduler: Optional[TaskScheduler] = None,
                 batch: Optional[BatchScheduler] = None,
                 catalog: Optional[ReplicaCatalog] = None,
                 replication=None) -> None:
        if (scheduler is None) == (batch is None):
            raise ConfigurationError("provide exactly one of scheduler / batch")
        super().__init__(sim, grid, catalog, replication, name="grid-runner")
        self.scheduler = scheduler
        self.batch = batch
        self._plan: dict[int, str] = {}

    def submit_all(self, jobs: Sequence[Job]) -> None:
        """Register a bag of jobs; each dispatches at its ``submitted`` time."""
        if self.batch is not None:
            self._plan.update(self.batch.plan(jobs, self.ctx))
        for job in jobs:
            self.sim.schedule_at(max(job.submitted, self.sim.now),
                                 self._dispatch, job, label="dispatch")

    def _dispatch(self, job: Job) -> None:
        for f in job.input_files:
            self.monitor.counter("input_reads").increment(self.sim.now)
        site_name = (self._plan[job.id] if self.batch is not None
                     else self.scheduler.select_site(job, self.ctx))
        job.site = site_name
        job.transition(JobState.QUEUED, self.sim.now)
        self._stage_inputs(job, site_name, lambda: self._execute(job, site_name))


class WorkQueueRunner(_RunnerBase):
    """Pull-mode self-scheduling: free PEs drain one central queue.

    The runtime-scheduling baseline: no estimates, no plan — naturally
    load-balancing under background-load churn, at the cost of ignoring
    data locality and heterogeneity.
    """

    def __init__(self, sim: Simulator, grid: Grid,
                 catalog: Optional[ReplicaCatalog] = None,
                 replication=None) -> None:
        super().__init__(sim, grid, catalog, replication, name="workqueue")
        self._queue: deque[Job] = deque()
        self._free: dict[str, int] = {
            s.name: s.total_pes for s in self.ctx.gis.compute_sites()}

    def submit_all(self, jobs: Sequence[Job]) -> None:
        """Enqueue jobs at their submission times; free PEs pull them."""
        for job in jobs:
            self.sim.schedule_at(max(job.submitted, self.sim.now),
                                 self._enqueue, job, label="enqueue")

    def _enqueue(self, job: Job) -> None:
        for f in job.input_files:
            self.monitor.counter("input_reads").increment(self.sim.now)
        job.transition(JobState.QUEUED, self.sim.now)
        self._queue.append(job)
        self._fill()

    def _fill(self) -> None:
        while self._queue:
            # fastest free site first: self-scheduling still prefers speed
            candidates = [n for n, k in self._free.items() if k > 0]
            if not candidates:
                return
            site_name = max(candidates, key=lambda n: (
                self.ctx.site_rating(self.grid.site(n)), n))
            self._free[site_name] -= 1
            job = self._queue.popleft()
            job.site = site_name
            self._stage_inputs(job, site_name,
                               lambda j=job, s=site_name: self._execute(j, s))

    def _after_completion(self, job: Job, site_name: str) -> None:
        self._free[site_name] += 1
        self._fill()

    def _job_failed(self, job: Job, site_name: str) -> None:
        super()._job_failed(job, site_name)
        self._after_completion(job, site_name)  # the PE slot comes back


class DagRunner(_RunnerBase):
    """Workflow execution with precedence and inter-site data movement.

    ``plan`` fixes every placement up front (compile-time scheduling);
    ``scheduler`` decides per ready task (runtime scheduling).  Edge data
    ships ``parent site -> child site`` through the grid's transfer
    service; a child starts when all parents finished *and* their data
    arrived.
    """

    def __init__(self, sim: Simulator, grid: Grid, dag: Dag,
                 plan: Optional[dict[int, str]] = None,
                 scheduler: Optional[TaskScheduler] = None) -> None:
        if (plan is None) == (scheduler is None):
            raise ConfigurationError("provide exactly one of plan / scheduler")
        super().__init__(sim, grid, name="dag-runner")
        self.dag = dag
        self.plan = plan
        self.scheduler = scheduler
        self._waiting_deps: dict[int, int] = {}
        self._started = False

    def start(self) -> None:
        """Release the DAG's root tasks (call once, then run the sim)."""
        if self._started:
            raise ConfigurationError("DagRunner.start() called twice")
        self._started = True
        for job in self.dag.jobs:
            self._waiting_deps[job.id] = len(self.dag.predecessors(job.id))
            job.submitted = self.sim.now
        for job in self.dag.roots():
            self.sim.schedule(0.0, self._release, job, label="dag_root")

    def _release(self, job: Job) -> None:
        site_name = (self.plan[job.id] if self.plan is not None
                     else self.scheduler.select_site(job, self.ctx))
        job.site = site_name
        job.transition(JobState.QUEUED, self.sim.now)
        # Runtime mode: the placement was only just decided, so parent data
        # ships now (no compute/communication overlap — the intrinsic
        # handicap of runtime DAG scheduling).  A plan shipped it already.
        edges = [] if self.plan is not None else [
            self._ship_edge(self.dag.job(pid), job, data, site_name)
            for pid, data in self.dag.predecessors(job.id).items()]
        self._when_landed(edges, job, site_name,
                          lambda: self._execute(job, site_name))

    def _ship_edge(self, parent: Job, child: Job, data: float, dst: str):
        """The ticket moving one edge's data to *dst* (None: nothing to move)."""
        if data <= 0 or parent.site == dst:
            return None
        return self.catalog.stage(FileSpec(f"edge-{parent.id}-{child.id}", data),
                                  dst, self.monitor, src=parent.site)

    def _after_completion(self, job: Job, site_name: str) -> None:
        for child_id, data in self.dag.successors(job.id).items():
            child = self.dag.job(child_id)
            # Compile-time mode knows the child's placement already, so the
            # edge data ships eagerly at parent completion — communication
            # overlaps with unrelated compute, HEFT's key advantage.
            edge = (self._ship_edge(job, child, data, self.plan[child_id])
                    if self.plan is not None else None)
            self._when_landed([edge], child, site_name,
                              lambda c=child: self._countdown(c))

    def _countdown(self, child: Job) -> None:
        self._waiting_deps[child.id] -= 1
        if self._waiting_deps[child.id] == 0:
            self._release(child)

    @property
    def makespan(self) -> float:
        """Workflow completion time (NaN until every task is done)."""
        if len(self.completed) != len(self.dag):
            return math.nan
        return max(j.finished for j in self.completed)
