"""Jobs, gridlets, and DAG workflows — the unit of work middleware moves.

Taxonomy *middleware/user applications*: every surveyed simulator pushes
some notion of job through some notion of scheduler.  This module fixes one
job vocabulary for all six models:

* :class:`Job` — GridSim's "gridlet": compute length (MI), input files to
  stage, an output size, and optional economy attributes (deadline,
  budget) used by the GridSim model.
* :class:`JobState` — lifecycle; transitions are validated so a scheduler
  bug (running a job twice, finishing an unstaged job) fails loudly.
* :class:`Dag` — precedence-constrained workflows for SimGrid-style
  compile-time scheduling: topological order, levels, and the critical
  path that HEFT-style ranks derive from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from ..core.errors import ConfigurationError
from ..network.transfer import FileSpec

__all__ = ["JobState", "Job", "Dag"]


class JobState(enum.Enum):
    """Lifecycle: CREATED → QUEUED → STAGING → RUNNING → DONE (or FAILED)."""

    CREATED = "created"
    QUEUED = "queued"
    STAGING = "staging"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


_ALLOWED = {
    JobState.CREATED: {JobState.QUEUED, JobState.FAILED},
    JobState.QUEUED: {JobState.STAGING, JobState.RUNNING, JobState.FAILED},
    JobState.STAGING: {JobState.RUNNING, JobState.FAILED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED},
    JobState.DONE: set(),
    JobState.FAILED: set(),
}


@dataclass
class Job:
    """One schedulable unit of work.

    Parameters
    ----------
    length:
        Compute demand in MI (millions of instructions).
    input_files:
        Files that must be present at the execution site before running.
    output_size:
        Bytes produced (shipped back / stored by data-grid models).
    deadline, budget:
        Economy constraints (GridSim model); ``inf`` = unconstrained.
    """

    id: int
    length: float
    input_files: tuple[FileSpec, ...] = ()
    output_size: float = 0.0
    submitted: float = 0.0
    deadline: float = math.inf
    budget: float = math.inf
    state: JobState = JobState.CREATED
    site: Optional[str] = None
    started: Optional[float] = None
    finished: Optional[float] = None
    cost: float = 0.0
    #: diagnostic trail of (time, state) transitions
    history: list[tuple[float, JobState]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigurationError(f"job {self.id}: length must be > 0")
        if self.output_size < 0:
            raise ConfigurationError(f"job {self.id}: output_size must be >= 0")

    def transition(self, to: JobState, now: float) -> None:
        """Move to state *to*; illegal transitions raise."""
        if to not in _ALLOWED[self.state]:
            raise ConfigurationError(
                f"job {self.id}: illegal transition {self.state.value} -> {to.value}")
        self.state = to
        self.history.append((now, to))
        if to is JobState.RUNNING:
            self.started = now
        elif to in (JobState.DONE, JobState.FAILED):
            self.finished = now

    @property
    def turnaround(self) -> float:
        """Submission-to-completion time (NaN while unfinished)."""
        return (self.finished - self.submitted) if self.finished is not None else math.nan

    @property
    def met_deadline(self) -> bool:
        """True when the job finished at or before its deadline."""
        return self.finished is not None and self.finished <= self.deadline

    def __hash__(self) -> int:
        return self.id

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Job {self.id} len={self.length:.4g} {self.state.value}>"


class Dag:
    """A precedence DAG of jobs (SimGrid-style application model).

    Edges carry the bytes the parent must ship to the child (communication
    cost for list schedulers).
    """

    def __init__(self) -> None:
        self._jobs: dict[int, Job] = {}
        self._succ: dict[int, dict[int, float]] = {}
        self._pred: dict[int, dict[int, float]] = {}

    def add_job(self, job: Job) -> Job:
        """Register *job* as a DAG node; ids must be unique."""
        if job.id in self._jobs:
            raise ConfigurationError(f"duplicate job id {job.id}")
        self._jobs[job.id] = job
        self._succ[job.id] = {}
        self._pred[job.id] = {}
        return job

    def add_edge(self, parent: int, child: int, data: float = 0.0) -> None:
        """parent must finish (and ship *data* bytes) before child starts."""
        for jid in (parent, child):
            if jid not in self._jobs:
                raise ConfigurationError(f"unknown job id {jid}")
        if parent == child:
            raise ConfigurationError("self-dependency")
        self._succ[parent][child] = float(data)
        self._pred[child][parent] = float(data)
        if self._has_cycle():
            del self._succ[parent][child]
            del self._pred[child][parent]
            raise ConfigurationError(
                f"edge {parent}->{child} would create a cycle")

    # -- queries ---------------------------------------------------------------

    @property
    def jobs(self) -> list[Job]:
        """All jobs, in insertion order."""
        return list(self._jobs.values())

    def job(self, jid: int) -> Job:
        """The job with id *jid* (KeyError if absent)."""
        return self._jobs[jid]

    def predecessors(self, jid: int) -> dict[int, float]:
        """``{parent id: edge bytes}`` for *jid*."""
        return dict(self._pred[jid])

    def successors(self, jid: int) -> dict[int, float]:
        """``{child id: edge bytes}`` for *jid*."""
        return dict(self._succ[jid])

    def roots(self) -> list[Job]:
        """Jobs with no predecessors (the DAG's entry tasks)."""
        return [j for j in self._jobs.values() if not self._pred[j.id]]

    def topological_order(self) -> list[Job]:
        """Kahn's algorithm; deterministic (ready set ordered by id)."""
        indeg = {jid: len(p) for jid, p in self._pred.items()}
        ready = sorted(jid for jid, d in indeg.items() if d == 0)
        order = []
        while ready:
            jid = ready.pop(0)
            order.append(self._jobs[jid])
            opened = []
            for s in self._succ[jid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    opened.append(s)
            for s in sorted(opened):
                # insert keeping 'ready' sorted
                lo, hi = 0, len(ready)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if ready[mid] < s:
                        lo = mid + 1
                    else:
                        hi = mid
                ready.insert(lo, s)
        if len(order) != len(self._jobs):  # pragma: no cover - guarded by add_edge
            raise ConfigurationError("cycle detected")
        return order

    def _has_cycle(self) -> bool:
        try:
            indeg = {jid: len(p) for jid, p in self._pred.items()}
            ready = [jid for jid, d in indeg.items() if d == 0]
            seen = 0
            while ready:
                jid = ready.pop()
                seen += 1
                for s in self._succ[jid]:
                    indeg[s] -= 1
                    if indeg[s] == 0:
                        ready.append(s)
            return seen != len(self._jobs)
        except KeyError:  # pragma: no cover
            return True

    def __len__(self) -> int:
        return len(self._jobs)

    def __repr__(self) -> str:  # pragma: no cover
        edges = sum(len(s) for s in self._succ.values())
        return f"<Dag jobs={len(self._jobs)} edges={edges}>"
