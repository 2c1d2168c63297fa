"""Scheduler library: the policies the surveyed simulators study.

The taxonomy's *middleware characteristics* ("how the middleware system
schedules the jobs for execution inside a Grid") and the paper's survey map
onto three scheduler families, all implemented against one interface:

**Online (dynamic) site selectors** — decide per job at dispatch time:
  :class:`RandomScheduler`, :class:`RoundRobinScheduler`,
  :class:`LeastLoadedScheduler`, :class:`FastestSiteScheduler`,
  :class:`PredictiveScheduler` (Bricks: monitoring + prediction),
  :class:`DataPresentScheduler` / :class:`LocalScheduler` (ChicagoSim's
  data-location policies).

**Batch (static) mappers** — plan a whole bag of independent tasks from an
estimated-time-to-complete matrix: :class:`MinMinScheduler`,
:class:`MaxMinScheduler`, :class:`SufferageScheduler` (the classic
Braun et al. heuristics SimGrid-era papers evaluated).

**DAG (compile-time) mappers** — :class:`HeftScheduler` list-schedules a
:class:`~repro.middleware.jobs.Dag` onto heterogeneous sites including
transfer costs — SimGrid's "all scheduling decisions taken before the
execution" category.  The runtime counterpart is simply using an online
selector per ready task (see :class:`~repro.middleware.broker.DagRunner`).
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

from ..core.errors import ConfigurationError
from ..core.rng import Stream
from ..hosts.site import Grid, Site
from .catalog import GridInformationService
from .jobs import Dag, Job

__all__ = [
    "SchedulingContext",
    "TaskScheduler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "LeastLoadedScheduler",
    "FastestSiteScheduler",
    "PredictiveScheduler",
    "DataPresentScheduler",
    "LocalScheduler",
    "BatchScheduler",
    "MinMinScheduler",
    "MaxMinScheduler",
    "SufferageScheduler",
    "HeftScheduler",
]


class SchedulingContext:
    """Everything a policy may look at: the grid and its information service."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid
        self.gis = GridInformationService(grid)

    def compute_site_names(self) -> list[str]:
        """Names of sites with at least one machine."""
        return [s.name for s in self.gis.compute_sites()]

    def site_rating(self, site: Site) -> float:
        """Best single-PE MIPS at a site (the ETC matrix's speed entry)."""
        return max((m.rating * (1 - m.background_load) for m in site.machines),
                   default=0.0)


class TaskScheduler(abc.ABC):
    """Online scheduler interface: pick a site for one job, now."""

    name = "abstract"

    @abc.abstractmethod
    def select_site(self, job: Job, ctx: SchedulingContext) -> str:
        """Return the site name to run *job* at."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}>"


class RandomScheduler(TaskScheduler):
    """Uniform random site — the baseline every comparison needs."""

    name = "random"

    def __init__(self, stream: Stream) -> None:
        self.stream = stream

    def select_site(self, job: Job, ctx: SchedulingContext) -> str:
        return self.stream.choice(ctx.compute_site_names())


class RoundRobinScheduler(TaskScheduler):
    """Cycle through compute sites in name order."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select_site(self, job: Job, ctx: SchedulingContext) -> str:
        names = ctx.compute_site_names()
        if not names:
            raise ConfigurationError("no compute sites")
        site = names[self._next % len(names)]
        self._next += 1
        return site


class LeastLoadedScheduler(TaskScheduler):
    """Monitoring-driven: site with fewest jobs per PE right now."""

    name = "least-loaded"

    def select_site(self, job: Job, ctx: SchedulingContext) -> str:
        return ctx.gis.least_loaded_site().name


class FastestSiteScheduler(TaskScheduler):
    """Greedy on raw capacity, blind to load."""

    name = "fastest"

    def select_site(self, job: Job, ctx: SchedulingContext) -> str:
        return max(ctx.gis.compute_sites(),
                   key=lambda s: (s.total_mips, s.name)).name


class PredictiveScheduler(TaskScheduler):
    """Bricks-style: pick the minimum *predicted completion time*.

    Uses each site's :meth:`~repro.hosts.site.Site.estimated_completion`
    (queue state + current effective rating, i.e. monitoring plus a
    current-conditions-persist prediction — exactly Bricks'
    NWS-flavoured predictor).
    """

    name = "predictive"

    def select_site(self, job: Job, ctx: SchedulingContext) -> str:
        sites = ctx.gis.compute_sites()
        if not sites:
            raise ConfigurationError("no compute sites")
        return min(sites, key=lambda s: (s.estimated_completion(job.length), s.name)).name


class DataPresentScheduler(TaskScheduler):
    """ChicagoSim's data-aware policy: run where the most input bytes are.

    Falls back to least-loaded among the tied sites (including the
    no-input case, where every site ties at zero).
    """

    name = "data-present"

    def select_site(self, job: Job, ctx: SchedulingContext) -> str:
        sites = ctx.gis.compute_sites()
        if not sites:
            raise ConfigurationError("no compute sites")

        def local_bytes(s: Site) -> float:
            return sum(f.size for f in job.input_files if s.has_file(f.name))

        best = max(local_bytes(s) for s in sites)
        tied = [s for s in sites if local_bytes(s) == best]
        return min(tied, key=lambda s: (
            (s.running_jobs + s.queued_jobs) / max(s.total_pes, 1), s.name)).name


class LocalScheduler(TaskScheduler):
    """Always run at a fixed home site (ChicagoSim's 'local' policy)."""

    name = "local"

    def __init__(self, home: str) -> None:
        self.home = home

    def select_site(self, job: Job, ctx: SchedulingContext) -> str:
        return self.home


# -- batch heuristics ---------------------------------------------------------------


class BatchScheduler(abc.ABC):
    """Static mapper: plan a whole bag of independent jobs at once.

    The plan is computed from the estimated-time-to-complete matrix
    ``etc[j][s] = job_j.length / rating(s)`` plus per-site accumulating
    ready times — the standard Braun et al. formulation.
    """

    name = "abstract-batch"

    def plan(self, jobs: Sequence[Job], ctx: SchedulingContext) -> dict[int, str]:
        sites = ctx.gis.compute_sites()
        if not sites:
            raise ConfigurationError("no compute sites")
        ratings = {s.name: ctx.site_rating(s) for s in sites}
        # Multiple PEs drain a site's queue faster: model each site as
        # `pes` lanes and track per-lane ready times.
        lanes = {s.name: [0.0] * max(s.total_pes, 1) for s in sites}
        unmapped = {j.id: j for j in jobs}
        mapping: dict[int, str] = {}
        while unmapped:
            choice = self._pick(unmapped, ratings, lanes)
            jid, site_name = choice
            job = unmapped.pop(jid)
            lane_times = lanes[site_name]
            i = min(range(len(lane_times)), key=lambda k: lane_times[k])
            lane_times[i] += job.length / ratings[site_name]
            mapping[jid] = site_name
        return mapping

    @staticmethod
    def _completion(job: Job, site: str, ratings: dict[str, float],
                    lanes: dict[str, list[float]]) -> float:
        return min(lanes[site]) + job.length / ratings[site]

    @abc.abstractmethod
    def _pick(self, unmapped: dict[int, Job], ratings: dict[str, float],
              lanes: dict[str, list[float]]) -> tuple[int, str]:
        """Choose the next (job id, site) pair to fix."""


class MinMinScheduler(BatchScheduler):
    """Map the job with the smallest best-case completion first."""

    name = "min-min"

    def _pick(self, unmapped, ratings, lanes):
        best = None
        for jid, job in sorted(unmapped.items()):
            site = min(ratings, key=lambda s: (self._completion(job, s, ratings, lanes), s))
            c = self._completion(job, site, ratings, lanes)
            if best is None or c < best[0]:
                best = (c, jid, site)
        return best[1], best[2]


class MaxMinScheduler(BatchScheduler):
    """Map the job with the *largest* best-case completion first —
    keeps long jobs from straggling at the end."""

    name = "max-min"

    def _pick(self, unmapped, ratings, lanes):
        best = None
        for jid, job in sorted(unmapped.items()):
            site = min(ratings, key=lambda s: (self._completion(job, s, ratings, lanes), s))
            c = self._completion(job, site, ratings, lanes)
            if best is None or c > best[0]:
                best = (c, jid, site)
        return best[1], best[2]


class SufferageScheduler(BatchScheduler):
    """Map the job that would *suffer* most if denied its best site."""

    name = "sufferage"

    def _pick(self, unmapped, ratings, lanes):
        best = None
        for jid, job in sorted(unmapped.items()):
            comps = sorted((self._completion(job, s, ratings, lanes), s)
                           for s in ratings)
            sufferage = (comps[1][0] - comps[0][0]) if len(comps) > 1 else 0.0
            if best is None or sufferage > best[0]:
                best = (sufferage, jid, comps[0][1])
        return best[1], best[2]


# -- DAG list scheduling --------------------------------------------------------------


class HeftScheduler:
    """Heterogeneous Earliest Finish Time for DAG workflows.

    Classic two-phase list scheduling: (1) upward ranks from average
    compute and communication costs; (2) greedy assignment of jobs in rank
    order to the site with the earliest finish time, charging transfer
    time ``data / bottleneck_bandwidth`` when parent and child sites
    differ.  This is the *compile time* scheduling category the paper
    attributes to SimGrid: every decision is fixed before execution.
    """

    name = "heft"

    def plan(self, dag: Dag, ctx: SchedulingContext) -> dict[int, str]:
        sites = ctx.gis.compute_sites()
        if not sites:
            raise ConfigurationError("no compute sites")
        ratings = {s.name: ctx.site_rating(s) for s in sites}
        avg_rate = sum(ratings.values()) / len(ratings)
        names = sorted(ratings)
        avg_bw = self._average_bandwidth(names, ctx)

        # Phase 1: upward ranks (reverse topological order).
        rank: dict[int, float] = {}
        for job in reversed(dag.topological_order()):
            succ = dag.successors(job.id)
            tail = max((data / avg_bw + rank[s] for s, data in succ.items()),
                       default=0.0)
            rank[job.id] = job.length / avg_rate + tail

        # Phase 2: EFT assignment in decreasing rank order.
        mapping: dict[int, str] = {}
        lanes = {s.name: [0.0] * max(s.total_pes, 1) for s in sites}
        finish: dict[int, float] = {}
        for job in sorted(dag.jobs, key=lambda j: (-rank[j.id], j.id)):
            best = None
            for sname in names:
                ready = 0.0
                for p, data in dag.predecessors(job.id).items():
                    comm = 0.0
                    if mapping[p] != sname and data > 0:
                        bw = ctx.grid.topology.bottleneck_bandwidth(mapping[p], sname)
                        comm = data / bw + ctx.grid.topology.path_latency(mapping[p], sname)
                    ready = max(ready, finish[p] + comm)
                lane_times = lanes[sname]
                i = min(range(len(lane_times)), key=lambda k: lane_times[k])
                start = max(ready, lane_times[i])
                eft = start + job.length / ratings[sname]
                if best is None or eft < best[0]:
                    best = (eft, sname, i, start)
            eft, sname, i, start = best
            lanes[sname][i] = eft
            finish[job.id] = eft
            mapping[job.id] = sname
        return mapping

    @staticmethod
    def _average_bandwidth(names: list[str], ctx: SchedulingContext) -> float:
        pairs = [(a, b) for a in names for b in names if a != b]
        if not pairs:
            return math.inf
        bws = [ctx.grid.topology.bottleneck_bandwidth(a, b) for a, b in pairs]
        finite = [b for b in bws if math.isfinite(b)]
        return sum(finite) / len(finite) if finite else math.inf
