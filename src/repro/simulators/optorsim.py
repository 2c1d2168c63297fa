"""OptorSim rebuilt: replication optimization on an EU-DataGrid-style grid.

Per the paper: "OptorSim is a Data Grid simulator ... developed by a team
of researchers working on WorkPackage 2 of the European DataGrid project,
which was responsible for replica management and optimization ...  The
objective of OptorSim is to investigate the stability and transient
behavior of replication optimization methods ...  Given a Grid topology and
resources, a set of jobs to be executed and an optimization strategy as
input, OptorSim runs a number of Grid jobs on the simulated Grid" using a
**pull** model of replication.

:class:`OptorSimModel` reproduces the evaluation loop: sites with a
Computing Element (CE) and Storage Element (SE) around a WAN; master files
seeded at CERN; jobs walk their fileset with one of OptorSim's four access
patterns (sequential / random / unitary walk / Gaussian walk, plus Zipf);
each access either hits the local SE or pulls from the best replica, with
the optimizer (:mod:`repro.middleware.replication` pull strategies)
deciding what to keep.  The headline metric is mean job time per optimizer
— benchmark E8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..core.monitor import Monitor
from ..core.process import Process
from ..hosts.cpu import SpaceSharedMachine
from ..hosts.site import Grid, Site
from ..hosts.storage import Disk
from ..middleware.catalog import ReplicaCatalog
from ..middleware.replication import (
    EconomicReplication,
    LfuReplication,
    LruReplication,
    NoReplication,
    ReplicationStrategy,
)
from ..network.topology import GBPS, eu_datagrid
from ..network.transfer import FileSpec
from ..workloads.access import ACCESS_PATTERNS

__all__ = ["OptorJob", "OptorSimModel", "OPTIMIZERS", "BROKER_POLICIES"]

#: Pull-optimizer registry, keyed as OptorSim's papers name them.
OPTIMIZERS = {
    "none": NoReplication,
    "lru": LruReplication,
    "lfu": LfuReplication,
    "economic": EconomicReplication,
}

#: Resource-broker site-selection policies from the OptorSim evaluations:
#: random placement, shortest CE queue, and minimal *access cost* (the sum
#: of estimated transfer times for the job's files from their best replicas).
BROKER_POLICIES = ("random", "queue-length", "access-cost")


@dataclass(slots=True)
class OptorJob:
    """One data-intensive grid job: a walk over file indices."""

    id: int
    site: str
    file_indices: list[float] | list[int]
    compute_per_file: float
    created: float
    finished: float = math.nan
    remote_reads: int = 0
    local_reads: int = 0

    @property
    def duration(self) -> float:
        """Job wall time from creation to completion."""
        return self.finished - self.created


class OptorSimModel:
    """The OptorSim evaluation harness.

    Parameters
    ----------
    optimizer:
        One of :data:`OPTIMIZERS`.
    access_pattern:
        One of :data:`~repro.workloads.access.ACCESS_PATTERNS`.
    n_files, file_size:
        The master dataset, seeded at the first site (CERN) whose SE is
        protected from eviction (the master store never loses data).
    se_capacity:
        Per-worker-site SE size in bytes; the replication pressure knob.
    """

    def __init__(self, sim: Simulator, optimizer: str = "lru",
                 access_pattern: str = "zipf", n_sites: int = 6,
                 n_files: int = 40, file_size: float = 1e9,
                 se_capacity: float = 1e10, files_per_job: int = 8,
                 compute_per_file: float = 500.0, pes: int = 2,
                 rating: float = 1000.0, wan_bandwidth: float = 2.5 * GBPS,
                 disk_rate: float = 1e9, broker: str = "random") -> None:
        if optimizer not in OPTIMIZERS:
            raise ConfigurationError(
                f"unknown optimizer {optimizer!r}; choose from {sorted(OPTIMIZERS)}")
        if access_pattern not in ACCESS_PATTERNS:
            raise ConfigurationError(
                f"unknown access pattern {access_pattern!r}")
        if broker not in BROKER_POLICIES:
            raise ConfigurationError(
                f"unknown broker policy {broker!r}; choose from {BROKER_POLICIES}")
        if n_sites < 1 or n_files < 1 or files_per_job < 1:
            raise ConfigurationError("n_sites, n_files, files_per_job must be >= 1")
        self.sim = sim
        self.optimizer_name = optimizer
        self.access_pattern = access_pattern
        self.broker = broker
        self.files_per_job = files_per_job
        self.compute_per_file = compute_per_file
        site_names = ["CERN"] + [f"site-{i}" for i in range(n_sites)]
        # SE disks are RAID-class (default 1 GB/s): a local hit must beat a
        # WAN fetch or no replication strategy could ever pay off.
        topo = eu_datagrid(site_names, wan_bandwidth=wan_bandwidth)
        sites = [Site(sim, "CERN", disk=Disk(sim, 1e15, name="CERN-SE",
                                             read_rate=disk_rate,
                                             write_rate=disk_rate))]
        self.worker_names = site_names[1:]
        self.machines = {}
        for name in self.worker_names:
            m = SpaceSharedMachine(sim, pes=pes, rating=rating, name=f"{name}-CE")
            self.machines[name] = m
            sites.append(Site(sim, name, machines=[m],
                              disk=Disk(sim, se_capacity, name=f"{name}-SE",
                                        read_rate=disk_rate,
                                        write_rate=disk_rate)))
        self.grid = Grid(sim, topo, sites)
        self.catalog = ReplicaCatalog(self.grid)
        self.files = [FileSpec(f"lfn-{i:04d}", file_size) for i in range(n_files)]
        for f in self.files:
            self.catalog.land(f, "CERN")
        self.strategy: ReplicationStrategy = OPTIMIZERS[optimizer](
            sim, self.grid, self.catalog, protected={"CERN"})
        self.monitor = Monitor("optorsim")
        self.completed: list[OptorJob] = []
        #: jobs abandoned because a file they needed never arrived
        self.failed: list[OptorJob] = []
        #: jobs dispatched to a site and not yet finished (staging included)
        self._outstanding: dict[str, int] = {n: 0 for n in self.worker_names}

    # -- workload ---------------------------------------------------------------

    def select_site(self, indices) -> str:
        """The Resource Broker: place a job per the configured policy."""
        if self.broker == "random":
            return self.sim.stream("optor-placement").choice(self.worker_names)
        if self.broker == "queue-length":
            # outstanding work at the site, staging included — the CE queue
            # alone is blind to jobs still waiting on their files
            return min(self.worker_names,
                       key=lambda n: (self._outstanding[n], n))
        # access-cost: estimated total staging time for the job's fileset
        def cost(site: str) -> tuple[float, str]:
            total = 0.0
            for idx in indices:
                f = self.files[int(idx)]
                if not self.grid.site(site).has_file(f.name):
                    src = self.catalog.best_replica(f.name, site)
                    total += self.catalog.fetch_cost(f.size, src, site)
            return (total, site)

        return min(self.worker_names, key=cost)

    def submit_jobs(self, n_jobs: int, inter_arrival: float = 10.0) -> None:
        """Poisson-submit *n_jobs*, placed by the broker policy."""
        arr = self.sim.stream("optor-arrivals")
        pattern_stream = self.sim.stream("optor-pattern")
        pattern_fn = ACCESS_PATTERNS[self.access_pattern]
        t = 0.0
        for i in range(n_jobs):
            indices = pattern_fn(pattern_stream, len(self.files),
                                 self.files_per_job)
            job = OptorJob(id=i, site="", file_indices=indices,
                           compute_per_file=self.compute_per_file, created=t)
            self.sim.schedule_at(t, self._place_and_start, job)
            t += arr.exponential(inter_arrival)

    def _place_and_start(self, job: OptorJob) -> None:
        # Placement happens at submission time so queue-length and
        # access-cost policies see the *current* grid state.
        job.site = self.select_site(job.file_indices)
        self._outstanding[job.site] += 1
        Process(self.sim, self._job_body, job)

    def _job_body(self, job: OptorJob):
        job.created = self.sim.now
        site = self.grid.site(job.site)
        for idx in job.file_indices:
            f = self.files[int(idx)]
            ticket = self.catalog.stage(f, job.site, self.monitor, self.strategy)
            if ticket is None:
                job.local_reads += 1
                yield site.disk.read(f.name)
            elif (yield ticket).failed:
                # an outage ate the fetch: no data, no job
                self._outstanding[job.site] -= 1
                self.failed.append(job)
                return
            else:
                job.remote_reads += 1
            # process this file's share of the job
            yield self.machines[job.site].submit(job.compute_per_file)
        job.finished = self.sim.now
        self._outstanding[job.site] -= 1
        self.completed.append(job)
        self.monitor.tally("job_time").record(job.duration)

    # -- results -------------------------------------------------------------------

    @property
    def mean_job_time(self) -> float:
        """Mean completed-job duration — the headline E8 metric."""
        return self.monitor.tally("job_time").mean

    def remote_fraction(self) -> float:
        """Fraction of file reads that crossed the WAN."""
        remote = sum(j.remote_reads for j in self.completed)
        total = sum(j.remote_reads + j.local_reads for j in self.completed)
        return remote / total if total else math.nan

    def run(self, n_jobs: int = 100, inter_arrival: float = 10.0) -> "OptorSimModel":
        """Convenience: submit, run to quiescence, return self."""
        self.submit_jobs(n_jobs, inter_arrival)
        self.sim.run()
        return self
