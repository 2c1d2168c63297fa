"""ChicagoSim rebuilt: data-location scheduling with push replication.

Per the paper: "ChicagoSim ... is a modular and extensible discrete event
Data Grid simulator built on top of the C-based simulation language Parsec.
It is designed to investigate scheduling strategies in conjunction with
data location.  Its architecture includes a configurable number of
schedulers rather than one Resource Broker ...  It also allows for data
replication but with a 'push' model in which, when a site contains a
popular data file, it will replicate it to remote sites ...  A distributed
system in ChicagoSim is modeled as a collection of sites.  Each site has a
certain number of processors of equal capacity and limited storage."

:class:`ChicagoSimModel` reproduces the Ranganathan/Foster evaluation grid:
a set of equal-capacity sites with bounded storage; **external schedulers**
(one per submitting user, configurable count — not a single broker)
choosing a site per job by one of the data-location policies; a local FCFS
scheduler per site; and a **dataset scheduler** running the push strategy.
Benchmark E8 crosses job-placement policy × data strategy, the paper's own
experimental design.
"""

from __future__ import annotations

import math

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..hosts.cpu import SpaceSharedMachine
from ..hosts.site import Grid, Site
from ..hosts.storage import Disk
from ..middleware.broker import GridRunner
from ..middleware.catalog import ReplicaCatalog
from ..middleware.jobs import Job
from ..middleware.replication import NoReplication, PushReplication
from ..middleware.scheduling import (
    DataPresentScheduler,
    LeastLoadedScheduler,
    LocalScheduler,
    RandomScheduler,
    TaskScheduler,
)
from ..network.topology import Topology
from ..network.transfer import FileSpec
from ..workloads.access import zipf_requests

__all__ = ["ChicagoSimModel", "JOB_POLICIES", "DATA_POLICIES"]

JOB_POLICIES = ("random", "least-loaded", "data-present", "local")
DATA_POLICIES = ("none", "push")


class ChicagoSimModel:
    """Sites of equal processors + limited storage; schedulers × data policy.

    Parameters
    ----------
    n_sites, pes, rating:
        "Each site has a certain number of processors of equal capacity".
    storage:
        Per-site storage bound (bytes) — the "limited storage".
    n_schedulers:
        Number of external schedulers (users); jobs round-robin across
        them, each applies the same policy independently.
    job_policy, data_policy:
        The two evaluation axes.
    """

    def __init__(self, sim: Simulator, n_sites: int = 5, pes: int = 4,
                 rating: float = 1000.0, storage: float = 2e10,
                 n_datasets: int = 30, dataset_size: float = 1e9,
                 n_schedulers: int = 3, job_policy: str = "data-present",
                 data_policy: str = "push", bandwidth: float = 1e8,
                 push_threshold: int = 3, push_fanout: int = 2) -> None:
        if job_policy not in JOB_POLICIES:
            raise ConfigurationError(
                f"unknown job policy {job_policy!r}; choose from {JOB_POLICIES}")
        if data_policy not in DATA_POLICIES:
            raise ConfigurationError(
                f"unknown data policy {data_policy!r}; choose from {DATA_POLICIES}")
        if n_schedulers < 1:
            raise ConfigurationError("n_schedulers must be >= 1")
        self.sim = sim
        self.job_policy = job_policy
        self.data_policy = data_policy
        names = [f"site-{i}" for i in range(n_sites)]
        topo = Topology()
        topo.add_node("net")
        sites = []
        for n in names:
            topo.add_link(n, "net", bandwidth, 0.002)
            sites.append(Site(
                sim, n,
                machines=[SpaceSharedMachine(sim, pes=pes, rating=rating,
                                             name=f"{n}-cpu")],
                disk=Disk(sim, storage, name=f"{n}-store")))
        self.grid = Grid(sim, topo, sites)
        self.catalog = ReplicaCatalog(self.grid)
        # Datasets start scattered round-robin across sites (the paper's
        # initial placement), never evicted at their home (master copies).
        self.datasets = [FileSpec(f"ds-{i:03d}", dataset_size)
                         for i in range(n_datasets)]
        for i, ds in enumerate(self.datasets):
            self.catalog.land(ds, names[i % n_sites])
        if data_policy == "push":
            self.strategy = PushReplication(
                sim, self.grid, self.catalog, threshold=push_threshold,
                fanout=push_fanout)
        else:
            self.strategy = NoReplication(sim, self.grid, self.catalog)
        self.schedulers = [self._make_policy(job_policy, k)
                           for k in range(n_schedulers)]
        self.runners = [GridRunner(sim, self.grid, scheduler=s,
                                   catalog=self.catalog,
                                   replication=self.strategy)
                        for s in self.schedulers]

    def _make_policy(self, policy: str, k: int) -> TaskScheduler:
        if policy == "random":
            return RandomScheduler(self.sim.stream(f"extsched-{k}"))
        if policy == "least-loaded":
            return LeastLoadedScheduler()
        if policy == "data-present":
            return DataPresentScheduler()
        return LocalScheduler(f"site-{k % len(self.grid.sites)}")

    # -- workload ------------------------------------------------------------------

    def submit_jobs(self, n_jobs: int, mean_length: float = 2000.0,
                    inter_arrival: float = 5.0, zipf_s: float = 1.0) -> list[Job]:
        """Zipf-popular single-dataset jobs, spread over the schedulers."""
        arr = self.sim.stream("chi-arrivals")
        lengths = self.sim.stream("chi-lengths")
        picks = zipf_requests(self.sim.stream("chi-popularity"),
                              len(self.datasets), n_jobs, s=zipf_s)
        jobs = []
        t = 0.0
        for i in range(n_jobs):
            jobs.append(Job(
                id=i, submitted=t,
                length=lengths.normal(mean_length, 0.3 * mean_length,
                                      floor=0.1 * mean_length),
                input_files=(self.datasets[picks[i]],)))
            t += arr.exponential(inter_arrival)
        # round-robin across the external schedulers
        for k, runner in enumerate(self.runners):
            runner.submit_all(jobs[k::len(self.runners)])
        return jobs

    # -- results ------------------------------------------------------------------

    @property
    def completed(self) -> list[Job]:
        """Completed jobs across all external schedulers."""
        return [j for r in self.runners for j in r.completed]

    @property
    def mean_turnaround(self) -> float:
        """Mean turnaround over all completed jobs."""
        vals = [j.turnaround for j in self.completed]
        return sum(vals) / len(vals) if vals else math.nan

    def remote_fraction(self) -> float:
        """Fraction of input reads that crossed the network."""
        fetched = sum(r.monitor.counter("remote_fetches").count
                      for r in self.runners)
        total = sum(r.monitor.counter("input_reads").count
                    for r in self.runners)
        return fetched / total if total else math.nan

    def run(self, n_jobs: int = 100, **kw) -> "ChicagoSimModel":
        self.submit_jobs(n_jobs, **kw)
        self.sim.run()
        return self
