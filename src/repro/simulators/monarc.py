"""MONARC 2 rebuilt: the process-oriented tier-model simulator.

Per the paper: "Its simulation model is based on the characteristics of the
LHC physics experiments, and is organized in the form of a hierarchy of
different sites that are grouped into levels called tiers ...  MONARC 2 is
built based on a process oriented approach for discrete event simulation
... Threaded objects or 'Active Objects' ... allow a natural way to map the
specific behavior of distributed data processing into the simulation
program ...  The largest [component] is the regional center, which contains
a farm of processing nodes (CPU units), database servers and mass storage
units, as well as one or more local and wide area networks.  Another set of
components model the behavior of the applications ... the 'Users' or
'Activity' objects which are used to generate data processing jobs based on
different scenarios.  The job is another basic component ... scheduled for
execution on a CPU unit by a 'Job Scheduler' object."

Everything here is built in that style: regional centres are resource
bundles; **Activities are processes** (:class:`~repro.core.process.Process`
generators) that produce files or jobs; the **data replication agent**
(:class:`~repro.middleware.replication.DataReplicationAgent`) streams T0
output to the T1 centres.  The model's signature experiment — the
Legrand 2005 T0/T1 study behind benchmark E5 — is packaged as
:meth:`MonarcModel.run_t0_t1_study`.
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
from ..hosts.storage import Disk, MassStorage
from ..middleware.catalog import ReplicaCatalog
from ..middleware.replication import DataReplicationAgent
from ..network.topology import GBPS, Topology
from ..workloads.lhc import ATLAS_2005, CMS_2005, ExperimentSpec, production_schedule

__all__ = ["RegionalCentre", "MonarcModel", "StudyResult"]


@dataclass(slots=True)
class RegionalCentre:
    """One tier centre: CPU farm + database disk + mass storage."""

    site: Site
    tier: int


@dataclass(slots=True)
class StudyResult:
    """Outcome of one T0/T1 replication study configuration."""

    uplink_gbps: float
    agent_enabled: bool
    produced_files: int
    replicated_files: int
    final_backlog_files: int
    peak_backlog_files: int
    mean_transfer_time: float
    backlog_series: list[tuple[float, float]]

    @property
    def diverged(self) -> bool:
        """Backlog still growing at the end — capacity insufficient."""
        return self.final_backlog_files > 0.5 * self.peak_backlog_files \
            and self.peak_backlog_files > 10


class MonarcModel:
    """Tier-model grid with activities, a job scheduler, and the agent.

    Topology matches the real CERN layout the study assumed: T0 reaches
    the WAN through **one shared uplink** (the 2.5 Gbps under test); each
    T1 has an ample private access link, so the uplink is the only
    possible bottleneck.
    """

    def __init__(self, sim: Simulator, n_tier1: int = 3,
                 uplink_gbps: float = 2.5, t1_link_gbps: float = 10.0,
                 t0_pes: int = 64, t1_pes: int = 32, rating: float = 1000.0,
                 agent_enabled: bool = True, agent_streams: int = 8,
                 n_tier2_per_t1: int = 0, t2_link_gbps: float = 1.0,
                 t2_pes: int = 8) -> None:
        if n_tier1 < 1:
            raise ConfigurationError("need at least one Tier-1 centre")
        if n_tier2_per_t1 < 0:
            raise ConfigurationError("n_tier2_per_t1 must be >= 0")
        if uplink_gbps <= 0 or t1_link_gbps <= 0 or t2_link_gbps <= 0:
            raise ConfigurationError("link capacities must be > 0")
        self.sim = sim
        self.agent_enabled = agent_enabled
        topo = Topology()
        topo.add_node("WAN", kind="backbone")
        topo.add_link("T0", "WAN", uplink_gbps * GBPS, 0.005)
        t1_names = [f"T1.{i}" for i in range(n_tier1)]
        for n in t1_names:
            topo.add_link(n, "WAN", t1_link_gbps * GBPS, 0.01)
        # T2 centres hang off their T1 parent directly (the tier hierarchy:
        # a T2 reaches T0 only *through* its region's T1).
        tier_specs: list[tuple[str, int, int]] = \
            [("T0", 0, t0_pes)] + [(n, 1, t1_pes) for n in t1_names]
        self.t2_names: list[str] = []
        for parent in t1_names:
            for k in range(n_tier2_per_t1):
                name = f"T2.{parent.split('.')[1]}.{k}"
                topo.add_link(name, parent, t2_link_gbps * GBPS, 0.005)
                tier_specs.append((name, 2, t2_pes))
                self.t2_names.append(name)
        self.centres: dict[str, RegionalCentre] = {}
        sites = []
        for name, tier, pes in tier_specs:
            site = Site(
                self.sim, name, tier=tier,
                machines=[SpaceSharedMachine(sim, pes=pes, rating=rating,
                                             name=f"{name}-farm")],
                disk=Disk(sim, 1e16, read_rate=1e9, write_rate=1e9,
                          name=f"{name}-db"))
            sites.append(site)
            self.centres[name] = RegionalCentre(site, tier)
        self.tape = MassStorage(sim, name="T0-mss")
        self.grid = Grid(sim, topo, sites, max_concurrent_transfers=agent_streams)
        self.catalog = ReplicaCatalog(self.grid)
        self.t1_names = t1_names
        self.agent: DataReplicationAgent | None = None
        if agent_enabled:
            self.agent = DataReplicationAgent(
                sim, self.grid, self.catalog, source="T0", targets=t1_names,
                max_in_flight=agent_streams)
        self.monitor = Monitor("monarc")
        self.produced = []
        self._pull_backlogs: dict[str, int] = {n: 0 for n in t1_names}

    # -- activities (active objects) ------------------------------------------------

    def production_activity(self, experiments: list[ExperimentSpec],
                            horizon: float) -> None:
        """The T0 'Activity': write RAW files, archive, announce to the agent.

        A file T0's disk cannot take (full of last copies) is archived to
        tape only and counted in ``files_unstored``: it is not in
        :attr:`produced`, and nobody is told to ship it — no data, no
        transfer.
        """
        schedule = production_schedule(
            self.sim.stream("monarc-production"), experiments, horizon)

        def activity():
            for t, f in schedule:
                yield max(0.0, t - self.sim.now)
                stored = self.catalog.land(f, "T0") is not None
                self.tape.store(f)  # archival copy
                if not stored:
                    self.monitor.counter("files_unstored").increment(self.sim.now)
                    continue
                self.produced.append(f)
                if self.agent is not None:
                    self.agent.announce(f)
                else:
                    # pull mode: every T1 must fetch on its own
                    for n in self.t1_names:
                        self._pull_backlogs[n] += 1
                        ticket = self.grid.transfers.fetch(f, "T0", n)
                        ticket._subscribe(
                            lambda t, f=f, n=n: self._pulled(t, f, n))

        Process(self.sim, activity, name="production-activity")

    def _pulled(self, ticket, f, n: str) -> None:
        if ticket.failed:
            return  # an outage ate the fetch: the file stays outstanding at n
        self._pull_backlogs[n] -= 1
        self.catalog.land(f, n)

    def analysis_activity(self, centre: str, n_jobs: int,
                          mi_per_byte: float = 1e-5,
                          think_time: float = 50.0) -> None:
        """A T1 'Users' object: analysis jobs over whatever data is local."""
        if centre not in self.centres:
            raise ConfigurationError(f"unknown centre {centre!r}")

        def activity():
            stream = self.sim.stream(f"analysis-{centre}")
            site = self.centres[centre].site
            done = 0
            dry_polls = 0
            while done < n_jobs:
                yield stream.exponential(think_time)
                if not self.produced:
                    # production has not started yet: poll again (bounded,
                    # so an analysis-only configuration still terminates)
                    dry_polls += 1
                    if dry_polls > 1000:
                        return
                    continue
                done += 1
                f = self.produced[stream.zipf(len(self.produced), 1.1)]
                ticket = self.catalog.stage(f, centre, self.monitor)
                if ticket is None:
                    yield site.disk.read(f.name)
                elif (yield ticket).failed:
                    self.monitor.counter("analysis_failed_reads").increment(self.sim.now)
                    continue  # an outage ate the fetch: no data, no job
                job_run = yield site.submit(max(f.size * mi_per_byte, 1.0))
                self.monitor.tally("analysis_turnaround").record(
                    job_run.finished - job_run.submitted)

        Process(self.sim, activity, name=f"analysis-{centre}")

    # -- instrumentation --------------------------------------------------------------

    def replication_backlog(self) -> int:
        """Files produced but not landed at every T1 (given-up ones stay)."""
        if self.agent is not None:
            return (self.agent.total_backlog + self.agent.abandoned
                    + sum(self.agent._in_flight.values()))  # noqa: SLF001
        return sum(self._pull_backlogs.values())

    def sample_backlog(self, period: float, horizon: float) -> list[tuple[float, float]]:
        """Arrange periodic backlog sampling; returns the live series list."""
        series: list[tuple[float, float]] = []

        def sampler():
            while self.sim.now < horizon:
                series.append((self.sim.now, float(self.replication_backlog())))
                yield period
            series.append((self.sim.now, float(self.replication_backlog())))

        Process(self.sim, sampler, name="backlog-sampler")
        return series

    # -- the signature experiment -------------------------------------------------------

    def run_t0_t1_study(self, horizon: float = 3600.0,
                        experiments: list[ExperimentSpec] | None = None,
                        sample_period: float = 60.0) -> StudyResult:
        """The Legrand-2005 study: produce for *horizon*, replicate, measure."""
        exps = experiments if experiments is not None else [CMS_2005, ATLAS_2005]
        series = self.sample_backlog(sample_period, horizon)
        self.production_activity(exps, horizon)
        self.sim.run()
        replicated = (self.agent.shipped if self.agent is not None
                      else self.grid.transfers.completed)
        xfer = self.grid.transfers.monitor.tally("total_time")
        backlogs = [b for _, b in series]
        uplink = self.grid.topology.link("T0", "WAN").bandwidth / GBPS
        return StudyResult(
            uplink_gbps=uplink,
            agent_enabled=self.agent_enabled,
            produced_files=len(self.produced),
            replicated_files=replicated,
            final_backlog_files=int(backlogs[-1]) if backlogs else 0,
            peak_backlog_files=int(max(backlogs)) if backlogs else 0,
            mean_transfer_time=xfer.mean,
            backlog_series=series,
        )
