"""Sites: the resource-organization layer (farms, clusters, regional centres).

Taxonomy *host characteristics*: hosts "may contain computing, data storage,
and other resources, grouped into single or distributed systems", with two
canonical organizations the paper names explicitly — Bricks' **central
model** ("all the jobs are processed at a single site") and MONARC's
**tier model** ("jobs are processed according to their hierarchical
levels").

A :class:`Site` bundles machines and a disk behind one name that matches a
topology node, so middleware can say "run this job at RAL, reading file X
from CERN" and the right CPU, disk, and network costs compose.
:func:`central_grid` and :func:`tier_grid` build whole systems in the two
organizations; both return a :class:`Grid` — the container every simulator
model in :mod:`repro.simulators` starts from.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..network.flow import FlowNetwork
from ..network.topology import GBPS, Topology, star, tier_tree
from ..network.transfer import FileSpec, FileTransferService
from .cpu import JobRun, Machine, SpaceSharedMachine, TimeSharedMachine
from .storage import Disk

__all__ = ["Site", "Grid", "central_grid", "tier_grid"]


class Site:
    """One named location: machines + disk + position in the topology."""

    def __init__(self, sim: Simulator, name: str,
                 machines: Iterable[Machine] | None = None,
                 disk: Optional[Disk] = None, tier: int | None = None) -> None:
        self.sim = sim
        self.name = name
        self.machines: list[Machine] = list(machines or [])
        self.disk = disk
        self.tier = tier

    # -- compute ---------------------------------------------------------------

    @property
    def total_pes(self) -> int:
        """PEs summed over the site's machines."""
        return sum(m.pes for m in self.machines)

    @property
    def total_mips(self) -> float:
        """Effective MIPS summed over the site's machines."""
        return sum(m.total_mips for m in self.machines)

    @property
    def running_jobs(self) -> int:
        """Jobs currently executing at the site."""
        return sum(m.running for m in self.machines)

    @property
    def queued_jobs(self) -> int:
        """Jobs waiting in the site's machine queues."""
        return sum(m.queued for m in self.machines)

    def least_loaded_machine(self) -> Machine:
        """The machine with the fewest waiting+running jobs."""
        if not self.machines:
            raise ConfigurationError(f"site {self.name!r} has no machines")
        return min(self.machines, key=lambda m: (m.running + m.queued, m.name))

    def submit(self, job) -> JobRun:
        """Run *job* on the least-loaded machine."""
        return self.least_loaded_machine().submit(job)

    def estimated_completion(self, length: float) -> float:
        """Best completion estimate across this site's machines."""
        if not self.machines:
            return float("inf")
        return min(m.estimated_completion(length) for m in self.machines)

    # -- data ---------------------------------------------------------------------

    def has_file(self, name: str) -> bool:
        """True when the site disk holds *name*."""
        return self.disk is not None and self.disk.has(name)

    def store_file(self, file: FileSpec) -> None:
        """Seed a file on the site disk (eviction is ``ReplicaCatalog.land``'s)."""
        if self.disk is None:
            raise ConfigurationError(f"site {self.name!r} has no disk")
        self.disk.store(file)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Site {self.name!r} pes={self.total_pes} "
                f"files={len(self.disk.files) if self.disk else 0}>")


class Grid:
    """A whole simulated system: sites + topology + network + transfers.

    This is the object every simulator model in :mod:`repro.simulators`
    receives; it owns nothing scheduler-shaped — policy lives in
    :mod:`repro.middleware`.
    """

    def __init__(self, sim: Simulator, topology: Topology,
                 sites: Iterable[Site], efficiency: float = 0.92,
                 max_concurrent_transfers: int = 4,
                 transfer_attempts: int = 1,
                 transfer_backoff: float = 0.5) -> None:
        self.sim = sim
        self.topology = topology
        self.sites: dict[str, Site] = {}
        for s in sites:
            if s.name in self.sites:
                raise ConfigurationError(f"duplicate site name {s.name!r}")
            if not topology.has_node(s.name):
                raise ConfigurationError(
                    f"site {s.name!r} has no topology node")
            self.sites[s.name] = s
        self.network = FlowNetwork(sim, topology, efficiency=efficiency)
        self.transfers = FileTransferService(
            sim, self.network, max_concurrent_per_route=max_concurrent_transfers,
            max_attempts=transfer_attempts, retry_backoff=transfer_backoff)

    def site(self, name: str) -> Site:
        """The site by name (ConfigurationError if unknown)."""
        try:
            return self.sites[name]
        except KeyError:
            raise ConfigurationError(f"unknown site {name!r}") from None

    @property
    def site_names(self) -> list[str]:
        """All site names, sorted."""
        return sorted(self.sites)

    def sites_with_file(self, fname: str) -> list[Site]:
        """All sites whose disk currently holds *fname* — the one scan every
        :class:`~repro.middleware.catalog.ReplicaCatalog` query answers from."""
        return [s for s in self.sites.values() if s.has_file(fname)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Grid sites={len(self.sites)}>"


def central_grid(sim: Simulator, n_clients: int = 8, server_pes: int = 16,
                 rating: float = 1000.0, bandwidth: float = 1 * GBPS,
                 disk_capacity: float = 1e12,
                 time_shared: bool = True) -> Grid:
    """Bricks-style central model: clients around one processing server.

    All jobs are processed at the single ``server`` site; ``client-i``
    sites generate work and hold no compute.
    """
    if n_clients < 1:
        raise ConfigurationError("central_grid needs at least one client")
    clients = [f"client-{i}" for i in range(n_clients)]
    topo = star("server", clients, bandwidth)
    mk = TimeSharedMachine if time_shared else SpaceSharedMachine
    server = Site(sim, "server",
                  machines=[mk(sim, pes=server_pes, rating=rating, name="server-farm")],
                  disk=Disk(sim, disk_capacity, name="server-disk"))
    sites = [server] + [Site(sim, c) for c in clients]
    return Grid(sim, topo, sites)


def tier_grid(sim: Simulator, fanouts: tuple[int, ...] = (2, 3),
              bandwidths: tuple[float, ...] = (2.5 * GBPS, 0.622 * GBPS),
              pes_by_tier: tuple[int, ...] = (64, 32, 8),
              rating: float = 1000.0,
              disk_by_tier: tuple[float, ...] = (1e15, 1e14, 1e13),
              time_shared: bool = False) -> Grid:
    """MONARC-style tier model: T0 root, T1 regional centres, T2 below.

    ``pes_by_tier`` / ``disk_by_tier`` give per-site resources for tiers
    0..k; both must be one longer than ``fanouts``.
    """
    if len(pes_by_tier) != len(fanouts) + 1 or len(disk_by_tier) != len(fanouts) + 1:
        raise ConfigurationError(
            "pes_by_tier and disk_by_tier must have len(fanouts)+1 entries")
    topo = tier_tree(list(fanouts), list(bandwidths))
    mk = TimeSharedMachine if time_shared else SpaceSharedMachine
    sites = []
    for node in topo.nodes:
        tier = int(node[1:].split(".", 1)[0]) if node.startswith("T") else 0
        sites.append(Site(
            sim, node, tier=tier,
            machines=[mk(sim, pes=pes_by_tier[tier], rating=rating,
                         name=f"{node}-farm")],
            disk=Disk(sim, disk_by_tier[tier], name=f"{node}-disk")))
    return Grid(sim, topo, sites)
