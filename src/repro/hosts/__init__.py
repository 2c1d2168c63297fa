"""Host substrate: CPUs, storage devices, sites, background load.

The taxonomy's *host characteristics* layer: time/space-shared machines
(:mod:`~repro.hosts.cpu`), disks and tape (:mod:`~repro.hosts.storage`),
resource organizations — central and tier — (:mod:`~repro.hosts.site`),
and external-load injectors (:mod:`~repro.hosts.load`).
"""

from .aggregate import coarsen_grid
from .cpu import JobRun, Machine, SpaceSharedMachine, TimeSharedMachine
from .load import NetworkCrossTraffic, RandomBurstLoad
from .site import Grid, Site, central_grid, tier_grid
from .storage import Disk, MassStorage

__all__ = [
    "coarsen_grid",
    "JobRun",
    "Machine",
    "SpaceSharedMachine",
    "TimeSharedMachine",
    "Disk",
    "MassStorage",
    "Site",
    "Grid",
    "central_grid",
    "tier_grid",
    "NetworkCrossTraffic",
    "RandomBurstLoad",
]
