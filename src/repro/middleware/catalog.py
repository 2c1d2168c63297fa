"""Replica catalog and Grid information service.

Two directory services every data grid assumes:

* :class:`ReplicaCatalog` — logical file name → the sites holding a
  physical copy, with best-replica selection by network cost.  OptorSim's
  optimizers, ChicagoSim's dataset scheduler, and MONARC's replication
  agent all consult it, and all of them place and fetch data through its
  :meth:`~ReplicaCatalog.land` and :meth:`~ReplicaCatalog.stage`.
* :class:`GridInformationService` — the resource-discovery side (GridSim's
  GIS): which sites exist, their capacity, and their current load, for
  schedulers that rank sites.

The site disks are the one owner of *which site holds which file*: the
catalog keeps no record of its own and answers every query from the
disks' inventories, so it cannot claim a replica that is not physically
present, nor miss one that is — by construction, not by bookkeeping.
"""

from __future__ import annotations

import math
from typing import Optional

from ..core.errors import CatalogError, RoutingError
from ..core.monitor import Monitor
from ..hosts.site import Grid, Site
from ..network.transfer import FileSpec

__all__ = ["ReplicaCatalog", "GridInformationService"]


class ReplicaCatalog:
    """Logical file name → sites holding a replica: a view of *grid*'s disks."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid

    # -- queries ------------------------------------------------------------------

    def locations(self, fname: str) -> list[str]:
        """Sites holding the file, sorted for determinism."""
        return sorted(s.name for s in self.grid.sites_with_file(fname))

    def replica_count(self, fname: str) -> int:
        """Number of sites holding a replica (0 if unknown)."""
        return len(self.grid.sites_with_file(fname))

    @property
    def files(self) -> list[str]:
        """All logical file names on any site disk, sorted."""
        return sorted({f.name for s in self.grid.sites.values()
                       if s.disk is not None for f in s.disk.files})

    def fetch_cost(self, size: float, src: str, dst: str) -> float:
        """Estimated seconds to move *size* bytes ``src -> dst``:
        size/bottleneck_bandwidth + path latency on the grid topology, and
        ``inf`` while there is no route (an access link is down) — ranking
        sources or targets must not crash the broker mid-outage; the fetch
        itself then fails on the no-route path."""
        topo = self.grid.topology
        try:
            return size / topo.bottleneck_bandwidth(src, dst) \
                + topo.path_latency(src, dst)
        except RoutingError:
            return math.inf

    def best_replica(self, fname: str, dst: str) -> str:
        """The holder of *fname* with the least :meth:`fetch_cost` to *dst*
        (a replica already at *dst* costs zero; ties go to the first name)."""
        holders = self.grid.sites_with_file(fname)
        if not holders:
            raise CatalogError(f"no replica of {fname!r} anywhere")
        sites = sorted(s.name for s in holders)
        if dst in sites:
            return dst
        size = holders[0].disk.get(fname).size
        return min(sites, key=lambda src: (self.fetch_cost(size, src, dst), src))

    # -- placement ----------------------------------------------------------------

    def land(self, file: FileSpec, dst: str, key=None) -> Optional[list[str]]:
        """The one rule for "a file lands at a site".

        Stores *file* on *dst*'s disk, first evicting the files that rank
        lowest under ``key(fname) -> sort key`` (least recently used when
        omitted; ``None`` vetoes a victim) — but never a file's last copy
        in the grid, and nothing at all unless enough can be freed.
        Returns the evicted names, or ``None`` when nothing was stored: the
        site is diskless, already holds the file, the file can never fit,
        or too little may be evicted.
        """
        disk = self.grid.site(dst).disk
        if disk is None or file.size > disk.capacity or disk.has(file.name):
            return None
        victims: list[str] = []
        used = disk.used
        if disk.capacity - used < file.size:
            if key is None:
                def key(n: str):
                    return (disk._last_access.get(n, 0.0), n)  # noqa: SLF001
            ranked = sorted((k, f.name, f.size) for f in disk.files
                            if (k := key(f.name)) is not None)
            for _, name, size in ranked:
                if self.replica_count(name) > 1:  # never the last copy
                    victims.append(name)
                    used -= size
                    if disk.capacity - used >= file.size:
                        break
            else:
                return None
            for name in victims:
                disk.delete(name)
        disk.store(file)
        return victims

    def stage(self, file: FileSpec, dst: str, monitor: Monitor,
              strategy=None, src: Optional[str] = None):
        """The one path for "a consumer at *dst* needs *file*".

        A local copy is touched and ``None`` returned.  Otherwise the file
        is fetched from *src* (the best replica when omitted) and the
        transfer ticket returned — callback callers ``_subscribe`` to it,
        process callers ``yield`` it — with the accounting already
        subscribed: a ticket that did not fail counts in *monitor* as one
        ``remote_fetches`` / ``remote_bytes`` and is offered to
        ``strategy.on_fetch``.  The caller owes the other half of the rule:
        a consumer whose ticket ends ``failed`` must not run (no data, no
        job).
        """
        site = self.grid.site(dst)
        if strategy is not None:
            strategy.on_access(file.name, dst)
        if site.has_file(file.name):
            site.disk.touch(file.name)
            return None
        if src is None:
            src = self.best_replica(file.name, dst)
        ticket = self.grid.transfers.fetch(file, src, dst)

        def account(done) -> None:
            if not done.failed:
                monitor.counter("remote_fetches").increment(self.grid.sim.now)
                monitor.tally("remote_bytes").record(file.size)
                if strategy is not None:
                    strategy.on_fetch(file, src, dst)

        ticket._subscribe(account)
        return ticket

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ReplicaCatalog files={len(self.files)}>"


class GridInformationService:
    """Site discovery + load queries (the GIS every broker consults)."""

    def __init__(self, grid: Grid) -> None:
        self.grid = grid

    def compute_sites(self) -> list[Site]:
        """Sites with at least one machine, sorted by name."""
        return [self.grid.sites[n] for n in self.grid.site_names
                if self.grid.sites[n].machines]

    def least_loaded_site(self) -> Site:
        """Fewest (running+queued) jobs per PE; ties broken by name."""
        sites = self.compute_sites()
        if not sites:
            raise CatalogError("no compute sites registered")
        return min(sites, key=lambda s: (
            (s.running_jobs + s.queued_jobs) / max(s.total_pes, 1), s.name))
