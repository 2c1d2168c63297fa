"""Model simplification: aggregating resources to simulate larger systems.

Taxonomy §5 names the engine-side remedies for scale — better event queues,
better entity scheduling, "various simplification mechanisms".  This module
is the third remedy: :func:`coarsen_grid` *coarsens* a detailed grid into
an equivalent smaller one, trading per-site fidelity for event volume.  It
merges groups of sites into super-sites on a star topology: each group's
machines become one space-shared machine (PEs sum, total MIPS preserved,
one pooled queue instead of per-machine queues), disk capacities sum,
group access bandwidth sums (members can transfer in parallel) and latency
averages.  Intra-group transfers become free — the approximation that
breaks first when intra-group traffic matters, which E14's error columns
expose.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from .cpu import SpaceSharedMachine
from .site import Grid, Site
from .storage import Disk
from ..network.topology import Topology

__all__ = ["coarsen_grid"]


def coarsen_grid(sim: Simulator, grid: Grid,
                 groups: Mapping[str, Sequence[str]],
                 hub: str = "AGG-WAN", latency: float | None = None) -> Grid:
    """Build a coarse :class:`Grid` on *sim* by merging site groups.

    Parameters
    ----------
    sim:
        The (fresh) simulator the coarse model will run on.
    grid:
        The detailed grid to read resource totals from.
    groups:
        ``{super_site_name: [member site names]}``; every compute/storage
        site being modelled must appear in exactly one group.
    latency:
        Access-link latency for the coarse star (default: mean of the
        members' first-hop latencies).
    """
    if not groups:
        raise ConfigurationError("need at least one group")
    seen: set[str] = set()
    for members in groups.values():
        for m in members:
            if m in seen:
                raise ConfigurationError(f"site {m!r} appears in two groups")
            seen.add(m)
            grid.site(m)  # validates existence
    topo = Topology()
    topo.add_node(hub, kind="backbone")
    sites = []
    for gname, members in sorted(groups.items()):
        msites = [grid.site(m) for m in members]
        # -- compute: sum PEs, preserve total MIPS -----------------------------
        pes = sum(s.total_pes for s in msites)
        mips = sum(s.total_mips for s in msites)
        machines = []
        if pes > 0:
            machines.append(SpaceSharedMachine(
                sim, pes=pes, rating=mips / pes, name=f"{gname}-agg"))
        # -- storage: sum capacity, keep the best rates ------------------------
        disks = [s.disk for s in msites if s.disk is not None]
        disk = None
        if disks:
            disk = Disk(sim, sum(d.capacity for d in disks),
                        read_rate=max(d.read_rate for d in disks),
                        write_rate=max(d.write_rate for d in disks),
                        name=f"{gname}-disk")
            for d in disks:  # carry the files over
                for f in d.files:
                    if not disk.has(f.name):
                        disk.store(f)
        # -- network: member access links act in parallel ----------------------
        bw = 0.0
        lats = []
        for s in msites:
            links = grid.topology.route_links(s.name, _first_neighbour(grid, s.name))
            if links:
                bw += links[0].bandwidth
                lats.append(links[0].latency)
        if bw <= 0:
            bw = 1e9
        topo.add_link(gname, hub, bw,
                      latency if latency is not None
                      else (sum(lats) / len(lats) if lats else 0.01))
        sites.append(Site(sim, gname, machines=machines, disk=disk))
    return Grid(sim, topo, sites)


def _first_neighbour(grid: Grid, name: str) -> str:
    """Any directly linked node (used to read the access link's capacity)."""
    for link in grid.topology.links:
        if link.src == name:
            return link.dst
    return name
