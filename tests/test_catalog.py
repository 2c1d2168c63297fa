"""Tests for the replica catalog and grid information service."""

import pytest

from repro.core import CatalogError, Monitor, Simulator
from repro.hosts import Disk, Site, SpaceSharedMachine, Grid
from repro.middleware import (
    GridInformationService,
    LruReplication,
    ReplicaCatalog,
)
from repro.network import FileSpec, Topology


def make_grid(sim):
    topo = Topology()
    topo.add_link("A", "B", 100.0, 0.01)
    topo.add_link("B", "C", 10.0, 0.01)
    topo.add_link("A", "C", 1.0, 0.5)
    sites = [
        Site(sim, "A", machines=[SpaceSharedMachine(sim, pes=4, rating=100.0)],
             disk=Disk(sim, 1e6)),
        Site(sim, "B", machines=[SpaceSharedMachine(sim, pes=2, rating=500.0)],
             disk=Disk(sim, 1e6)),
        Site(sim, "C", disk=Disk(sim, 1e6)),  # storage-only site
    ]
    return Grid(sim, topo, sites)


class TestCatalog:
    def test_locations_follow_the_disks(self):
        sim = Simulator()
        grid = make_grid(sim)
        cat = ReplicaCatalog(grid)
        assert cat.locations("f") == [] and cat.replica_count("f") == 0
        grid.site("B").store_file(FileSpec("f", 10.0))
        grid.site("A").store_file(FileSpec("f", 10.0))
        assert cat.locations("f") == ["A", "B"]

    def test_deleting_the_last_copy_forgets_the_file(self):
        sim = Simulator()
        grid = make_grid(sim)
        cat = ReplicaCatalog(grid)
        grid.site("A").store_file(FileSpec("f", 10.0))
        grid.site("A").disk.delete("f")
        assert cat.locations("f") == [] and cat.replica_count("f") == 0

    def test_files_on_disk_before_the_catalog_are_seen(self):
        sim = Simulator()
        grid = make_grid(sim)
        grid.site("C").store_file(FileSpec("b", 2.0))
        grid.site("C").store_file(FileSpec("a", 1.0))
        assert ReplicaCatalog(grid).files == ["a", "b"]

    def test_best_replica_prefers_local(self):
        sim = Simulator()
        grid = make_grid(sim)
        for s in ("A", "B"):
            grid.site(s).store_file(FileSpec("f", 100.0))
        assert ReplicaCatalog(grid).best_replica("f", "A") == "A"

    def test_best_replica_uses_network_cost(self):
        sim = Simulator()
        grid = make_grid(sim)
        for s in ("A", "B"):
            grid.site(s).store_file(FileSpec("f", 1000.0))
        # to C: from B bottleneck 10 (xfer 100s); from A direct link is 1.0
        # but the route A->C goes A->B->C (lower latency-ish)... bottleneck 10
        # both 100s, tie -> but A adds hop latency; B wins on latency.
        assert ReplicaCatalog(grid).best_replica("f", "C") == "B"

    def test_best_replica_skips_unreachable_holder(self):
        sim = Simulator()
        grid = make_grid(sim)
        for s in ("B", "C"):
            grid.site(s).store_file(FileSpec("f", 1000.0))
        cat = ReplicaCatalog(grid)
        assert cat.best_replica("f", "A") == "B"
        grid.topology.fail_link("A", "B")
        grid.topology.fail_link("B", "C")  # B is cut off
        assert cat.best_replica("f", "A") == "C"
        grid.topology.fail_link("A", "C")  # nobody reachable: no crash here,
        assert cat.best_replica("f", "A") in ("B", "C")  # the fetch will fail

    def test_best_replica_none_raises(self):
        cat = ReplicaCatalog(make_grid(Simulator()))
        with pytest.raises(CatalogError):
            cat.best_replica("ghost", "A")

    def test_replica_count(self):
        sim = Simulator()
        grid = make_grid(sim)
        for s in ("A", "C"):
            grid.site(s).store_file(FileSpec("f", 1.0))
        cat = ReplicaCatalog(grid)
        assert cat.replica_count("f") == 2
        assert cat.replica_count("ghost") == 0


class TestLand:
    """The one rule for "a file lands at a site"."""

    def grid(self, sim, cap=100.0):
        topo = Topology()
        topo.add_link("a", "b", 100.0, 0.01)
        return Grid(sim, topo, [Site(sim, "a", disk=Disk(sim, cap)),
                                Site(sim, "b", disk=Disk(sim, 1e6))])

    def seed(self, grid, site, *names, size=40.0):
        for n in names:
            grid.sim.run(until=grid.sim.now + 1.0)  # distinct access times
            grid.site(site).store_file(FileSpec(n, size))

    def test_evicts_least_recently_used_first(self):
        sim = Simulator()
        grid = self.grid(sim)
        self.seed(grid, "b", "x", "y")
        self.seed(grid, "a", "x", "y")
        grid.sim.run(until=grid.sim.now + 1.0)
        grid.site("a").disk.touch("x")  # y is now the older one
        assert ReplicaCatalog(grid).land(FileSpec("z", 40.0), "a") == ["y"]
        assert sorted(f.name for f in grid.site("a").disk.files) == ["x", "z"]

    def test_never_evicts_a_last_copy(self):
        sim = Simulator()
        grid = self.grid(sim)
        self.seed(grid, "a", "solo", "dup")
        self.seed(grid, "b", "dup")
        cat = ReplicaCatalog(grid)
        assert cat.land(FileSpec("z", 40.0), "a") == ["dup"]  # solo is older
        assert cat.land(FileSpec("w", 40.0), "a") is None  # z, solo: last copies
        assert cat.locations("solo") == ["a"] and cat.locations("w") == []

    def test_evicts_nothing_unless_enough_can_be_freed(self):
        sim = Simulator()
        grid = self.grid(sim)
        self.seed(grid, "a", "solo", "dup")
        self.seed(grid, "b", "dup")
        cat = ReplicaCatalog(grid)
        assert cat.land(FileSpec("big", 90.0), "a") is None
        assert cat.locations("dup") == ["a", "b"]  # not sacrificed for nothing

    def test_key_ranks_and_vetoes(self):
        sim = Simulator()
        grid = self.grid(sim)
        self.seed(grid, "b", "x", "y")
        self.seed(grid, "a", "x", "y")
        cat = ReplicaCatalog(grid)
        assert cat.land(FileSpec("z", 40.0), "a", key=lambda n: None) is None
        assert cat.land(FileSpec("z", 40.0), "a",
                        key=lambda n: (n != "y", n)) == ["y"]

    def test_refuses_what_cannot_or_need_not_be_stored(self):
        sim = Simulator()
        grid = self.grid(sim)
        cat = ReplicaCatalog(grid)
        assert cat.land(FileSpec("huge", 101.0), "a") is None
        assert cat.land(FileSpec("f", 10.0), "a") == []
        assert cat.land(FileSpec("f", 10.0), "a") is None  # already there
        topo = Topology()
        topo.add_node("bare")
        bare = Grid(sim, topo, [Site(sim, "bare")])
        assert ReplicaCatalog(bare).land(FileSpec("f", 1.0), "bare") is None


class TestStage:
    """The one path for "a consumer at a site needs a file"."""

    def make(self):
        sim = Simulator()
        grid = make_grid(sim)
        grid.site("A").store_file(FileSpec("f", 100.0))
        return sim, grid, ReplicaCatalog(grid), Monitor("consumer")

    def test_local_copy_is_touched_not_fetched(self):
        sim, grid, cat, mon = self.make()
        assert cat.stage(FileSpec("f", 100.0), "A", mon) is None
        assert grid.site("A").disk.access_count("f") == 1
        assert mon.counter("remote_fetches").count == 0

    def test_remote_copy_is_fetched_and_counted_before_the_caller_sees_it(self):
        sim, grid, cat, mon = self.make()
        seen = []
        ticket = cat.stage(FileSpec("f", 100.0), "B", mon)
        ticket._subscribe(
            lambda t: seen.append(mon.counter("remote_fetches").count))
        sim.run()
        assert (ticket.src, ticket.dst, ticket.failed) == ("A", "B", False)
        assert seen == [1]
        assert mon.tally("remote_bytes").mean == 100.0

    def test_failed_ticket_is_no_remote_read_and_reaches_no_strategy(self):
        sim, grid, cat, mon = self.make()
        strat = LruReplication(sim, grid, cat)
        grid.topology.fail_link("A", "B")
        grid.topology.fail_link("A", "C")
        ticket = cat.stage(FileSpec("f", 100.0), "B", mon, strat)
        sim.run()
        assert ticket.failed
        assert mon.counter("remote_fetches").count == 0
        assert strat.replicas_created == 0 and cat.locations("f") == ["A"]

    def test_explicit_source_needs_no_replica(self):
        sim, grid, cat, mon = self.make()
        ticket = cat.stage(FileSpec("edge-1-2", 50.0), "C", mon, src="B")
        sim.run()
        assert (ticket.src, ticket.failed) == ("B", False)
        assert mon.counter("remote_fetches").count == 1


class TestGis:
    def test_compute_sites_excludes_storage_only(self):
        sim = Simulator()
        gis = GridInformationService(make_grid(sim))
        assert [s.name for s in gis.compute_sites()] == ["A", "B"]

    def test_least_loaded_prefers_idle(self):
        sim = Simulator()
        grid = make_grid(sim)
        gis = GridInformationService(grid)
        # load up A
        for _ in range(8):
            grid.site("A").submit(1000.0)
        assert gis.least_loaded_site().name == "B"
