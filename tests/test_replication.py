"""Tests for replication strategies: pull, push, economic, agent."""

import pytest

from repro.core import ConfigurationError, Simulator
from repro.hosts import Disk, Grid, Site, SpaceSharedMachine
from repro.middleware import (
    DataReplicationAgent,
    EconomicReplication,
    GridRunner,
    Job,
    LfuReplication,
    LocalScheduler,
    LruReplication,
    NoReplication,
    PushReplication,
    ReplicaCatalog,
)
from repro.network import FileSpec, Topology


def data_grid(sim, n_sites=3, disk=10_000.0, bw=1e4):
    topo = Topology()
    names = ["SRC"] + [f"W{i}" for i in range(n_sites)]
    topo.add_node("WAN")
    for n in names:
        topo.add_link(n, "WAN", bw, 0.001)
    sites = [Site(sim, "SRC", disk=Disk(sim, 1e12))]
    for i in range(n_sites):
        sites.append(Site(sim, f"W{i}",
                          machines=[SpaceSharedMachine(sim, pes=2, rating=1000.0,
                                                       name=f"W{i}-m")],
                          disk=Disk(sim, disk)))
    grid = Grid(sim, topo, sites)
    return grid


def seed_files(grid, names, size=1000.0):
    specs = [FileSpec(n, size) for n in names]
    for f in specs:
        grid.site("SRC").store_file(f)
    return specs


class TestPullStrategies:
    def run_jobs(self, strategy_cls, n_files=3, n_jobs=6, disk=10_000.0, **kw):
        sim = Simulator(seed=2)
        grid = data_grid(sim, disk=disk)
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, [f"f{i}" for i in range(n_files)])
        strat = strategy_cls(sim, grid, cat, protected={"SRC"}, **kw)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("W0"),
                            catalog=cat, replication=strat)
        batch = [Job(id=i, length=100.0, input_files=(files[i % n_files],))
                 for i in range(n_jobs)]
        for i, j in enumerate(batch):
            j.submitted = i * 5.0
        runner.submit_all(batch)
        sim.run()
        return sim, grid, cat, strat, runner

    def test_no_replication_always_refetches(self):
        sim, grid, cat, strat, runner = self.run_jobs(NoReplication)
        assert runner.monitor.counter("remote_fetches").count == 6
        assert strat.replicas_created == 0
        assert not grid.site("W0").has_file("f0")

    def test_lru_caches_after_first_fetch(self):
        sim, grid, cat, strat, runner = self.run_jobs(LruReplication)
        # 3 distinct files: only the first access of each goes remote
        assert runner.monitor.counter("remote_fetches").count == 3
        assert strat.replicas_created == 3
        assert cat.replica_count("f0") == 2

    def test_lru_evicts_oldest_on_pressure(self):
        # disk fits only two 1000B files
        sim, grid, cat, strat, runner = self.run_jobs(LruReplication, disk=2500.0)
        w0 = grid.site("W0").disk
        assert len(w0.files) == 2
        assert strat.replicas_evicted >= 1
        # catalog stays consistent with the disk
        for f in w0.files:
            assert "W0" in cat.locations(f.name)

    def test_lfu_keeps_hot_file(self):
        sim = Simulator()
        grid = data_grid(sim, disk=2500.0)
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, ["hot", "cold1", "cold2"])
        strat = LfuReplication(sim, grid, cat, protected={"SRC"})
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("W0"),
                            catalog=cat, replication=strat)
        # hot accessed 4x interleaved with the colds
        pattern = ["hot", "cold1", "hot", "cold2", "hot", "hot"]
        batch = [Job(id=i, length=100.0,
                     input_files=(next(f for f in files if f.name == p),))
                 for i, p in enumerate(pattern)]
        for i, j in enumerate(batch):
            j.submitted = i * 10.0
        runner.submit_all(batch)
        sim.run()
        assert grid.site("W0").has_file("hot")

    def test_economic_vetoes_eviction_of_valuable_file(self):
        sim = Simulator()
        grid = data_grid(sim, disk=1500.0)  # fits exactly one file
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, ["hot", "once"])
        strat = EconomicReplication(sim, grid, cat, protected={"SRC"},
                                    window=1e6)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("W0"),
                            catalog=cat, replication=strat)
        pattern = ["hot", "hot", "hot", "once"]
        batch = [Job(id=i, length=100.0,
                     input_files=(next(f for f in files if f.name == p),))
                 for i, p in enumerate(pattern)]
        for i, j in enumerate(batch):
            j.submitted = i * 10.0
        runner.submit_all(batch)
        sim.run()
        # 'once' (value 1) must not displace 'hot' (value 3)
        assert grid.site("W0").has_file("hot")
        assert not grid.site("W0").has_file("once")

    def test_protected_site_never_stores(self):
        sim = Simulator()
        grid = data_grid(sim)
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, ["f"])
        strat = LruReplication(sim, grid, cat, protected={"SRC", "W0"})
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("W0"),
                            catalog=cat, replication=strat)
        runner.submit_all([Job(id=1, length=10.0, input_files=(files[0],))])
        sim.run()
        assert not grid.site("W0").has_file("f")

    def test_last_copy_never_evicted(self):
        """A file whose only replica sits on the worker must survive."""
        sim = Simulator()
        grid = data_grid(sim, disk=1800.0)
        cat = ReplicaCatalog(grid)
        solo = FileSpec("solo", 1000.0)
        grid.site("W0").store_file(solo)  # only copy in the system
        files = seed_files(grid, ["other"])
        strat = LruReplication(sim, grid, cat, protected={"SRC"})
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("W0"),
                            catalog=cat, replication=strat)
        runner.submit_all([Job(id=1, length=10.0, input_files=(files[0],))])
        sim.run()
        assert grid.site("W0").has_file("solo")  # survived
        assert not grid.site("W0").has_file("other")  # couldn't fit


class TestPush:
    def test_popular_file_gets_pushed(self):
        sim = Simulator()
        grid = data_grid(sim, n_sites=3)
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, ["pop"])
        strat = PushReplication(sim, grid, cat, protected={"SRC"},
                                threshold=2, fanout=2)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("W0"),
                            catalog=cat, replication=strat)
        batch = [Job(id=i, length=10.0, input_files=(files[0],)) for i in range(3)]
        for i, j in enumerate(batch):
            j.submitted = i * 100.0
        runner.submit_all(batch)
        sim.run()
        assert strat.pushes >= 1
        assert cat.replica_count("pop") >= 2

    def test_below_threshold_no_push(self):
        sim = Simulator()
        grid = data_grid(sim)
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, ["quiet"])
        strat = PushReplication(sim, grid, cat, threshold=10)
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("W0"),
                            catalog=cat, replication=strat)
        runner.submit_all([Job(id=1, length=10.0, input_files=(files[0],))])
        sim.run()
        assert strat.pushes == 0

    def test_validation(self):
        sim = Simulator()
        grid = data_grid(sim)
        cat = ReplicaCatalog(grid)
        with pytest.raises(ConfigurationError):
            PushReplication(sim, grid, cat, threshold=0)
        with pytest.raises(ConfigurationError):
            EconomicReplication(sim, grid, cat, window=0.0)


class TestAgent:
    def test_agent_ships_announced_files(self):
        sim = Simulator()
        grid = data_grid(sim, n_sites=2)
        cat = ReplicaCatalog(grid)
        agent = DataReplicationAgent(sim, grid, cat, source="SRC",
                                     targets=["W0", "W1"])
        f = FileSpec("prod-1", 2000.0)
        grid.site("SRC").store_file(f)
        agent.announce(f)
        sim.run()
        assert agent.shipped == 2
        assert grid.site("W0").has_file("prod-1")
        assert grid.site("W1").has_file("prod-1")
        assert cat.replica_count("prod-1") == 3

    def test_agent_bounds_in_flight(self):
        sim = Simulator()
        grid = data_grid(sim, n_sites=1, bw=100.0)
        cat = ReplicaCatalog(grid)
        agent = DataReplicationAgent(sim, grid, cat, source="SRC",
                                     targets=["W0"], max_in_flight=1)
        for i in range(5):
            f = FileSpec(f"p{i}", 1000.0)
            grid.site("SRC").store_file(f)
            agent.announce(f)
        assert agent.backlog("W0") == 4  # one flying, four queued
        sim.run()
        assert agent.shipped == 5
        assert agent.total_backlog == 0

    def test_agent_validation(self):
        sim = Simulator()
        grid = data_grid(sim)
        cat = ReplicaCatalog(grid)
        with pytest.raises(ConfigurationError):
            DataReplicationAgent(sim, grid, cat, source="SRC", targets=[])
        with pytest.raises(ConfigurationError):
            DataReplicationAgent(sim, grid, cat, source="SRC",
                                 targets=["W0"], max_in_flight=0)


class TestFaultTolerance:
    """Failure-path guarantees: outages must never corrupt the catalog."""

    def _cut_src_link(self, sim, grid):
        from repro.faults import FaultGraph

        g = FaultGraph(sim, grid.topology, grid.network)
        g.add_link("l", "SRC", "WAN")
        return g

    def test_last_copy_guard_when_holder_site_dies(self):
        """Cutting the holder's access link must not lose or duplicate the
        catalog's view of the last copy, and the eviction guard must keep
        refusing to delete it."""
        sim = Simulator()
        grid = data_grid(sim)
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, ["f0"])
        g = self._cut_src_link(sim, grid)
        g.fail("l")
        ticket = grid.transfers.fetch(files[0], "SRC", "W0")
        sim.run()
        assert ticket.failed
        # the sole replica is still registered exactly where it lives
        assert cat.replica_count("f0") == 1
        assert cat.locations("f0") == ["SRC"]
        assert not grid.site("W0").has_file("f0")
        # and the last-copy guard still shields it from eviction
        assert cat.land(FileSpec("new", 1e12), "SRC") is None
        assert grid.site("SRC").has_file("f0")

    def test_failed_fetch_registers_no_phantom_replica(self):
        """A broker staging fetch that dies with the link must not call
        on_fetch: no replica, no remote-read accounting."""
        sim = Simulator()
        grid = data_grid(sim)
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, ["f0"])
        strat = LruReplication(sim, grid, cat, protected={"SRC"})
        runner = GridRunner(sim, grid, scheduler=LocalScheduler("W0"),
                            catalog=cat, replication=strat)
        g = self._cut_src_link(sim, grid)
        g.fail("l")
        runner.submit_all([Job(id=1, length=10.0, input_files=(files[0],))])
        sim.run()
        assert strat.replicas_created == 0
        assert cat.replica_count("f0") == 1
        assert runner.monitor.counter("remote_fetches").count == 0

    def test_agent_requeues_and_ships_after_repair(self):
        sim = Simulator()
        grid = data_grid(sim)
        cat = ReplicaCatalog(grid)
        files = seed_files(grid, ["d0"])
        agent = DataReplicationAgent(sim, grid, cat, source="SRC",
                                     targets=["W0"], retry_delay=2.0)
        g = self._cut_src_link(sim, grid)
        g.fail("l")
        agent.announce(files[0])
        sim.schedule(10.0, g.repair, "l")
        sim.run()
        assert agent.shipped == 1
        assert grid.site("W0").has_file("d0")
        assert cat.replica_count("d0") == 2
        assert agent.total_backlog == 0
