"""Tests for disks, mass storage, sites, and load injectors."""

import pytest

from repro.core import CapacityError, ConfigurationError, Simulator
from repro.hosts import (
    Disk,
    Grid,
    MassStorage,
    RandomBurstLoad,
    Site,
    SpaceSharedMachine,
    central_grid,
    tier_grid,
)
from repro.middleware import ReplicaCatalog
from repro.network import FileSpec, Topology


def f(name, size=100.0):
    return FileSpec(name, size)


class TestDiskInventory:
    def test_store_and_lookup(self):
        sim = Simulator()
        d = Disk(sim, 1000.0)
        d.store(f("a", 300.0))
        assert d.has("a") and d.used == 300.0 and d.free == 700.0

    def test_store_idempotent(self):
        sim = Simulator()
        d = Disk(sim, 1000.0)
        d.store(f("a", 300.0))
        d.store(f("a", 300.0))
        assert d.used == 300.0

    def test_overflow_rejected(self):
        sim = Simulator()
        d = Disk(sim, 100.0)
        with pytest.raises(CapacityError):
            d.store(f("big", 200.0))

    def test_delete(self):
        sim = Simulator()
        d = Disk(sim, 1000.0)
        d.store(f("a"))
        assert d.delete("a") and not d.has("a") and d.used == 0.0
        assert not d.delete("a")

    def test_evict_lru_order(self):
        sim = Simulator()
        d = Disk(sim, 1000.0)
        d.store(f("old"))
        sim.schedule(1.0, d.store, f("mid"))
        sim.schedule(2.0, d.store, f("new"))
        sim.schedule(3.0, d.touch, "old")  # old becomes most-recent
        sim.run()
        assert d.evict_lru().name == "mid"

    def test_evict_lfu_order(self):
        sim = Simulator()
        d = Disk(sim, 1000.0)
        d.store(f("hot"))
        d.store(f("cold"))
        for _ in range(5):
            d.touch("hot")
        assert d.evict_lfu().name == "cold"

    def test_make_room_evicts_until_fit(self):
        sim = Simulator()
        d = Disk(sim, 300.0)
        d.store(f("a", 100.0))
        d.store(f("b", 100.0))
        d.store(f("c", 100.0))
        victims = d.make_room(250.0)
        assert len(victims) >= 2
        assert d.free >= 250.0

    def test_make_room_impossible(self):
        sim = Simulator()
        d = Disk(sim, 100.0)
        with pytest.raises(CapacityError):
            d.make_room(200.0)


class TestDiskIo:
    def test_read_timing(self):
        sim = Simulator()
        d = Disk(sim, 1000.0, read_rate=10.0)
        d.store(f("a", 100.0))
        t = d.read("a")
        sim.run()
        assert t.finished == pytest.approx(10.0)

    def test_read_missing_raises(self):
        sim = Simulator()
        d = Disk(sim, 1000.0)
        with pytest.raises(ConfigurationError):
            d.read("ghost")

    def test_write_with_eviction(self):
        sim = Simulator()
        d = Disk(sim, 100.0, write_rate=100.0)
        d.store(f("old", 80.0))
        t = d.write(f("new", 50.0), evict_policy="lru")
        sim.run()
        assert t.done and d.has("new") and not d.has("old")

    def test_io_serializes_on_channel(self):
        sim = Simulator()
        d = Disk(sim, 1000.0, read_rate=10.0)
        d.store(f("a", 100.0))
        d.store(f("b", 100.0))
        t1 = d.read("a")
        t2 = d.read("b")
        sim.run()
        assert t1.finished == pytest.approx(10.0)
        assert t2.finished == pytest.approx(20.0)  # queued behind t1

    def test_reads_update_access_stats(self):
        sim = Simulator()
        d = Disk(sim, 1000.0)
        d.store(f("a"))
        d.read("a")
        sim.run()
        assert d.access_count("a") == 1


class TestHsm:
    def test_tape_mount_latency(self):
        sim = Simulator()
        tape = MassStorage(sim, read_rate=10.0, mount_latency=5.0)
        tape.store(f("x", 100.0))
        t = tape.read("x")
        sim.run()
        assert t.finished == pytest.approx(15.0)


class TestSitesAndGrids:
    def test_site_submit_least_loaded(self):
        sim = Simulator()
        m1 = SpaceSharedMachine(sim, pes=1, rating=100.0, name="m1")
        m2 = SpaceSharedMachine(sim, pes=1, rating=100.0, name="m2")
        site = Site(sim, "s", machines=[m1, m2])
        site.submit(100.0)
        site.submit(100.0)
        assert m1.running == 1 and m2.running == 1

    def test_site_without_machines_rejects_submit(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Site(sim, "empty").submit(10.0)

    def test_site_file_helpers(self):
        # eviction on a site disk is ReplicaCatalog.land's: never a last copy
        sim = Simulator()
        topo = Topology()
        topo.add_link("s", "t", 1e6, 0.0)
        grid = Grid(sim, topo, [Site(sim, "s", disk=Disk(sim, 100.0)),
                                Site(sim, "t", disk=Disk(sim, 100.0))])
        site = grid.site("s")
        site.store_file(f("a", 60.0))
        catalog = ReplicaCatalog(grid)
        assert catalog.land(f("b", 60.0), "s") is None   # "a" is a last copy
        grid.site("t").store_file(f("a", 60.0))
        assert catalog.land(f("b", 60.0), "s") == ["a"]
        assert site.has_file("b") and not site.has_file("a")

    def test_grid_validates_sites(self):
        sim = Simulator()
        grid = central_grid(sim, n_clients=2)
        assert set(grid.site_names) == {"server", "client-0", "client-1"}
        with pytest.raises(ConfigurationError):
            grid.site("nope")

    def test_central_grid_routes_jobs_to_server(self):
        sim = Simulator()
        grid = central_grid(sim, n_clients=2, server_pes=2, rating=100.0)
        run = grid.site("server").submit(1000.0)
        sim.run()
        assert run.finished == pytest.approx(10.0)

    def test_tier_grid_shape(self):
        sim = Simulator()
        grid = tier_grid(sim, fanouts=(2, 2), bandwidths=(1e9, 1e8),
                         pes_by_tier=(8, 4, 2), disk_by_tier=(1e12, 1e11, 1e10))
        assert grid.site("T0").tier == 0
        assert grid.site("T1.0").tier == 1
        assert grid.site("T2.1.1").tier == 2
        assert len(grid.sites) == 7

    def test_sites_with_file_scan(self):
        sim = Simulator()
        grid = tier_grid(sim)
        grid.site("T0").store_file(f("data"))
        assert [s.name for s in grid.sites_with_file("data")] == ["T0"]


class TestLoadInjectors:
    def test_random_bursts_within_bounds(self):
        sim = Simulator(seed=4)
        m = SpaceSharedMachine(sim)
        burst = RandomBurstLoad(sim, m, sim.stream("bg"), mean_gap=5.0,
                                mean_burst=5.0, peak=0.7, horizon=200.0)
        sim.run(until=200.0)
        assert burst.bursts > 0

    def test_burst_affects_job_timing(self):
        sim = Simulator(seed=4)
        m = SpaceSharedMachine(sim, rating=100.0)
        RandomBurstLoad(sim, m, sim.stream("bg"), mean_gap=2.0,
                        mean_burst=10.0, peak=0.8, horizon=100.0)
        run = m.submit(1000.0)
        sim.run()
        assert run.finished > 10.0  # slower than the unloaded 10s


class TestNetworkCrossTraffic:
    def test_cross_traffic_slows_foreground_flow(self):
        from repro.hosts import NetworkCrossTraffic
        from repro.network import FlowNetwork, Topology

        def transfer_time(with_noise):
            sim = Simulator(seed=6)
            topo = Topology()
            topo.add_node("hub")
            for n in ("a", "b", "c", "d"):
                topo.add_link(n, "hub", 1e6, 0.001)
            net = FlowNetwork(sim, topo, efficiency=1.0)
            if with_noise:
                NetworkCrossTraffic(sim, net, sim.stream("xt"),
                                    endpoints=["a", "b", "c", "d"],
                                    mean_gap=0.5, mean_bytes=5e5,
                                    horizon=200.0)
            h = net.transfer("a", "b", 5e6)
            sim.run()
            return h.duration

        assert transfer_time(True) > transfer_time(False)

    def test_injection_stops_at_horizon(self):
        from repro.hosts import NetworkCrossTraffic
        from repro.network import FlowNetwork, Topology

        sim = Simulator(seed=7)
        topo = Topology()
        topo.add_link("a", "b", 1e6, 0.001)
        net = FlowNetwork(sim, topo)
        xt = NetworkCrossTraffic(sim, net, sim.stream("xt"),
                                 endpoints=["a", "b"], mean_gap=1.0,
                                 mean_bytes=1e4, horizon=50.0)
        sim.run()  # must terminate
        assert xt.flows_started > 10
        assert sim.now < 200.0

    def test_validation(self):
        from repro.core import ConfigurationError as CE
        from repro.hosts import NetworkCrossTraffic
        from repro.network import FlowNetwork, Topology

        sim = Simulator()
        net = FlowNetwork(sim, Topology())
        with pytest.raises(CE):
            NetworkCrossTraffic(sim, net, sim.stream("x"), endpoints=["a"])
        with pytest.raises(CE):
            NetworkCrossTraffic(sim, net, sim.stream("x"),
                                endpoints=["a", "b"], mean_gap=0.0)
