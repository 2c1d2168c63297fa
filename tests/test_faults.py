"""Tests for correlated fault injection: graph cascades, link aborts,
transfer retries, the dependability scenario, and the differential
fault-churn cross-check."""

import math

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.campaign.scenarios import run_scenario, theory_for
from repro.core import ConfigurationError, Simulator
from repro.faults import CorrelatedFaultInjector, FaultGraph
from repro.hosts import Grid, Site, SpaceSharedMachine
from repro.network import (
    FileSpec,
    FileTransferService,
    FlowNetwork,
    Topology,
    star,
)
from repro.workloads import FaultChurnModel


def _linked_sim(bw=1e5):
    sim = Simulator()
    topo = Topology()
    topo.add_link("a", "b", bw, latency=0.001)
    net = FlowNetwork(sim, topo, efficiency=1.0)
    return sim, topo, net


class TestFaultGraph:
    def _graph(self):
        sim, topo, net = _linked_sim()
        m = SpaceSharedMachine(sim, rating=100.0, name="m0")
        g = FaultGraph(sim, topo, net)
        g.add_host("host:m0", m)
        g.add_link("link:a->b", "a", "b")
        g.add_site("site:s", ["host:m0", "link:a->b"])
        return sim, topo, m, g

    def test_site_cascade_takes_down_children(self):
        sim, topo, m, g = self._graph()
        g.fail("site:s")
        assert m.failed
        assert not topo.link_up("a", "b")
        assert g.is_down("host:m0") and g.is_down("link:a->b")
        g.repair("site:s")
        assert not m.failed
        assert topo.link_up("a", "b")

    def test_independent_child_fault_survives_site_repair(self):
        sim, topo, m, g = self._graph()
        g.fail("host:m0")
        g.fail("site:s")
        g.repair("site:s")
        assert m.failed, "host's own fault must outlive the site repair"
        g.repair("host:m0")
        assert not m.failed

    def test_nested_outage_never_double_evicts(self):
        sim, topo, m, g = self._graph()
        m.submit(1000.0)
        g.fail("host:m0")
        g.fail("site:s")  # host already down: no second eviction
        assert m.evictions == 1
        g.repair("site:s")
        assert m.failed  # still held by its own fault
        g.repair("host:m0")
        assert m.failures == 1

    def test_downtime_and_availability_clocks(self):
        sim, topo, m, g = self._graph()
        sim.schedule(2.0, g.fail, "site:s")
        sim.schedule(5.0, g.repair, "site:s")
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert g.downtime("site:s") == pytest.approx(3.0)
        assert g.downtime("host:m0") == pytest.approx(3.0)
        assert g.availability("host:m0") == pytest.approx(0.7)
        assert g.mttr_observed == pytest.approx(3.0)

    def test_from_grid_builds_sites_hosts_links(self):
        sim = Simulator()
        topo = star("hub", ["s0", "s1"], 1e6)
        sites = [Site(sim, "hub")]
        for n in ("s0", "s1"):
            sites.append(Site(sim, n, machines=[
                SpaceSharedMachine(sim, rating=100.0, name=f"{n}-cpu")]))
        grid = Grid(sim, topo, sites)
        g = FaultGraph.from_grid(grid)
        assert {c.name for c in g.components("site")} == {"site:s0", "site:s1"}
        assert len(g.components("host")) == 2
        # each leaf claims its access link exactly once; the hub owns none
        assert len(g.components("link")) == 2
        g.fail("site:s0")
        assert not topo.link_up("s0", "hub")
        assert topo.link_up("s1", "hub")

    def test_validation(self):
        sim, topo, net = _linked_sim()
        g = FaultGraph(sim, topo, net)
        m = SpaceSharedMachine(sim, rating=100.0)
        g.add_host("h", m)
        with pytest.raises(ConfigurationError):
            g.add_host("h", m)  # duplicate
        with pytest.raises(ConfigurationError):
            g.add_site("s", ["nope"])  # unknown child
        g.add_site("s", ["h"])
        with pytest.raises(ConfigurationError):
            g.add_site("s2", ["h"])  # already parented
        with pytest.raises(ConfigurationError):
            g.add_site("s3", ["s"])  # nested site
        with pytest.raises(ConfigurationError):
            FaultGraph(sim).add_link("l", "a", "b")  # no topology
        with pytest.raises(ConfigurationError):
            g.fail("ghost")


class TestLinkFailures:
    def test_link_outage_aborts_inflight_flow(self):
        sim, topo, net = _linked_sim(bw=1e3)
        g = FaultGraph(sim, topo, net)
        g.add_link("l", "a", "b")
        h = net.transfer("a", "b", 1e4)  # 10s at 1e3 B/s
        sim.schedule(2.0, g.fail, "l")
        sim.run()
        assert h.failed and h.finished == pytest.approx(2.0)
        assert h.remaining == pytest.approx(8e3, rel=0.01)
        assert net.aborted == 1

    def test_flow_completes_exactly_once_on_abort(self):
        sim, topo, net = _linked_sim(bw=1e3)
        g = FaultGraph(sim, topo, net)
        g.add_link("l", "a", "b")
        h = net.transfer("a", "b", 1e4)
        fired = []
        h._subscribe(lambda r: fired.append(r))
        sim.schedule(2.0, g.fail, "l")
        sim.schedule(4.0, g.repair, "l")
        sim.run()
        assert fired == [h]

    def test_no_route_transfer_fails_fast(self):
        sim, topo, net = _linked_sim()
        g = FaultGraph(sim, topo, net)
        g.add_link("l", "a", "b")
        svc = FileTransferService(sim, net)  # max_attempts=1
        g.fail("l")
        ticket = svc.fetch(FileSpec("f", 1e4), "a", "b")
        sim.run()
        assert ticket.failed and svc.failed == 1
        assert ticket.finished == pytest.approx(0.0)

    def test_transfer_retries_until_link_repaired(self):
        sim, topo, net = _linked_sim(bw=1e4)
        g = FaultGraph(sim, topo, net)
        g.add_link("l", "a", "b")
        svc = FileTransferService(sim, net, max_attempts=20,
                                  retry_backoff=0.5)
        ticket = svc.fetch(FileSpec("f", 1e4), "a", "b")
        sim.schedule(0.3, g.fail, "l")
        sim.schedule(3.0, g.repair, "l")
        sim.run()
        assert not ticket.failed and ticket.finished is not None
        assert ticket.attempts > 1 and svc.retries >= 1
        assert svc.completed == 1

    def test_retry_schedule_is_deterministic(self):
        def attempts():
            sim, topo, net = _linked_sim(bw=1e4)
            g = FaultGraph(sim, topo, net)
            g.add_link("l", "a", "b")
            svc = FileTransferService(sim, net, max_attempts=30,
                                      retry_backoff=0.25)
            ticket = svc.fetch(FileSpec("f", 1e4), "a", "b")
            sim.schedule(0.1, g.fail, "l")
            sim.schedule(5.0, g.repair, "l")
            sim.run()
            return ticket.attempts, ticket.finished

        assert attempts() == attempts()

    def test_outage_during_latency_window_aborts_at_admit(self):
        # The flow is scheduled but not yet admitted when the link dies:
        # _admit must notice the edge is down instead of streaming through.
        sim = Simulator()
        topo = Topology()
        topo.add_link("a", "b", 1e4, latency=1.0)
        net = FlowNetwork(sim, topo, efficiency=1.0)
        g = FaultGraph(sim, topo, net)
        g.add_link("l", "a", "b")
        h = net.transfer("a", "b", 1e4)
        sim.schedule(0.5, g.fail, "l")  # inside the propagation latency
        sim.run()
        assert h.failed and net.aborted == 1


class TestCorrelatedInjector:
    def _grid_graph(self, seed=0):
        sim = Simulator(seed=seed)
        topo = star("hub", ["s0", "s1"], 1e6)
        sites = [Site(sim, "hub")]
        for n in ("s0", "s1"):
            sites.append(Site(sim, n, machines=[
                SpaceSharedMachine(sim, rating=100.0, name=f"{n}-cpu")]))
        grid = Grid(sim, topo, sites)
        return sim, grid, FaultGraph.from_grid(grid)

    def test_same_seed_same_outage_schedule(self):
        def crashes(seed):
            sim, grid, g = self._grid_graph(seed)
            inj = CorrelatedFaultInjector(
                sim, g, sim.streams.spawn("faults"),
                mtbf=20.0, mttr=5.0, horizon=400.0)
            sim.schedule_at(500.0, lambda: None)
            sim.run()
            return (inj.crashes, round(inj.availability, 12),
                    tuple(c.outages for c in g.components("site")))

        assert crashes(7) == crashes(7)
        assert crashes(7) != crashes(8)

    def test_availability_near_theory(self):
        sim, grid, g = self._grid_graph(seed=3)
        inj = CorrelatedFaultInjector(
            sim, g, sim.streams.spawn("faults"),
            mtbf=50.0, mttr=10.0, horizon=3000.0)
        sim.schedule_at(3000.0, lambda: None)
        sim.run()
        assert inj.theoretical_availability() == pytest.approx(5 / 6)
        assert abs(inj.availability - 5 / 6) < 0.1
        assert inj.crashes > 20

    def test_site_target_correlates_host_and_link(self):
        sim, grid, g = self._grid_graph(seed=1)
        CorrelatedFaultInjector(sim, g, sim.streams.spawn("faults"),
                                targets=["site:s0"], mtbf=20.0, mttr=10.0,
                                horizon=300.0)
        m = grid.site("s0").machines[0]
        seen = []

        def probe():
            host_down = g.is_down("host:s0-cpu")
            link_down = not grid.topology.link_up("s0", "hub")
            seen.append((g.is_down("site:s0"), host_down, link_down))

        for t in range(1, 300, 2):
            sim.schedule_at(float(t), probe)
        sim.run()
        downs = [s for s in seen if s[0]]
        assert downs, "expected at least one sampled outage"
        # whenever the site is down, its machine AND access link are down
        assert all(h and l for _s, h, l in downs)
        ups = [s for s in seen if not s[0]]
        assert all(not h and not l for _s, h, l in ups)

    def test_external_fault_not_double_cycled(self):
        sim, grid, g = self._grid_graph(seed=2)
        inj = CorrelatedFaultInjector(sim, g, sim.streams.spawn("faults"),
                                      targets=["site:s0"],
                                      mtbf=5.0, mttr=2.0, horizon=100.0)
        # an external owner opens/closes faults on the same target
        for t in range(0, 100, 7):
            sim.schedule_at(float(t) + 0.5, g.fail, "site:s0")
            sim.schedule_at(float(t) + 1.5, g.repair, "site:s0")
        sim.schedule_at(150.0, lambda: None)
        sim.run()
        assert not g.is_down("site:s0")
        assert not grid.site("s0").machines[0].failed
        assert 0.0 < inj.availability <= 1.0

    def test_overlapped_crash_keeps_the_renewal_process_alive(self):
        """A drawn crash that lands while someone else holds the target
        down is skipped, not the end of that target's crash/repair cycle."""
        sim, grid, g = self._grid_graph(seed=2)
        inj = CorrelatedFaultInjector(sim, g, sim.streams.spawn("faults"),
                                      targets=["site:s0"],
                                      mtbf=5.0, mttr=2.0, horizon=400.0)
        g.fail("site:s0")  # an external outage covering the first draws
        sim.schedule_at(60.0, g.repair, "site:s0")
        sim.schedule_at(400.0, lambda: None)
        sim.run()
        assert inj.crashes > 20
        assert g.component("site:s0").outages == inj.crashes + 1
        assert abs(g.availability("site:s0") - (340 * 5 / 7) / 400) < 0.1

    def test_mapping_rates_and_validation(self):
        sim, grid, g = self._grid_graph()
        inj = CorrelatedFaultInjector(
            sim, g, sim.streams.spawn("f"),
            mtbf={"site": 100.0}, mttr={"site": 10.0})
        assert inj.theoretical_availability() == pytest.approx(100 / 110)
        with pytest.raises(ConfigurationError):
            CorrelatedFaultInjector(sim, g, sim.streams.spawn("g"),
                                    targets=["ghost"])
        with pytest.raises(ConfigurationError):
            CorrelatedFaultInjector(sim, g, sim.streams.spawn("h"),
                                    mtbf=0.0)
        with pytest.raises(ConfigurationError):
            CorrelatedFaultInjector(sim, g, sim.streams.spawn("i"),
                                    mtbf={"host": 5.0})  # no 'site' entry


class TestDependabilityScenario:
    PARAMS = {"sites": 2, "horizon": 500.0}

    def test_deterministic_and_fault_heavy(self):
        m1, _ = run_scenario("dependability", self.PARAMS, 11)
        m2, _ = run_scenario("dependability", self.PARAMS, 11)
        m3, _ = run_scenario("dependability", self.PARAMS, 12)
        assert m1 == m2
        assert m1 != m3
        assert 0.0 < m1["availability"] < 1.0
        assert m1["crashes"] > 0 and m1["jobs_evicted"] > 0
        assert m1["flow_aborts"] > 0 and m1["transfer_retries"] > 0
        assert m1["jobs_completed"] > 0 and m1["transfers_completed"] > 0

    def test_theory_mapping(self):
        th = theory_for("dependability", {"mtbf": 40.0, "mttr": 10.0})
        assert th == {"availability": pytest.approx(0.8)}

    def test_campaign_parallel_matches_serial_and_covers_theory(self):
        spec = CampaignSpec("dependability",
                            base={"sites": 2, "horizon": 800.0},
                            replications=10, root_seed=0)
        serial = run_campaign(spec, workers=1)
        pooled = run_campaign(spec, workers=2)
        assert serial.metrics_bytes() == pooled.metrics_bytes()
        summ = serial.summaries(["availability"])["availability"]
        assert summ.contains(5 / 6)


class TestFaultChurn:
    def test_injected_matches_static_twin_within_bound(self):
        churn = FaultChurnModel(inject=True).run()
        assert churn.differential_gap() <= churn.differential_bound()
        assert churn.stats()["evictions"] > 0

    def test_static_twin_matches_arithmetic_exactly(self):
        static = FaultChurnModel(inject=False).run()
        assert static.makespans() == [static.analytic_makespan()] * 4

    def test_flapping_link_transfers_all_complete(self):
        churn = FaultChurnModel(inject=True, transfers=6).run()
        s = churn.stats()
        assert s["transfers_done"] == 6
        assert s["transfer_retries"] > 0
        assert s["flow_aborts"] == s["transfer_retries"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultChurnModel(period=10.0, downtime=10.0)
        with pytest.raises(ConfigurationError):
            FaultChurnModel(period=10.0, downtime=6.0)  # duty < 1/2
        with pytest.raises(ConfigurationError):
            FaultChurnModel(machines=0)
