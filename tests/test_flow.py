"""Tests for the flow-level network: max-min fairness, event timing."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.scenarios import dependability_scenario
from repro.core import ConfigurationError, Process, Simulator
from repro.network import FlowNetwork, LinkSpec, Topology, dumbbell
from repro.obs import Observation

from .flow_oracle import NaiveFlowNetwork, check_every_recompute


def simple_net(bw=100.0, latency=0.0, efficiency=1.0):
    t = Topology()
    t.add_link("a", "b", bw, latency)
    sim = Simulator()
    return sim, FlowNetwork(sim, t, efficiency=efficiency)


class TestSingleFlow:
    def test_lone_flow_gets_full_capacity(self):
        sim, net = simple_net(bw=100.0)
        h = net.transfer("a", "b", 1000.0)
        sim.run()
        assert h.finished == pytest.approx(10.0)
        assert h.throughput == pytest.approx(100.0)

    def test_latency_prepended(self):
        sim, net = simple_net(bw=100.0, latency=2.0)
        h = net.transfer("a", "b", 1000.0)
        sim.run()
        assert h.finished == pytest.approx(12.0)

    def test_zero_size_transfer_latency_only(self):
        sim, net = simple_net(bw=100.0, latency=3.0)
        h = net.transfer("a", "b", 0.0)
        sim.run()
        assert h.done and sim.now == pytest.approx(3.0)

    def test_same_node_transfer(self):
        sim, net = simple_net()
        h = net.transfer("a", "a", 500.0)
        sim.run()
        assert h.done

    def test_negative_size_rejected(self):
        sim, net = simple_net()
        with pytest.raises(ConfigurationError):
            net.transfer("a", "b", -1.0)

    def test_efficiency_scales_rate(self):
        sim, net = simple_net(bw=100.0, efficiency=0.5)
        h = net.transfer("a", "b", 100.0)
        sim.run()
        assert h.finished == pytest.approx(2.0)

    def test_rate_cap_respected(self):
        sim, net = simple_net(bw=100.0)
        h = net.transfer("a", "b", 100.0, rate_cap=10.0)
        sim.run()
        assert h.finished == pytest.approx(10.0)


class TestFairSharing:
    def test_two_flows_halve_the_link(self):
        sim, net = simple_net(bw=100.0)
        h1 = net.transfer("a", "b", 1000.0)
        h2 = net.transfer("a", "b", 1000.0)
        sim.run()
        # both share 50 each, finish together at t=20
        assert h1.finished == pytest.approx(20.0)
        assert h2.finished == pytest.approx(20.0)

    def test_short_flow_releases_capacity(self):
        sim, net = simple_net(bw=100.0)
        h1 = net.transfer("a", "b", 1000.0)
        h2 = net.transfer("a", "b", 100.0)
        sim.run()
        # share 50/50 until h2 ends at t=2 (100B at 50B/s);
        # h1 then has 900B left at 100B/s -> ends at 2 + 9 = 11
        assert h2.finished == pytest.approx(2.0)
        assert h1.finished == pytest.approx(11.0)

    def test_late_arrival_steals_share(self):
        sim, net = simple_net(bw=100.0)
        h1 = net.transfer("a", "b", 1000.0)
        h2_holder = {}
        sim.schedule(5.0, lambda: h2_holder.update(h=net.transfer("a", "b", 250.0)))
        sim.run()
        # h1 alone for 5s (500B), then 50/50: h2 takes 5s (250B),
        # h1 has 250B left at t=10, full rate -> ends 12.5
        assert h2_holder["h"].finished == pytest.approx(10.0)
        assert h1.finished == pytest.approx(12.5)

    def test_max_min_with_unequal_bottlenecks(self):
        """Dumbbell: two flows share the bottleneck; a local flow doesn't."""
        t = dumbbell(["l1", "l2"], ["r1", "r2"], access_bw=100.0,
                     bottleneck_bw=60.0, latency=0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        cross1 = net.transfer("l1", "r1", 300.0)   # crosses bottleneck
        cross2 = net.transfer("l2", "r2", 300.0)   # crosses bottleneck
        local = net.transfer("l1", "l2", 300.0)    # Lhub only
        sim.run()
        # bottleneck 60 shared -> 30 each; local flow: l1 access link shared
        # with cross1: l1->Lhub carries cross1(30)+local -> local gets 70.
        assert cross1.finished == pytest.approx(10.0)
        assert cross2.finished == pytest.approx(10.0)
        assert local.finished < 10.0

    def test_capacity_conservation_invariant(self):
        """Sum of rates on any link never exceeds capacity."""
        t = dumbbell(["l1", "l2", "l3"], ["r1"], access_bw=80.0,
                     bottleneck_bw=50.0, latency=0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        for src in ("l1", "l2", "l3"):
            net.transfer(src, "r1", 500.0)
        # inspect rates after admission (t=0 events)
        sim.run(until=0.001)
        for link in t.links:
            used = sum(f.rate for f in net.flows() if link in f.links)
            assert used <= link.bandwidth + 1e-6

    def test_process_can_yield_flow(self):
        sim, net = simple_net(bw=10.0)
        log = []

        def body():
            h = yield net.transfer("a", "b", 100.0)
            log.append((sim.now, h.throughput))

        Process(sim, body)
        sim.run()
        assert log and log[0][0] == pytest.approx(10.0)

    def test_statistics_recorded(self):
        sim, net = simple_net()
        first = net.transfer("a", "b", 100.0)
        second = net.transfer("a", "b", 100.0)
        sim.run()
        assert net.completed == 2
        assert first.duration == second.duration > 0


class TestStarvationGuard:
    """Regression: float residue (or underflow) in the free-capacity
    bookkeeping must never freeze an uncapped flow at rate 0 — a starved
    flow gets no completion event and the transfer hangs forever."""

    @pytest.mark.parametrize("incremental", [True, False])
    def test_subnormal_capacity_does_not_starve(self, incremental):
        # bandwidth 5e-324 (the minimum subnormal): the fair share for two
        # crossing flows, 5e-324 / 2, rounds to exactly 0.0 — the old
        # engine allocated rate 0 to both flows and never completed either.
        t = Topology()
        t.add_link("a", "b", 5e-324, 0.0)
        t.add_link("b", "c", 5e-324, 0.0)
        sim = Simulator()
        engine = FlowNetwork if incremental else NaiveFlowNetwork
        net = engine(sim, t, efficiency=1.0)
        h1 = net.transfer("a", "c", 5e-323)  # crosses both saturated links
        h2 = net.transfer("a", "c", 5e-323)
        sim.run(until=1e-9)
        for h in (h1, h2):
            assert h.rate > 0.0, "uncapped active flow frozen at rate 0"
            assert h._eta < math.inf
        sim.run()
        assert h1.done and h2.done

    def test_zero_rate_cap_flow_may_idle(self):
        """The guard applies to *servable* flows only: a cap of exactly 0
        legitimately parks the flow at rate 0 (no starvation assert)."""
        t = Topology()
        t.add_link("a", "b", 100.0, 0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        live = net.transfer("a", "b", 100.0)
        parked = net.transfer("a", "b", 100.0, rate_cap=0.0)
        sim.run(until=1e-9)
        assert live.rate == pytest.approx(100.0)  # full link, sharer is idle
        assert parked.rate == 0.0 and not parked.done


class TestIncrementalSharing:
    def net(self, links, engine=FlowNetwork):
        t = Topology()
        for a, b, bw in links:
            t.add_link(a, b, bw, 0.0)
        sim = Simulator()
        net = engine(sim, t, efficiency=1.0)
        check_every_recompute(net)
        return sim, net

    def test_same_timestamp_admits_coalesce_into_one_recompute(self):
        sim, net = self.net([("a", "b", 100.0)])
        handles = [net.transfer("a", "b", 100.0) for _ in range(5)]
        sim.run(until=1e-9)
        assert net.sharing.recomputes == 1
        assert net.sharing.coalesced == 4
        assert net.sharing.flows_touched == 5
        sim.run()
        assert all(h.done for h in handles)

    def test_disjoint_component_events_untouched(self):
        sim, net = self.net([("a", "b", 100.0), ("c", "d", 100.0)])
        h1 = net.transfer("a", "b", 1000.0)
        sim.run(until=0.5)
        ev1 = h1._eta
        assert ev1 < math.inf
        h2 = net.transfer("c", "d", 100.0)
        sim.run(until=0.6)
        # h2's admit recomputed only its own one-flow component
        assert h1._eta == ev1
        # one per lone admit, each solved inline
        assert net.sharing.flows_touched == 2
        sim.run()
        assert h1.finished == pytest.approx(10.0)
        assert h2.finished == pytest.approx(1.5)

    def test_unchanged_rate_preserves_completion_event(self):
        sim, net = self.net([("a", "b", 100.0)])
        big = net.transfer("a", "b", 10_000.0)
        capped = net.transfer("a", "b", 1_000.0, rate_cap=10.0)
        sim.run(until=1e-9)
        assert big.rate == pytest.approx(90.0)
        assert capped.rate == pytest.approx(10.0)
        ev = capped._eta
        holder = {}
        sim.schedule(1.0, lambda: holder.update(
            h=net.transfer("a", "b", 500.0, rate_cap=5.0)))
        sim.run(until=1.5)
        # the newcomer squeezes `big` (85), but `capped` still gets its cap:
        # its rate is unchanged, so its completion event must be kept
        assert big.rate == pytest.approx(85.0)
        assert capped._eta == ev
        assert net.sharing.preserved >= 1
        sim.run()
        assert big.done and capped.done and holder["h"].done

    def test_latency_only_transfers_leave_rates_alone(self):
        sim, net = self.net([("a", "b", 100.0)])
        h = net.transfer("a", "b", 1000.0)
        sim.run(until=1e-9)
        ev = h._eta
        recomputes = net.sharing.recomputes
        zero = net.transfer("a", "b", 0.0)    # empty payload
        local = net.transfer("b", "b", 50.0)  # same-host copy
        sim.run(until=0.1)
        assert zero.done and local.done
        # neither was ever admitted: no recompute, no event churn
        assert h._eta == ev
        assert net.sharing.recomputes == recomputes
        sim.run()
        assert h.finished == pytest.approx(10.0)
        assert net.completed == 3
        # only the real flow ever held bandwidth
        assert net.monitor.levels["active_flows"].maximum == 1

    def test_reference_mode_matches_incremental(self):
        finished = {}
        for engine in (FlowNetwork, NaiveFlowNetwork):
            sim, net = self.net([("a", "b", 100.0), ("b", "c", 60.0)], engine)
            h1 = net.transfer("a", "c", 300.0)
            h2 = net.transfer("a", "b", 300.0)
            sim.run()
            finished[engine] = (h1.finished, h2.finished)
        assert finished[FlowNetwork] == pytest.approx(
            finished[NaiveFlowNetwork], rel=1e-9)


class TestCountedWork:
    """The hot path's work is counted, not just timed: a transfer hashes
    its route's ``LinkSpec``s and asks the topology for a route once, when
    it starts; recomputes work on the resolved link states."""

    def mesh(self):
        """The benchmark's ``flow_mesh`` tree: core, 6 aggregation, 48 leaves."""
        t = Topology()
        for a in range(6):
            t.add_link("core", f"agg{a}", 10e9 / 8, 0.002)
            for l in range(8):
                t.add_link(f"agg{a}", f"leaf{a}.{l}", 1e9 / 8, 0.001)
        return t, [f"leaf{a}.{l}" for a in range(6) for l in range(8)]

    def test_hashing_and_routing_scale_with_transfers_not_recomputes(
            self, monkeypatch):
        counts = {"hash": 0, "route": 0}
        spec_hash, route = LinkSpec.__hash__, Topology.route

        def counted_hash(spec):
            counts["hash"] += 1
            return spec_hash(spec)

        def counted_route(topo, src, dst):
            counts["route"] += 1
            return route(topo, src, dst)

        topo, leaves = self.mesh()
        sim = Simulator()
        net = FlowNetwork(sim, topo)
        rng = random.Random(2009)
        handles = []
        for k in range(500):
            src, dst = rng.sample(leaves, 2)
            sim.schedule_at(k / 40.0, lambda s=src, d=dst: handles.append(
                net.transfer(s, d, rng.lognormvariate(math.log(12e6), 1.0))))
        monkeypatch.setattr(LinkSpec, "__hash__", counted_hash)
        monkeypatch.setattr(Topology, "route", counted_route)
        sim.run()
        assert all(h.done and not h.failed for h in handles)
        assert counts["route"] == 500
        hops = sum(len(h.links) for h in handles)
        assert net.sharing.flows_touched > 2 * len(handles)  # real sharing
        assert counts["hash"] <= 4 * hops, (
            f"{counts['hash']} LinkSpec hashes for {hops} route hops")

    def test_link_failing_during_latency_aborts_on_the_resolved_route(
            self, monkeypatch):
        t = Topology()
        t.add_link("a", "b", 100.0, 0.5)
        t.add_link("b", "c", 100.0, 0.5)
        t.add_link("a", "d", 100.0, 2.0)   # slower detour, up throughout
        t.add_link("d", "c", 100.0, 2.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        check_every_recompute(net)
        routed = []
        route = Topology.route
        monkeypatch.setattr(Topology, "route", lambda topo, s, d: (
            routed.append((s, d)), route(topo, s, d))[1])
        neighbour = net.transfer("a", "b", 1000.0)
        sim.run(until=0.6)
        doomed = net.transfer("a", "c", 100.0)        # admits at 1.6
        sim.schedule(0.5, t.fail_link, "b", "c")      # 1.1: inside the latency
        sim.run()
        # aborted at the edge on the route it was given, not re-routed
        assert doomed.failed and doomed.error == "link b->c down"
        assert doomed.finished == pytest.approx(1.6)
        assert [l.dst for l in doomed.links] == ["b", "c"]
        assert routed == [("a", "b"), ("a", "c")]
        # it never held bandwidth: the flow sharing a->b was never touched
        assert net.sharing.recomputes == 1      # the neighbour's own admit
        assert neighbour.finished == pytest.approx(10.5)


class TestRouteClasses:
    """Flows on one path under one cap share one rate, one virtual clock
    and one heap entry; what a handle reports is read through its class."""

    def net(self):
        """a->b (100 B/s) feeding b->c (20 B/s) feeding c->d (1000 B/s)."""
        t = Topology()
        t.add_link("a", "b", 100.0, 0.0)
        t.add_link("b", "c", 20.0, 0.0)
        t.add_link("c", "d", 1000.0, 0.0)
        sim = Simulator()
        return sim, t, FlowNetwork(sim, t, efficiency=1.0)

    def test_in_flight_rate_and_remaining_are_read_through_the_class(self):
        sim, t, net = self.net()
        x = net.transfer("a", "b", 350.0)
        y = net.transfer("a", "b", 700.0)
        z = net.transfer("a", "c", 100.0)   # 20 B/s at b->c: done at t=5
        assert x._cls is y._cls is not z._cls
        assert (x.rate, x.remaining) == (0.0, 350.0)   # not admitted yet
        sim.run(until=4.0)   # no event at t=4: settled on read
        assert (x.rate, y.rate, z.rate) == pytest.approx((40.0, 40.0, 20.0))
        assert (x.remaining, y.remaining, z.remaining) == pytest.approx(
            (190.0, 540.0, 20.0))
        sim.run(until=6.0)   # z left at t=5: x and y at 50 since
        assert (x.rate, z.rate) == pytest.approx((50.0, 0.0))
        assert (x.remaining, y.remaining, z.remaining) == pytest.approx(
            (100.0, 450.0, 0.0))
        sim.run()
        assert x.finished == pytest.approx(8.0)
        assert (x.rate, x.remaining) == (0.0, 0.0)
        assert y.finished == pytest.approx(8.0 + 350.0 / 100.0)

    def test_link_utilization_sums_class_rate_times_members(self):
        sim, t, net = self.net()
        for _ in range(2):
            net.transfer("a", "b", 1e4)
        net.transfer("a", "b", 1e4, rate_cap=10.0)   # same path, own class
        net.transfer("a", "d", 1e4)                  # 20 B/s at b->c
        sim.run(until=1.0)
        assert len({f._cls for f in net.flows()}) == 3
        for link in t.links:
            per_flow = sum(f.rate for f in net.flows() if link in f.links)
            assert net.link_utilization(link) == pytest.approx(
                per_flow / link.bandwidth)
        ab, bc, cd = t.route_links("a", "d")
        assert net.link_utilization(ab) == pytest.approx(1.0)  # 35+35+10+20
        assert net.link_utilization(cd) == pytest.approx(0.02)

    @pytest.mark.parametrize("engine", [FlowNetwork, NaiveFlowNetwork])
    def test_abort_link_returns_victims_in_admission_order(self, engine):
        # a->c flows wait out 1 s of latency on b->c, a->b flows do not:
        # admission order 2, 4, 1, 3 over two classes, none admitted in
        # id order.  The abort marker reads the settled remaining bytes.
        t = Topology()
        t.add_link("a", "b", 100.0, 0.0)
        t.add_link("b", "c", 100.0, 1.0)
        sim = Simulator()
        net = engine(sim, t, efficiency=1.0)
        obs = Observation(profile=False, telemetry=False).attach(sim)
        handles = [net.transfer("a", dst, 1000.0) for dst in "cbcb"]
        victims = []
        sim.schedule(3.0, lambda: victims.extend(
            net.abort_link(t.fail_link("a", "b")[0])))
        sim.run()
        assert [f.id for f in victims] == [2, 4, 1, 3]
        # 1 s at 50 B/s each, then 2 s at 25 B/s each
        assert [h.remaining for h in handles] == pytest.approx(
            [950.0, 900.0, 950.0, 900.0])
        marked = [m.args["remaining_bytes"] for m in obs.tracer.markers
                  if m.name.startswith("flow-abort:")]
        if engine is FlowNetwork:
            assert marked == [900.0, 900.0, 950.0, 950.0]

    def test_a_route_is_resolved_once_until_routing_changes(self, monkeypatch):
        t = Topology()
        t.add_link("a", "b", 100.0, 0.5)
        t.add_link("b", "c", 100.0, 0.5)
        t.add_link("a", "d", 100.0, 2.0)   # slower detour
        t.add_link("d", "c", 100.0, 2.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        first = net.transfer("a", "c", 100.0)
        hashes = []
        spec_hash = LinkSpec.__hash__
        monkeypatch.setattr(LinkSpec, "__hash__",
                            lambda spec: hashes.append(spec) or spec_hash(spec))
        again = net.transfer("a", "c", 100.0)
        assert not hashes and again._cls is first._cls
        assert again.links is first.links
        t.fail_link("b", "c")               # routing changed: re-resolved
        detour = net.transfer("a", "c", 100.0)
        t.repair_link("b", "c")
        back = net.transfer("a", "c", 100.0)
        monkeypatch.undo()
        assert [l.dst for l in detour.links] == ["d", "c"]
        assert detour._cls is not first._cls and back._cls is first._cls
        sim.run()   # three flows share a->b->c from t=1; the detour is alone
        assert [h.finished for h in (first, again, detour, back)] == \
            pytest.approx([4.0, 4.0, 5.0, 4.0])

    def test_an_emptied_class_is_kept_for_the_route(self):
        sim, t, net = self.net()
        first = net.transfer("a", "b", 100.0)
        sim.run()
        cls = first._cls
        assert (cls.n, cls.v, cls.rate, cls.entry) == (0, 0.0, 0.0, None)
        second = net.transfer("a", "b", 100.0)
        assert second._cls is cls and len(net._classes) == 1
        sim.run()
        assert second.finished == pytest.approx(2.0)


class TestEmptyFlushSkip:
    """A flow that finishes or aborts alone on its links frees capacity
    nobody is waiting for: no recompute is scheduled for it."""

    def dependability_run(self, monkeypatch, flush_always: bool):
        """``dependability_scenario({}, 2009)`` with its flushes counted and
        every flow's finish and every recomputed rate recorded; with
        *flush_always*, leaving flows schedule a flush as they used to."""
        counts = {"flushes": 0, "empty": 0}
        record = []
        component, apply_rates = FlowNetwork._component, FlowNetwork._apply_rates
        finish, abort = FlowNetwork._finish, FlowNetwork._abort

        def counted(net, seeds):
            out = component(net, seeds)
            counts["flushes"] += 1
            counts["empty"] += not out
            return out

        def applied(net, classes):
            apply_rates(net, classes)
            record.append([(f.id, f.rate.hex()) for f in net.flows()])

        def finished(net, h, *reason):
            done = h.finished is not None
            (abort if reason else finish)(net, h, *reason)
            if not done:
                record.append((h.id, h.finished.hex(), h.remaining.hex()))

        monkeypatch.setattr(FlowNetwork, "_component", counted)
        monkeypatch.setattr(FlowNetwork, "_apply_rates", applied)
        monkeypatch.setattr(FlowNetwork, "_finish", finished)
        monkeypatch.setattr(FlowNetwork, "_abort", finished)
        if flush_always:
            leave = FlowNetwork._leave
            monkeypatch.setattr(FlowNetwork, "_leave",
                                lambda net, h: leave(net, h) or True)
        metrics, _ = dependability_scenario({}, 2009)
        monkeypatch.undo()
        return counts, metrics, record

    def test_dependability_run_skips_every_empty_flush(self, monkeypatch):
        counts, metrics, record = self.dependability_run(monkeypatch, False)
        # every other admit comes alone onto idle links: solved inline
        assert counts == {"flushes": 3, "empty": 0}
        then, then_metrics, then_record = self.dependability_run(
            monkeypatch, True)
        assert then == {"flushes": 916, "empty": 913}
        assert metrics == then_metrics
        assert record == then_record   # rates and finish times, bit for bit


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=8),
       bw=st.floats(min_value=1.0, max_value=1e3))
def test_property_shared_link_aggregate_time(sizes, bw):
    """N simultaneous flows on one link finish no earlier than total/capacity,
    and the last finisher lands exactly at total_bytes/bandwidth (work
    conservation for a single shared link)."""
    sim, net = simple_net(bw=bw)
    handles = [net.transfer("a", "b", s) for s in sizes]
    sim.run()
    last = max(h.finished for h in handles)
    assert last == pytest.approx(sum(sizes) / bw, rel=1e-6)
    for h in handles:
        assert h.finished >= h.size / bw - 1e-9  # nobody beats the capacity
