"""Tests for the packet-level network, protocols, and file transfers."""

import math

import pytest

from repro.core import ConfigurationError, Simulator
from repro.network import (
    FileSpec,
    FileTransferService,
    FlowNetwork,
    PacketNetwork,
    ReliablePacketTransport,
    TcpTransport,
    Topology,
    UdpTransport,
)


def line_topo(bw=1500.0, latency=0.1, hops=1):
    t = Topology()
    names = [f"n{i}" for i in range(hops + 1)]
    for a, b in zip(names, names[1:]):
        t.add_link(a, b, bw, latency)
    return t, names[0], names[-1]


class TestPacketNetwork:
    def test_single_packet_timing(self):
        topo, src, dst = line_topo(bw=1500.0, latency=0.1)
        sim = Simulator()
        net = PacketNetwork(sim, topo, mtu=1500)
        h = net.transfer(src, dst, 1500.0)
        sim.run()
        # tx 1500/1500 = 1s + 0.1 latency
        assert h.finished == pytest.approx(1.1)
        assert h.success and h.delivered == 1

    def test_segmentation_count(self):
        topo, src, dst = line_topo()
        sim = Simulator()
        net = PacketNetwork(sim, topo, mtu=1000)
        h = net.transfer(src, dst, 2500.0)
        sim.run()
        assert h.npackets == 3 and h.success

    def test_pipelining_across_hops(self):
        """Store-and-forward: packet k+1 transmits while k propagates."""
        topo, src, dst = line_topo(bw=1000.0, latency=0.0, hops=2)
        sim = Simulator()
        net = PacketNetwork(sim, topo, mtu=1000)
        h = net.transfer(src, dst, 3000.0)
        sim.run()
        # serialized per hop: last packet leaves hop1 at t=3, arrives hop2
        # then needs 1s on second link -> 4s total (not 6 = no pipelining)
        assert h.finished == pytest.approx(4.0)

    def test_queue_overflow_drops(self):
        topo, src, dst = line_topo(bw=10.0, latency=0.0)
        sim = Simulator()
        net = PacketNetwork(sim, topo, mtu=100, queue_packets=2)
        h = net.transfer(src, dst, 10_000.0)  # 100 packets into 2 slots
        sim.run()
        assert h.dropped > 0
        assert not h.success
        assert net.total_drops == h.dropped

    def test_local_transfer_instant(self):
        topo, src, _ = line_topo()
        sim = Simulator()
        net = PacketNetwork(sim, topo)
        h = net.transfer(src, src, 5000.0)
        sim.run()
        assert h.success and h.finished == 0.0

    def test_validation(self):
        topo, _, _ = line_topo()
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            PacketNetwork(sim, topo, mtu=0)
        with pytest.raises(ConfigurationError):
            PacketNetwork(sim, topo, queue_packets=0)
        net = PacketNetwork(sim, topo)
        with pytest.raises(ConfigurationError):
            net.transfer("n0", "n1", -5.0)


def test_transfer_ids_do_not_depend_on_earlier_networks():
    """PacketTransfer ids (and every Packet.transfer_id) count per network,
    not per interpreter: the same model built twice gives the same ids."""
    def build():
        topo, src, dst = line_topo()
        net = PacketNetwork(Simulator(), topo)
        return [net.transfer(src, dst, 100.0).id for _ in range(3)]

    assert build() == [1, 2, 3]
    assert build() == [1, 2, 3]


class TestTcpTransport:
    def test_window_caps_throughput(self):
        t = Topology()
        t.add_link("a", "b", 1e6, latency=0.5)  # fat but long pipe
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        tcp = TcpTransport(sim, net, window=1000.0)  # cap = 1000/1.0 = 1000 B/s
        h = tcp.transfer("a", "b", 10_000.0)
        sim.run()
        assert h.finished == pytest.approx(0.5 + 10.0)  # latency + capped xfer

    def test_parallel_streams_scale_cap(self):
        t = Topology()
        t.add_link("a", "b", 1e6, latency=0.5)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        tcp = TcpTransport(sim, net, window=1000.0, parallel_streams=4)
        assert tcp.rate_cap("a", "b") == pytest.approx(4000.0)

    def test_short_rtt_uncapped(self):
        t = Topology()
        t.add_link("a", "b", 100.0, latency=0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        tcp = TcpTransport(sim, net, window=8.0)
        assert math.isinf(tcp.rate_cap("a", "b"))

    def test_bad_window_rejected(self):
        sim = Simulator()
        net = FlowNetwork(sim, Topology())
        with pytest.raises(ConfigurationError):
            TcpTransport(sim, net, window=0)
        with pytest.raises(ConfigurationError):
            TcpTransport(sim, net, parallel_streams=0)


class TestUdpAndReliable:
    def congested(self):
        topo, src, dst = line_topo(bw=100.0, latency=0.01)
        sim = Simulator()
        net = PacketNetwork(sim, topo, mtu=100, queue_packets=4)
        return sim, net, src, dst

    def test_udp_reports_loss(self):
        sim, net, src, dst = self.congested()
        udp = UdpTransport(sim, net)
        h = udp.transfer(src, dst, 5000.0)
        sim.run()
        assert not h.success and h.dropped > 0

    def test_reliable_retransmits_to_success(self):
        sim, net, src, dst = self.congested()
        rel = ReliablePacketTransport(sim, net, rto=0.5)
        h = rel.transfer(src, dst, 5000.0)
        sim.run()
        assert h.success
        assert h.rounds > 1
        assert h.retransmitted_bytes > 0

    def test_reliable_gives_up_after_max_rounds(self):
        topo, src, dst = line_topo(bw=1.0, latency=0.0)
        sim = Simulator()
        net = PacketNetwork(sim, topo, mtu=10, queue_packets=1)
        rel = ReliablePacketTransport(sim, net, rto=0.01, max_rounds=2)
        h = rel.transfer(src, dst, 10_000.0)
        sim.run()
        assert h.done and not h.success


class TestFileTransferService:
    def test_local_hit_is_free(self):
        topo, src, dst = line_topo()
        sim = Simulator()
        fts = FileTransferService(sim, FlowNetwork(sim, topo))
        tk = fts.fetch(FileSpec("f", 1000.0), src, src)
        sim.run()
        assert tk.done and tk.total_time == 0.0

    def test_concurrency_limit_queues_excess(self):
        topo, src, dst = line_topo(bw=100.0, latency=0.0)
        sim = Simulator()
        net = FlowNetwork(sim, topo, efficiency=1.0)
        fts = FileTransferService(sim, net, max_concurrent_per_route=1)
        t1 = fts.fetch(FileSpec("f1", 100.0), src, dst)
        t2 = fts.fetch(FileSpec("f2", 100.0), src, dst)
        assert fts.backlog_size(src, dst) == 1
        sim.run()
        # serialized: 1s each
        assert t1.finished == pytest.approx(1.0)
        assert t2.finished == pytest.approx(2.0)
        assert t2.started - t2.requested == pytest.approx(1.0)

    def test_parallel_when_under_limit(self):
        topo, src, dst = line_topo(bw=100.0, latency=0.0)
        sim = Simulator()
        net = FlowNetwork(sim, topo, efficiency=1.0)
        fts = FileTransferService(sim, net, max_concurrent_per_route=2)
        t1 = fts.fetch(FileSpec("f1", 100.0), src, dst)
        t2 = fts.fetch(FileSpec("f2", 100.0), src, dst)
        sim.run()
        # fair-shared: both take 2s
        assert t1.finished == pytest.approx(2.0)
        assert t2.finished == pytest.approx(2.0)

    def test_stats_and_completed_counter(self):
        topo, src, dst = line_topo(bw=100.0, latency=0.0)
        sim = Simulator()
        fts = FileTransferService(sim, FlowNetwork(sim, topo))
        for i in range(3):
            fts.fetch(FileSpec(f"f{i}", 50.0), src, dst)
        sim.run()
        assert fts.completed == 3
        assert fts.monitor.tally("total_time").count == 3

    def test_file_validation(self):
        with pytest.raises(ConfigurationError):
            FileSpec("bad", -1.0)
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            FileTransferService(sim, None, max_concurrent_per_route=0)

    def test_local_hit_counted_in_stats(self):
        """src == dst requests count in completed, local_hits, and the
        monitor's total_time — hit ratios reflect every request, not only
        remote ones."""
        topo, src, dst = line_topo(bw=100.0, latency=0.0)
        sim = Simulator()
        fts = FileTransferService(sim, FlowNetwork(sim, topo, efficiency=1.0))
        local = fts.fetch(FileSpec("here", 1000.0), src, src)
        remote = fts.fetch(FileSpec("there", 100.0), src, dst)
        sim.run()
        assert local.done and remote.done
        assert fts.local_hits == 1
        assert fts.completed == 2
        assert fts.monitor.tally("total_time").count == 2
        assert local.started == local.requested == local.finished
        assert remote.started == remote.requested

    def test_route_state_pruned_after_churn(self):
        """Idle routes must not leak: after a churn over many distinct
        (src, dst) pairs both per-route dicts are empty again."""
        n_routes = 250
        t = Topology()
        for i in range(n_routes):
            t.add_link(f"a{i}", f"b{i}", 1000.0, 0.0)
        sim = Simulator()
        net = FlowNetwork(sim, t, efficiency=1.0)
        fts = FileTransferService(sim, net, max_concurrent_per_route=1)
        tickets = []
        for i in range(n_routes):
            # two per route so the backlog path (deque creation) is hit too
            for k in range(2):
                sim.schedule(0.01 * i, lambda i=i: tickets.append(
                    fts.fetch(FileSpec(f"f{i}", 100.0), f"a{i}", f"b{i}")))
        sim.run()
        assert len(tickets) == 2 * n_routes
        assert all(tk.done for tk in tickets)
        assert fts.completed == 2 * n_routes
        assert fts._backlog == {}
        assert fts._in_flight == {}
