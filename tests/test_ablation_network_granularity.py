"""Ablation — network granularity (§3: per-packet detail is "a time
consuming operation that leads to better output results"): the same 30
transfers over one uncongested 1 MB/s link, flow-level and packet-level."""

import functools

import pytest

from repro.core import Simulator
from repro.network import FlowNetwork, PacketNetwork, Topology

N_TRANSFERS = 30
SIZE = 300_000.0  # 300 kB each


@functools.cache
def run(mtu=None):
    """(mean transfer time, kernel events): the flow model for
    ``mtu=None``, else the packet model at that MTU."""
    sim = Simulator(seed=3)
    topo = Topology()
    topo.add_link("a", "b", 1e6, 0.005)  # 1 MB/s, 5 ms
    if mtu is None:
        net = FlowNetwork(sim, topo, efficiency=1.0)
    else:
        net = PacketNetwork(sim, topo, mtu=mtu, queue_packets=100_000)
    handles = []
    stream = sim.stream("arr")
    t = 0.0
    for _ in range(N_TRANSFERS):
        sim.schedule_at(t, lambda: handles.append(net.transfer("a", "b", SIZE)))
        t += stream.exponential(5.0)
    sim.run()
    if mtu is not None:
        assert all(h.success for h in handles)
    return sum(h.duration for h in handles) / len(handles), sim.events_executed


@pytest.mark.parametrize("mtu", [None, 9000.0, 1500.0],
                         ids=["flow", "packet-9000", "packet-1500"])
def test_mean_transfer_time_positive(mtu):
    assert run(mtu)[0] > 0


def test_flow_model_tracks_packet_model():
    assert run()[0] == pytest.approx(run(1500.0)[0], rel=0.25)


def test_packet_model_pays_per_packet():
    # SIZE / MTU = 200 packets x 2 hops per transfer
    assert run(1500.0)[1] > 20 * run()[1]
