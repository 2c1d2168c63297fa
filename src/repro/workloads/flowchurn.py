"""Flow-churn workload: many disjoint site pairs plus one shared backbone.

The E8 bandwidth-sharing scenario (``benchmarks/bench_flow_sharing.py`` and
``python -m repro flows``): *pairs* isolated source→sink links each run a
chain of back-to-back transfers, staggered so their admits/finishes
interleave in time, while a handful of long-lived flows share one backbone
link.  A naive max-min engine recomputes **all** active flows and
re-times **every** completion on each of those pair-local events; :class:`~repro.network.flow.FlowNetwork` touches only the two-node
component that actually changed.  The model is fully deterministic — no
RNG — so E8 can run it again over the test-side naive engine
(``tests/flow_oracle.py``) and compare completion times flow by flow.
"""

from __future__ import annotations

from time import perf_counter

from ..core.engine import Simulator
from ..core.errors import ConfigurationError
from ..network.flow import FlowNetwork
from ..network.topology import Topology

__all__ = ["FlowChurnModel", "build_flow_churn"]


class FlowChurnModel:
    """Deterministic disjoint-pairs + shared-backbone flow workload.

    Parameters
    ----------
    pairs:
        Number of isolated ``s<i> -> d<i>`` links, each running its own
        transfer chain.
    transfers_per_pair:
        Chain length per pair (each next transfer starts when the previous
        completes, so every completion is also an admission event).
    backbone_flows:
        Long-lived flows sharing the single ``bbA -> bbB`` link — the one
        genuinely coupled component.
    """

    def __init__(self, pairs: int = 50, transfers_per_pair: int = 10,
                 backbone_flows: int = 4, pair_bandwidth: float = 1e6,
                 backbone_bandwidth: float = 4e6, transfer_bytes: float = 1e6,
                 backbone_bytes: float = 1.2e7, stagger: float = 0.137,
                 queue: str = "heap") -> None:
        if pairs < 1 or transfers_per_pair < 1:
            raise ConfigurationError("need at least one pair and one transfer")
        if backbone_flows < 0:
            raise ConfigurationError("backbone_flows must be >= 0")
        self.pairs = pairs
        self.transfers_per_pair = transfers_per_pair
        self.transfer_bytes = float(transfer_bytes)
        topo = Topology()
        for i in range(pairs):
            topo.add_link(f"s{i}", f"d{i}", pair_bandwidth, latency=0.001)
        if backbone_flows:
            topo.add_link("bbA", "bbB", backbone_bandwidth, latency=0.002)
        self.topology = topo
        self.sim = Simulator(queue=queue)
        self.net = FlowNetwork(self.sim, topo, efficiency=1.0)
        self.handles = []
        for i in range(pairs):
            self.sim.schedule(i * stagger, self._start_chain, i,
                              transfers_per_pair, label="chain_start")
        for _ in range(backbone_flows):
            h = self.net.transfer("bbA", "bbB", float(backbone_bytes))
            self.handles.append(h)
        self.wall_seconds = float("nan")

    def _start_chain(self, pair: int, remaining: int) -> None:
        h = self.net.transfer(f"s{pair}", f"d{pair}", self.transfer_bytes)
        self.handles.append(h)
        if remaining > 1:
            h._subscribe(lambda _r: self._start_chain(pair, remaining - 1))

    def run(self) -> "FlowChurnModel":
        """Drain the simulation, timing the wall clock; chainable."""
        t0 = perf_counter()
        self.sim.run()
        self.wall_seconds = perf_counter() - t0
        return self

    def completion_times(self) -> list[float]:
        """Finish times in flow-id order (the cross-engine checksum)."""
        return [h.finished for h in sorted(self.handles, key=lambda h: h.id)]

    def stats(self) -> dict:
        """Wall clock, event count, and sharing counters as a flat dict."""
        out = {"wall_seconds": self.wall_seconds,
               "events": self.sim.events_executed,
               "flows": len(self.handles)}
        out.update(self.net.sharing.as_dict())
        return out


def build_flow_churn(**kwargs) -> FlowChurnModel:
    """Convenience constructor mirroring ``build_partitioned_ring``."""
    return FlowChurnModel(**kwargs)
