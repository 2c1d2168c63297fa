"""A flow admitted alone onto idle links is solved inline, to the same
answer as the flush it skips.

``FlowNetwork._admit`` gives a flow its rate at once when its route class
was empty, no other class crosses its links, none of them waits for a
flush and nothing else is due at this instant (``sim.peek_time() >
sim.now``); otherwise it marks its links dirty for the coalesced LOW-band
flush.  Every run here is made twice: as is, and with the inline path
switched off — the network's ``sim.peek_time`` reports an event due now,
so every admit takes the flush.  The two must agree bit for bit: the
completion stream, every flow's stored rate and finish time before each
event that is not a flush, and the sharing counters.  The per-flow engine
must agree with the stream through ``assert_same_stream``, and each run
pins a minimum number of inline solves so that it cannot go vacuous.

Seeds follow the fuzzers' convention (``flow_oracle.fuzz_seeds``);
``REPRO_FUZZ_RANDOM=1`` runs a fresh burst, ``REPRO_FUZZ_SEED=<n>``
replays one.
"""

import math
import os
import random

import pytest

from repro.campaign.scenarios import dependability_scenario
from repro.core import Simulator, TimeDrivenSimulator
from repro.network import FlowNetwork, Topology, tier_tree
from repro.network.flow import FlowHandle

from .flow_oracle import NaiveFlowNetwork, assert_same_stream, fuzz_seeds
from .test_flow_fuzz import FIXED_SEEDS, route_class_run, run_engine


class Watch:
    """Installed on ``FlowNetwork`` and ``FlowHandle`` for one run: every
    completion, the stored rates and finish times of every network's
    active flows before each event that is not a flush, and how many
    recomputes a flush ran.  With ``inline=False`` each network built
    meanwhile has its simulator report an event due now, so that no admit
    is solved inline."""

    def __init__(self, monkeypatch, inline: bool) -> None:
        self.nets, self.done, self.rates = [], [], []
        self.flushed = 0
        init, apply_rates = FlowNetwork.__init__, FlowNetwork._apply_rates
        complete = FlowHandle._complete

        def built(net, sim, *args, **kwargs):
            init(net, sim, *args, **kwargs)
            self.nets.append(net)
            if not inline:
                sim.peek_time = lambda: sim.now
            sim.pre_event_hooks.append(self.snapshot)

        def applied(net, classes):
            self.flushed += 1
            apply_rates(net, classes)

        def completed(handle, value):
            self.done.append((handle.id, handle.finished.hex(), handle.failed,
                              handle.remaining.hex()))
            complete(handle, value)

        monkeypatch.setattr(FlowNetwork, "__init__", built)
        monkeypatch.setattr(FlowNetwork, "_apply_rates", applied)
        monkeypatch.setattr(FlowHandle, "_complete", completed)

    def snapshot(self, ev) -> None:
        if ev.label != "flow_realloc":
            self.rates.append([(f.id, f.rate.hex(), f._eta.hex())
                               for net in self.nets for f in net.flows()])

    @property
    def inline(self) -> int:
        """Recomputes that no flush ran: the lone admits solved inline."""
        return sum(net.sharing.recomputes for net in self.nets) - self.flushed


def on_and_off(monkeypatch, run):
    """``run()`` with the inline path and without it; asserts the two runs
    agree and returns the first one's result and its inline solve count."""
    watches, results = [], []
    for inline in (True, False):
        watches.append(Watch(monkeypatch, inline))
        results.append(run())
        monkeypatch.undo()
    on, off = watches
    assert off.inline == 0
    assert results[0] == results[1]
    assert on.done == off.done
    assert on.rates == off.rates
    assert ([net.sharing.as_dict() for net in on.nets]
            == [net.sharing.as_dict() for net in off.nets])
    return results[0], on.inline


def stream_of(handles) -> list:
    """The completion stream ``(finished, (id, failed))`` in finish order."""
    return sorted(((h.finished, (h.id, h.failed)) for h in handles),
                  key=lambda row: row[0])


N_SPARSE = 150


def sparse_run(seed: int, engine: type = FlowNetwork,
               sim_class: type = Simulator) -> list:
    """Transfers between random leaves of a 3x3 tier tree, arriving one at
    a time on average: most find their links idle, some overlap.  Some are
    rate-capped, some zero-size, some wait out a link latency.  Returns
    the completion stream, times as hex."""
    rng = random.Random(seed)
    topo = tier_tree([3, 3], [400.0, 100.0], latency=0.0)
    topo.add_link("T2.0.0", "T2.2.2", 250.0, 0.05)   # a second route class
    leaves = [n for n in topo.nodes if n.startswith("T2.")]
    sim = sim_class(tick=0.125) if sim_class is TimeDrivenSimulator else sim_class()
    net = engine(sim, topo, efficiency=0.92)
    handles = []
    now = 0.0
    for _ in range(N_SPARSE):
        now += rng.expovariate(0.5)
        src, dst = rng.sample(leaves, 2)
        size = 0.0 if rng.random() < 0.05 else rng.uniform(10.0, 300.0)
        cap = rng.uniform(20.0, 80.0) if rng.random() < 0.2 else math.inf
        sim.schedule_at(now, lambda s=src, d=dst, z=size, c=cap:
                        handles.append(net.transfer(s, d, z, rate_cap=c)))
    sim.run(until=now + 1e4)
    assert len(handles) == N_SPARSE and all(h.done for h in handles)
    return [(t.hex(), row) for t, row in stream_of(handles)]


def sparse_differential(monkeypatch, seed: int) -> int:
    tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"
    got, inline = on_and_off(monkeypatch, lambda: sparse_run(seed))
    want = sparse_run(seed, NaiveFlowNetwork)
    assert_same_stream([(float.fromhex(t), row) for t, row in got],
                       [(float.fromhex(t), row) for t, row in want], tag)
    return inline


def fuzz_differential(monkeypatch, seed: int) -> int:
    """Both flow fuzzes of ``test_flow_fuzz`` on *seed*, on and off, and
    the route-class one against the per-flow engine; returns the inline
    solve count of the two runs."""
    tag = f"seed={seed} (replay: REPRO_FUZZ_SEED={seed})"

    def churn():
        _, handles = run_engine(seed, FlowNetwork)
        return [(h.id, h.finished.hex(), h.failed) for h in handles]

    def classes():
        stream, victims, handles = route_class_run(seed, FlowNetwork)
        return ([(t.hex(), row) for t, row in stream], victims,
                [h.remaining.hex() for h in handles])

    _, churn_inline = on_and_off(monkeypatch, churn)
    (stream, _, _), class_inline = on_and_off(monkeypatch, classes)
    want, _, _ = route_class_run(seed, NaiveFlowNetwork)
    assert_same_stream([(float.fromhex(t), row) for t, row in stream],
                       want, tag)
    return churn_inline + class_inline


class TestOnOffDifferential:
    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_flow_fuzz_seeds(self, monkeypatch, seed):
        # the fuzzes pack arrivals densely: 4 or 5 lone admits per seed
        assert fuzz_differential(monkeypatch, seed) >= 3

    @pytest.mark.parametrize("seed", FIXED_SEEDS)
    def test_sparse_arrivals_on_a_multi_route_tree(self, monkeypatch, seed):
        # about 100 of the 150 admits per seed
        assert sparse_differential(monkeypatch, seed) >= N_SPARSE // 2

    def test_sparse_arrivals_time_driven(self, monkeypatch):
        got, inline = on_and_off(monkeypatch, lambda: sparse_run(
            2009, sim_class=TimeDrivenSimulator))
        assert len(got) == N_SPARSE and inline >= N_SPARSE // 2

    def test_dependability_run(self, monkeypatch):
        (metrics, _), inline = on_and_off(
            monkeypatch, lambda: dependability_scenario({}, 2009))
        # 909 of its 912 recomputes
        assert inline >= 900 and metrics["availability"] > 0


@pytest.mark.skipif(not os.environ.get("REPRO_FUZZ_RANDOM")
                    and not os.environ.get("REPRO_FUZZ_SEED"),
                    reason="randomized burst: set REPRO_FUZZ_RANDOM=1 "
                           "(or REPRO_FUZZ_SEED=<n> to replay one seed)")
def test_on_off_random_burst(monkeypatch):
    """A short burst of fresh seeds; any failure prints the seed to replay."""
    for seed in fuzz_seeds([], burst=3):
        fuzz_differential(monkeypatch, seed)
        assert sparse_differential(monkeypatch, seed) >= N_SPARSE // 3


def chain(sim_class, bandwidth=100.0):
    """A network over the links a->b and b->c."""
    topo = Topology()
    topo.add_link("a", "b", bandwidth, 0.0)
    topo.add_link("b", "c", bandwidth, 0.0)
    sim = sim_class(tick=0.5) if sim_class is TimeDrivenSimulator else sim_class()
    return sim, FlowNetwork(sim, topo, efficiency=1.0)


SIMS = pytest.mark.parametrize("sim_class", [Simulator, TimeDrivenSimulator])


class TestEdges:
    """Each edge case either falls back to the flush or gets the rate the
    solver gives its one class, bit for bit; on and off agree throughout."""

    @SIMS
    def test_zero_rate_cap_parks_inline(self, monkeypatch, sim_class):
        def run():
            sim, net = chain(sim_class)
            parked = net.transfer("a", "b", 100.0, rate_cap=0.0)
            sim.run(until=1.0)
            assert parked.rate == 0.0 and parked._eta == math.inf
            live = net.transfer("a", "b", 100.0)   # not alone: flushed
            sim.run(until=100.0)
            assert not parked.done
            return live.finished.hex(), net.sharing.as_dict()

        (_, stats), inline = on_and_off(monkeypatch, run)
        # inline, then flushed as the live flow comes and as it goes
        assert inline == 1 and stats["recomputes"] == 3
        assert stats["rescheduled"] == 1   # the parked flow has no finish

    @SIMS
    def test_infinite_bandwidth_path(self, monkeypatch, sim_class):
        # nothing constrains a path of infinite links: a capped flow runs
        # at its cap, an uncapped one at an infinite rate, done at once
        def run():
            sim, net = chain(sim_class, bandwidth=math.inf)
            capped = net.transfer("a", "c", 100.0, rate_cap=40.0)
            sim.run(until=1.0)
            assert capped.rate == 40.0
            sim.run(until=5.0)
            free = net.transfer("a", "c", 100.0)
            sim.run(until=10.0)
            return capped.finished.hex(), free.finished.hex()

        (capped, free), inline = on_and_off(monkeypatch, run)
        assert inline == 2
        assert (float.fromhex(capped), float.fromhex(free)) == (2.5, 5.0)

    @SIMS
    def test_lone_admit_onto_a_dirty_link_coalesces(self, monkeypatch,
                                                    sim_class):
        # x crosses a->b->c and y b->c; x finishes at t=2, leaving a->b
        # idle but dirty (y's share on b->c grows).  z is admitted onto
        # a->b at t=2, after x's finish: alone, but the flush is owed.
        def run(peek_inf=False):
            sim, net = chain(sim_class)
            x = net.transfer("a", "c", 100.0)
            y = net.transfer("b", "c", 1000.0)
            z = []
            x._subscribe(lambda h: z.append(net.transfer("a", "b", 100.0)))
            sim.run(until=1.0)
            if peek_inf:   # only the dirty-link guard is left to decide
                sim.peek_time = lambda: math.inf
            sim.run(until=50.0)
            return ([h.finished.hex() for h in (x, y, *z)],
                    net.sharing.as_dict())

        (finished, stats), inline = on_and_off(monkeypatch, run)
        assert inline == 0 and stats["coalesced"] == 2
        assert run(peek_inf=True) == (finished, stats)

    @SIMS
    def test_another_event_at_the_same_instant_falls_back(self, monkeypatch,
                                                          sim_class):
        def run(other: bool):
            sim, net = chain(sim_class)
            h = net.transfer("a", "b", 100.0)
            if other:
                sim.schedule(0.0, lambda: None, label="other")
            sim.run(until=5.0)
            return h.finished.hex(), net.sharing.as_dict()

        got, inline = on_and_off(monkeypatch, lambda: run(True))
        assert inline == 0
        alone, inline = on_and_off(monkeypatch, lambda: run(False))
        assert inline == 1 and alone == got
