"""One armed completion event per sharing owner, and its order rule.

A ``FlowNetwork`` and a ``TimeSharedMachine`` each keep a heap of finish
keys and a single timer at its head.  Completions that fall on one
instant fire inside that one event, and the processes they wake then run
in that order: jobs in ascending ``(finish key, id)`` order; flows route
class by route class in ascending ``(head eta, head id)`` order, each
class's members in ascending ``(key, id)`` order.
"""

import math

import pytest

from repro.core import Process, Simulator, TimeDrivenSimulator
from repro.hosts import TimeSharedMachine
from repro.network import FlowNetwork, Topology


def firings(sim) -> list:
    """A live count of fired events, read by completion callbacks."""
    count = [0]

    def hook(ev):
        count[0] += 1

    sim.pre_event_hooks.append(hook)
    return count


def test_flow_finishes_at_one_instant_fire_in_id_order_in_one_event():
    # flow 2 is admitted (and keyed) first, at t=0; flow 1 waits out 0.5 s
    # of latency and drains twice as fast: both finish at exactly t=1.0
    topo = Topology()
    topo.add_link("a", "b", 100.0, 0.5)
    topo.add_link("c", "d", 100.0, 0.0)
    sim = Simulator()
    net = FlowNetwork(sim, topo, efficiency=1.0)
    fired = firings(sim)
    log = []
    for src, dst, size in (("a", "b", 50.0), ("c", "d", 100.0)):
        net.transfer(src, dst, size)._subscribe(
            lambda h: log.append((h.id, h.finished, fired[0])))
    sim.run()
    assert [(i, t) for i, t, _ in log] == [(1, 1.0), (2, 1.0)]
    assert log[0][2] == log[1][2], "same-instant finishes split over events"


def test_flow_finishes_at_one_instant_fire_class_by_class_in_one_event():
    # flows 1 and 3 share a->b — one route class at 50 B/s each — and flow
    # 2 has c->d to itself at 100 B/s: all three finish at exactly t=2.
    # The due classes go in (head eta, head id) order, each one's members
    # in (key, id) order: 1, 3, then 2 — not the flows' id order.
    topo = Topology()
    topo.add_link("a", "b", 100.0, 0.0)
    topo.add_link("c", "d", 100.0, 0.0)
    sim = Simulator()
    net = FlowNetwork(sim, topo, efficiency=1.0)
    fired = firings(sim)
    log = []
    for src, dst, size in (("a", "b", 100.0), ("c", "d", 200.0),
                           ("a", "b", 100.0)):
        net.transfer(src, dst, size)._subscribe(
            lambda h: log.append((h.id, h.finished, fired[0])))
    sim.run()
    assert [(i, t) for i, t, _ in log] == [(1, 2.0), (3, 2.0), (2, 2.0)]
    assert len({n for _, _, n in log}) == 1, "same-instant finishes split"


def test_job_finishes_at_one_instant_fire_in_id_order_in_one_event():
    # one PE at 100 MIPS: job 1 runs alone for 1 s (100 MI), then both
    # share 50 MIPS with 200 MI left each — equal keys, both done at t=5
    sim = Simulator()
    m = TimeSharedMachine(sim, pes=1, rating=100.0)
    fired = firings(sim)
    log = []

    def waiter(length):
        run = yield m.submit(length)
        log.append((run.id, sim.now, fired[0]))

    sim.schedule_at(0.0, Process, sim, waiter, 300.0)
    sim.schedule_at(1.0, Process, sim, waiter, 200.0)
    sim.run()
    # the woken processes run in completion order, after the one firing
    assert [(i, t) for i, t, _ in log] == [(1, 5.0), (2, 5.0)]
    assert log[0][2] == log[1][2], "same-instant finishes split over events"


def test_job_finishes_too_close_for_the_clock_fire_in_one_event():
    # keys one ulp apart at 1000 MI: at rating 1e-3 the second job's finish
    # is less than half an ulp of t=2e6 after the first's, so the clock
    # cannot tell them apart and both are due in the one firing
    sim = Simulator()
    m = TimeSharedMachine(sim, pes=1, rating=1e-3)
    fired = firings(sim)
    log = []
    for length in (1000.0, math.nextafter(1000.0, 2000.0)):
        m.submit(length)._subscribe(
            lambda r: log.append((r.id, r.finished, fired[0])))
    sim.run()
    assert [(i, t) for i, t, _ in log] == [(1, 2e6), (2, 2e6)]
    assert [n for _, _, n in log] == [1, 1]
    assert sim.events_executed == 1


def test_each_owner_keeps_one_live_completion_event():
    topo = Topology()
    topo.add_link("a", "b", 100.0, 0.0)
    sim = Simulator()
    net = FlowNetwork(sim, topo, efficiency=1.0)
    m = TimeSharedMachine(sim, pes=2, rating=100.0)
    flows = [net.transfer("a", "b", 10.0 * (k + 1)) for k in range(30)]
    runs = [m.submit(10.0 * (k + 1)) for k in range(30)]
    sim.run(until=1e-9)            # admits and the coalesced recompute
    assert sim._queue.live_len() == 2   # the network's timer + the machine's
    sim.run()
    assert all(f.done for f in flows) and all(r.done for r in runs)


# Under a time-driven engine the one timer sits at the tick *after* the
# head's finish.  Work done at that tick before the timer fires sees a head
# already in the past, and re-arming must not schedule behind the clock.

@pytest.mark.parametrize("change", ["submit", "background"])
def test_job_timer_is_never_armed_behind_the_clock(change):
    sim = TimeDrivenSimulator(tick=1.0)
    m = TimeSharedMachine(sim, pes=1, rating=100.0)
    later = []
    # queued before the timer exists, so it fires first at t=1
    if change == "submit":
        sim.schedule_at(1.0, lambda: later.append(m.submit(100.0)))
    else:
        sim.schedule_at(1.0, m.set_background_load, 0.5)
    first = m.submit(50.0)          # done at t=0.5, timer rounded up to t=1
    sim.run()
    assert first.finished == 1.0
    assert first.remaining == 0.0
    if later:
        assert later[0].finished == 2.0   # 100 MI alone at 100 MIPS


def test_flow_timer_is_never_armed_behind_the_clock():
    topo = Topology()
    topo.add_link("a", "b", 100.0, 0.0)
    topo.add_link("c", "d", 100.0, 0.0)
    sim = TimeDrivenSimulator(tick=1.0)
    net = FlowNetwork(sim, topo, efficiency=1.0)

    def outage():
        for spec in topo.fail_link("a", "b"):
            net.abort_link(spec)

    sim.schedule_at(1.0, outage)    # fires at t=1 before the flow timer
    doomed = net.transfer("a", "b", 1000.0)
    done = net.transfer("c", "d", 50.0)   # done at t=0.5, timer at t=1
    sim.run()
    assert doomed.failed and doomed.finished == 1.0
    assert not done.failed and done.finished == 1.0
