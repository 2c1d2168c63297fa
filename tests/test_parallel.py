"""Tests for distributed execution: LPs, channels, and all executors."""

import math

import pytest

from repro.core import ConfigurationError, SchedulingError
from repro.core.optimistic import OptimisticExecutor
from repro.core.parallel import (
    CMBExecutor,
    Channel,
    LogicalProcess,
    SequentialExecutor,
    WindowExecutor,
)

EXECUTORS = [SequentialExecutor(), CMBExecutor(), WindowExecutor(),
             OptimisticExecutor()]
EXECUTOR_IDS = ["sequential", "cmb", "window", "optimistic"]


def build_ping_pong(rounds=20, lookahead=1.0):
    """Two LPs bouncing a counter; returns (lps, log)."""
    a = LogicalProcess("A")
    b = LogicalProcess("B")
    a.connect(b, lookahead)
    b.connect(a, lookahead)
    log = []

    def on_ball(lp, msg):
        log.append((round(lp.sim.now, 9), lp.name, msg.payload))
        if msg.payload < rounds:
            other = "B" if lp.name == "A" else "A"
            lp.send(other, "ball", msg.payload + 1)

    a.on_message("ball", on_ball)
    b.on_message("ball", on_ball)
    a.sim.schedule(0.0, a.send, "B", "ball", 0)
    return [a, b], log


def build_ring(n=4, lookahead=0.5, hops=40):
    """n LPs in a ring, one token circulating."""
    lps = [LogicalProcess(f"lp{i}") for i in range(n)]
    for i, lp in enumerate(lps):
        lp.connect(lps[(i + 1) % n], lookahead)
    log = []

    def on_token(lp, msg):
        log.append((round(lp.sim.now, 9), lp.name))
        if msg.payload < hops:
            nxt = f"lp{(int(lp.name[2:]) + 1) % n}"
            lp.send(nxt, "token", msg.payload + 1)

    for lp in lps:
        lp.on_message("token", on_token)
    lps[0].sim.schedule(0.0, lps[0].send, "lp1", "token", 0)
    return lps, log


class TestChannelInvariants:
    def test_zero_lookahead_rejected(self):
        a, b = LogicalProcess("a"), LogicalProcess("b")
        with pytest.raises(ConfigurationError, match="lookahead"):
            a.connect(b, 0.0)

    def test_connect_idempotent(self):
        a, b = LogicalProcess("a"), LogicalProcess("b")
        assert a.connect(b, 1.0) is a.connect(b, 1.0)

    def test_send_without_channel_rejected(self):
        a = LogicalProcess("a")
        with pytest.raises(ConfigurationError, match="no channel"):
            a.send("ghost", "kind")

    def test_channel_clock_monotone(self):
        a, b = LogicalProcess("a"), LogicalProcess("b")
        ch = a.connect(b, 2.0)
        a.send("b", "m", 1)
        assert ch.clock == 2.0
        a.send("b", "m", 2, extra_delay=3.0)
        assert ch.clock == 5.0

    def test_clock_violation_rejected(self):
        a, b = LogicalProcess("a"), LogicalProcess("b")
        ch = a.connect(b, 1.0)
        from repro.core.parallel import Message

        ch.send(Message(10.0, "m", None, "a", 1))
        with pytest.raises(SchedulingError, match="violates"):
            ch.send(Message(5.0, "m", None, "a", 2))

    def test_unknown_message_kind_raises(self):
        a, b = LogicalProcess("a"), LogicalProcess("b")
        a.connect(b, 1.0)
        a.sim.schedule(0.0, a.send, "b", "mystery")
        a.sim.run()
        with pytest.raises(ConfigurationError, match="mystery"):
            SequentialExecutor().run([a, b], until=100.0)


@pytest.mark.parametrize("executor", EXECUTORS, ids=EXECUTOR_IDS)
class TestExecutorCorrectness:
    def test_ping_pong_order_and_times(self, executor):
        lps, log = build_ping_pong(rounds=10, lookahead=1.0)
        executor.run(lps, until=100.0)
        assert [entry[2] for entry in log] == list(range(11))
        # ball i arrives at time i+1 (one lookahead per hop)
        assert [entry[0] for entry in log] == [float(i + 1) for i in range(11)]

    def test_ring_token_visits_all(self, executor):
        lps, log = build_ring(n=4, lookahead=0.5, hops=20)
        executor.run(lps, until=100.0)
        assert len(log) == 21
        assert [e[1] for e in log[:4]] == ["lp1", "lp2", "lp3", "lp0"]

    def test_horizon_respected(self, executor):
        lps, log = build_ping_pong(rounds=1000, lookahead=1.0)
        executor.run(lps, until=10.5)
        assert all(t <= 10.5 for t, *_ in log)
        assert len(log) == 10  # balls at t=1..10


class TestExecutorEquivalence:
    def test_all_executors_same_event_log(self):
        reference = None
        for executor, name in zip(EXECUTORS, EXECUTOR_IDS):
            lps, log = build_ring(n=5, lookahead=0.7, hops=60)
            executor.run(lps, until=1000.0)
            if reference is None:
                reference = log
            else:
                assert log == reference, f"{name} diverged"


class TestHorizonValidation:
    """Regression: a zero-channel model under `until=inf` used to make every
    executor spin each partition forever; now it's a clear config error."""

    @staticmethod
    def _channel_free_lps():
        lps = [LogicalProcess(f"solo{i}") for i in range(2)]

        def tick(lp):  # self-regenerating: would never exhaust
            lp.sim.schedule(1.0, tick, lp)

        for lp in lps:
            lp.sim.schedule(0.0, tick, lp)
        return lps

    @pytest.mark.parametrize("executor", EXECUTORS, ids=EXECUTOR_IDS)
    def test_zero_channels_infinite_horizon_rejected(self, executor):
        with pytest.raises(ConfigurationError, match="zero channels"):
            executor.run(self._channel_free_lps(), until=math.inf)

    @pytest.mark.parametrize("executor", EXECUTORS, ids=EXECUTOR_IDS)
    def test_nan_horizon_rejected(self, executor):
        lps, _ = build_ping_pong(rounds=2)
        with pytest.raises(ConfigurationError, match="NaN"):
            executor.run(lps, until=math.nan)

    def test_zero_channels_finite_horizon_still_fine(self):
        lps = self._channel_free_lps()
        stats = SequentialExecutor().run(lps, until=5.0)
        assert stats.events > 0

    def test_channels_with_infinite_horizon_still_fine(self):
        lps, log = build_ping_pong(rounds=5)
        SequentialExecutor().run(lps, until=math.inf)
        assert [entry[2] for entry in log] == list(range(6))


class TestProtocolMetrics:
    def test_cmb_emits_null_messages(self):
        lps, _ = build_ping_pong(rounds=30, lookahead=1.0)
        stats = CMBExecutor().run(lps, until=40.0)
        assert stats.null_messages > 0
        assert stats.real_messages == 31

    def test_smaller_lookahead_more_nulls(self):
        """The classic CMB pathology: a busy LP whose safety depends on an
        idle neighbour's channel clock needs one null per lookahead step."""
        def nulls(lookahead):
            busy = LogicalProcess("busy")
            idle = LogicalProcess("idle")
            idle.connect(busy, lookahead)   # busy's safety gated by idle
            busy.connect(idle, lookahead)
            idle.on_message("x", lambda lp, m: None)
            busy.on_message("x", lambda lp, m: None)

            def tick(n):
                if n < 500:
                    busy.sim.schedule(0.1, tick, n + 1)

            busy.sim.schedule(0.0, tick, 0)
            return CMBExecutor().run([busy, idle], until=50.0).null_messages

        assert nulls(0.5) > 4 * nulls(10.0)

    def test_sequential_sends_no_nulls(self):
        lps, _ = build_ping_pong()
        stats = SequentialExecutor().run(lps, until=100.0)
        assert stats.null_messages == 0

    def test_window_epoch_count_positive(self):
        lps, _ = build_ring()
        stats = WindowExecutor().run(lps, until=100.0)
        assert stats.epochs > 0
        assert stats.executor == "window"

    def test_stats_event_totals_match(self):
        lps, log = build_ping_pong(rounds=10)
        stats = SequentialExecutor().run(lps, until=100.0)
        assert stats.events >= len(log)
