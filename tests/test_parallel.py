"""Tests for distributed execution: LPs, channels, and all executors."""

import heapq
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core import ConfigurationError, SchedulingError
from repro.core.optimistic import OptimisticExecutor
from repro.core.parallel import (
    CMBExecutor,
    Channel,
    LogicalProcess,
    Message,
    SequentialExecutor,
    WindowExecutor,
)

from .executor_oracle import naive_next_event_time, naive_take_ready

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = pathlib.Path(repro.__file__).resolve().parent.parent

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


class TestChannelInbox:
    """``Channel.pending`` is a heap keyed ``(recv_time, seq)``: the LP reads
    heads, never the whole inbox."""

    @staticmethod
    def pair(lookahead=1.0):
        a, b = LogicalProcess("a"), LogicalProcess("b")
        return a, b, a.connect(b, lookahead)

    def test_earliest_time_of_empty_single_and_null_only_channel(self):
        a, b, ch = self.pair()
        assert b.next_event_time() == math.inf
        a.send_null(4.0)                     # a null promises, delivers nothing
        assert ch.clock == 5.0 and ch.pending == []
        assert b.next_event_time() == math.inf
        a.send("b", "m", extra_delay=6.0)
        assert b.next_event_time() == ch.pending[0][0] == 7.0
        b.sim.schedule(2.0, print)
        assert b.next_event_time() == 2.0    # the local queue still counts

    def test_take_ready_boundary(self):
        a, b, ch = self.pair()
        for seq, t in enumerate((3.0, 3.0 + 1e-12, 3.0 + 3e-12, 4.0), 1):
            ch.send(Message(t, "m", None, "a", seq))
        assert ch.take_ready(3.0 - 2e-12) == []
        assert [m.seq for m in ch.take_ready(3.0)] == [1, 2]
        assert [m.seq for m in ch.take_ready(3.0)] == []
        assert b.next_event_time() == 3.0 + 3e-12
        assert [m.seq for m in ch.take_ready(math.inf)] == [3, 4]

    def test_hairline_out_of_order_sends_match_the_full_scan(self):
        """``send`` accepts a receive time up to 1e-12 below the clock, so a
        channel is not quite FIFO in time.  A FIFO head would answer
        ``earliest`` 5e-13 late; a ``take_ready`` that stopped at the first
        not-yet-due message would leave a due one behind it."""
        late, early = 10.0 + 5e-13, 10.0

        def sent():
            a, b, ch = self.pair()
            ch.send(Message(late, "m", "first", "a", 1))
            ch.send(Message(early, "m", "second", "a", 2))
            ch.send(Message(10.0 + 2e-12, "m", "third", "a", 3))
            ch.send(Message(10.0 + 1.5e-12, "m", "fourth", "a", 4))
            return b, ch

        b, ch = sent()
        b_ref, ch_ref = sent()
        assert b.next_event_time() == naive_next_event_time(b_ref) == early
        for up_to in (10.0 - 6e-13, 10.0 + 6e-13, 11.0):
            assert ch.take_ready(up_to) == naive_take_ready(ch_ref, up_to)
            assert b.next_event_time() == naive_next_event_time(b_ref)
        # and through the LP: dispatch order is order_key order
        b, ch = sent()
        got = []
        b.on_message("m", lambda lp, m: got.append(m.payload))
        b.advance(10.5)
        assert got == ["second", "first", "fourth", "third"]

    def test_next_event_time_reads_heads_not_the_backlog(self, monkeypatch):
        """10 000 undelivered messages on one channel: asking for the next
        event time reads no message and calls no heap operation."""
        reads = []

        class CountingMessage(Message):
            __slots__ = ()

            def __getattribute__(self, name):
                if name == "recv_time":
                    reads.append(self)
                return Message.__getattribute__(self, name)

        a, b, ch = self.pair()
        for seq in range(1, 10_001):
            ch.send(CountingMessage(1.0 + seq * 1e-3, "m", None, "a", seq))
        del reads[:]
        calls = []
        for name in ("heappush", "heappop"):
            monkeypatch.setattr(
                "repro.core.parallel." + name,
                lambda *args, _f=getattr(heapq, name), _n=name:
                    (calls.append(_n), _f(*args))[1])
        for _ in range(100):
            assert b.next_event_time() == 1.001
        assert b.deliver_pending(1.0) == 0      # nothing due: early return
        assert reads == [] and calls == []
        assert b.deliver_pending(1.0015) == 1
        assert calls == ["heappop"]


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

    @pytest.mark.parametrize("executor", EXECUTORS, ids=EXECUTOR_IDS)
    def test_duplicate_lp_names_rejected(self, executor):
        """Channels and executor bookkeeping are keyed by LP name."""
        lps = [LogicalProcess("twin"), LogicalProcess("twin"),
               LogicalProcess("other")]
        lps[0].connect(lps[2], 1.0)
        with pytest.raises(ConfigurationError,
                           match=r"duplicate LP names: \['twin', 'twin', "):
            executor.run(lps, until=10.0)

    @pytest.mark.parametrize("name", EXECUTOR_IDS)
    def test_model_that_runs_dry_under_infinite_horizon_returns(self, name):
        """``until=inf`` is legal with channels, and ``inf > inf`` is false:
        a termination test of the form ``t > until`` never fires once the
        model has run dry.  Each executor runs in a subprocess so a
        regression is a timeout, not a hung suite."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import json, math; from tests.test_parallel import *; "
                "lps, log = build_ping_pong(rounds=1); "
                f"stats = EXECUTORS[EXECUTOR_IDS.index({name!r})].run("
                "lps, until=math.inf); print(json.dumps([log, stats.events]))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=20)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [[[1.0, "B", 0], [2.0, "A", 1]], 3]

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
