"""Tests for repro.obs.recorder — flight-recorder ring and post-mortems."""

import json

import pytest

from repro.core import Simulator
from repro.obs import (FlightRecorder, Observation, arm_postmortem,
                       disarm_postmortem, dump_postmortem)


def named_handler():
    pass


class TestRing:
    def test_ring_keeps_last_n(self):
        rec = FlightRecorder(capacity=3)
        for i in range(10):
            rec.ring.append(("t0", float(i), named_handler, 10 - i))
        assert len(rec) == 3
        snap = rec.snapshot()
        assert [e["sim_time"] for e in snap] == [7.0, 8.0, 9.0]
        assert snap[-1]["queue_depth"] == 1
        assert all(e["track"] == "t0" for e in snap)

    def test_names_resolved_at_snapshot_not_record(self):
        # the binding appends raw (track, time, callable, depth) tuples
        rec = FlightRecorder(capacity=4)
        rec.ring.append(("t", 0.0, named_handler, 0))
        # the ring holds the raw callable; resolution happens on snapshot
        assert rec.ring[-1][2] is named_handler
        assert rec.snapshot()[0]["handler"].endswith("named_handler")
        assert rec.last_handler().endswith("named_handler")

    def test_empty_recorder_is_still_truthy(self):
        rec = FlightRecorder()
        assert len(rec) == 0
        assert bool(rec) is True  # attached-but-empty facet is "on"
        assert rec.last_handler() is None
        assert rec.snapshot() == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)


class TestDump:
    def test_dump_header_and_entries(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        for i in range(3):
            rec.ring.append(("sim", float(i), named_handler, i))
        path = rec.dump(str(tmp_path / "flight.jsonl"), "timeout",
                        extra={"run_index": 7})
        with open(path) as fp:
            lines = [json.loads(line) for line in fp]
        header, events = lines[0], lines[1:]
        assert header["record"] == "flight-recorder"
        assert header["reason"] == "timeout"
        assert header["events"] == 3 and header["capacity"] == 8
        assert header["run_index"] == 7
        assert header["last_handler"].endswith("named_handler")
        assert [e["sim_time"] for e in events] == [0.0, 1.0, 2.0]

    def test_armed_postmortem_dump_and_disarm(self, tmp_path):
        rec = FlightRecorder()
        rec.ring.append(("t", 1.0, named_handler, 0))
        path = str(tmp_path / "pm.jsonl")
        arm_postmortem(rec, path, {"worker": 3})
        try:
            out = dump_postmortem("terminated")
            assert out == path
            header = json.loads(open(path).readline())
            assert header["reason"] == "terminated"
            assert header["worker"] == 3
        finally:
            disarm_postmortem()
        assert dump_postmortem("again") is None  # disarmed: no-op


class TestObservationIntegration:
    def test_binding_records_firings_with_queue_depth(self):
        obs = Observation(trace=False, profile=False, recorder=16)
        sim = Simulator(seed=1)
        obs.attach(sim, track="ring")
        for i in range(40):
            sim.schedule(float(i), named_handler)
        sim.run()
        rec = obs.recorder
        assert isinstance(rec, FlightRecorder)
        assert rec.capacity == 16 and len(rec) == 16
        snap = rec.snapshot()
        # the ring kept the *last* 16 of 40 firings
        assert snap[0]["sim_time"] == 24.0
        assert snap[-1]["sim_time"] == 39.0
        assert snap[-1]["queue_depth"] == 0  # last event: queue drained
        assert all(e["track"] == "ring" for e in snap)
        assert "recorder" in repr(obs)
        assert obs.summary()["recorder"]["events"] == 16

    def test_recorder_facet_reads_booleans_like_metrics(self):
        on = Observation(trace=False, profile=False, recorder=True)
        assert on.recorder.capacity == FlightRecorder().capacity == 256
        assert Observation(recorder=False).recorder is None
        assert Observation(recorder=16).recorder.capacity == 16
        sim = Simulator()
        on.attach(sim)
        sim.schedule(0.0, named_handler)
        sim.run()
        assert len(on.recorder) == 1

    def test_recorder_instance_shared_across_bindings(self):
        ring = FlightRecorder(capacity=4)
        obs = Observation(trace=False, profile=False, recorder=ring)
        s1, s2 = Simulator(seed=1), Simulator(seed=2)
        obs.attach(s1, track="a")
        obs.attach(s2, track="b")
        s1.schedule(0.0, named_handler)
        s2.schedule(0.0, named_handler)
        s1.run()
        s2.run()
        assert obs.recorder is ring
        assert {e["track"] for e in ring.snapshot()} == {"a", "b"}


def fast():
    pass


class TestUntimedPreFireRecord:
    """The ring is appended through ``pre_event_hooks`` as each handler
    starts, untimed."""

    def test_dump_inside_a_handler_names_that_handler(self, tmp_path):
        # The SIGTERM post-mortem dumps from inside the running handler;
        # a handler that dumps itself stands in for the signal.
        def grinding():
            dump_postmortem("terminated")

        obs = Observation(trace=False, profile=False, recorder=8)
        sim = Simulator(seed=1)
        obs.attach(sim)
        sim.schedule(0.0, fast)
        sim.schedule(1.0, grinding)
        path = str(tmp_path / "pm.jsonl")
        arm_postmortem(obs.recorder, path)
        try:
            sim.run()
        finally:
            disarm_postmortem()
        with open(path) as fp:
            header, *events = [json.loads(line) for line in fp]
        assert header["last_handler"].endswith("grinding")
        assert [e["sim_time"] for e in events] == [0.0, 1.0]

    def test_beat_tail_ends_at_the_firing_that_beat(self):
        from repro.obs.telemetry import CHECK_EVERY

        obs = Observation(trace=False, profile=False, heartbeat=0.0,
                          sink=lambda line: None, recorder=4)
        tails = []
        obs.telemetry.beat_hook = lambda snap: tails.append(
            obs.recorder.snapshot()[-1]["sim_time"])
        sim = Simulator(seed=1)
        obs.attach(sim)
        for i in range(CHECK_EVERY):
            sim.schedule(float(i), fast)
        sim.run()
        # the CHECK_EVERY-th firing (at t = CHECK_EVERY - 1) beat
        assert tails == [float(CHECK_EVERY - 1)]

    def test_recorder_keeps_the_sampled_path(self):
        obs = Observation(trace=False, profile=False, telemetry=True,
                          metrics=True, recorder=5)
        sim = Simulator(seed=1)
        obs.attach(sim, track="t0")
        assert obs.bindings[0].sample_mask == 15
        for i in range(50):
            sim.schedule(float(i), fast)
        sim.run()
        assert [e["sim_time"] for e in obs.recorder.snapshot()] == [
            45.0, 46.0, 47.0, 48.0, 49.0]
        hist = obs.metrics.histogram("repro_handler_duration_ns", track="t0")
        assert hist.count == 50 // 16

    def test_detach_and_reattach_remove_the_hook(self):
        sim = Simulator(seed=1)
        sim.pre_event_hooks.append(lambda ev: None)
        before = list(sim.pre_event_hooks)
        first = Observation(trace=False, profile=False, recorder=64)
        first.attach(sim)
        sim.schedule(0.0, fast)
        sim.run()
        assert len(first.recorder) == 1
        first.detach(sim)
        assert sim.pre_event_hooks == before
        sim.schedule(1.0, fast)
        sim.run()
        assert len(first.recorder) == 1
        first.attach(sim)
        second = Observation(trace=False, profile=False, recorder=64)
        second.attach(sim)  # moves sim off the first observation
        assert sim.pre_event_hooks == before + [second.bindings[0].ring_hook]
        sim.schedule(2.0, fast)
        sim.run()
        assert len(first.recorder) == 1 and len(second.recorder) == 1
        second.close()
        assert sim.pre_event_hooks == before

    def test_queue_depth_is_the_pending_count_under_time_warp(self):
        # A Time Warp restore replaces sim._queue, so the depth must be
        # read through the simulator at each firing.
        from repro.core.optimistic import OptimisticExecutor
        from repro.workloads.partitioned import build_partitioned_ring

        model = build_partitioned_ring(k=4, seed=7, jobs_per_site=60,
                                       horizon=200.0)
        ring = FlightRecorder(capacity=100_000)
        Observation(trace=False, profile=False, telemetry=False,
                    recorder=ring).attach_lps(model.lps)
        seen = []
        for lp in model.lps:
            lp.sim.pre_event_hooks.append(
                lambda ev, lp=lp: seen.append(
                    (lp.name, ev.time, lp.sim.pending)))
        stats = OptimisticExecutor(batch=32, checkpoint_every=8).run(
            model.lps, until=200.0)
        assert stats.rollbacks >= 1
        assert len(seen) < ring.capacity
        assert [(track, t, depth) for track, t, _, depth in ring.ring] == seen
