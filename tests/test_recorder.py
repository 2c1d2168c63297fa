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
