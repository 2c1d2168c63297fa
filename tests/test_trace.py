"""Tests for trace recording, the monitoring file format, and replay."""

import io

import pytest

from repro.core import (
    Monitor,
    Process,
    Resource,
    Simulator,
    TraceDrivenSimulator,
    TraceFormatError,
    TraceRecord,
    TraceRecorder,
    read_trace,
    write_trace,
)
from repro.core.trace import parse_trace_line


class TestFormat:
    def test_roundtrip(self):
        recs = [
            TraceRecord(0.0, "siteA", "job_arrival", 1.0, {"job": "j1"}),
            TraceRecord(2.5, "siteB", "transfer", 100.0, {"file": "f1", "dst": "siteA"}),
        ]
        buf = io.StringIO()
        assert write_trace(recs, buf) == 2
        buf.seek(0)
        back = read_trace(buf)
        assert back == recs

    def test_escaping_of_tabs_and_newlines(self):
        rec = TraceRecord(1.0, "s\tite", "k\nind", 0.0, {"a": "v\tal"})
        buf = io.StringIO()
        write_trace([rec], buf)
        buf.seek(0)
        assert read_trace(buf) == [rec]

    def test_headerless_file_accepted(self):
        body = "0.0\tsrc\tkind\t1.0\n2.0\tsrc\tkind\t2.0\n"
        recs = read_trace(io.StringIO(body))
        assert len(recs) == 2 and recs[1].time == 2.0

    def test_comments_and_blanks_skipped(self):
        body = "# repro-trace v1\n\n# comment\n1.0\ts\tk\t0.0\n"
        assert len(read_trace(io.StringIO(body))) == 1

    def test_unsorted_rejected_by_default(self):
        body = "# repro-trace v1\n5.0\ts\tk\t0.0\n1.0\ts\tk\t0.0\n"
        with pytest.raises(TraceFormatError, match="backwards"):
            read_trace(io.StringIO(body))
        recs = read_trace(io.StringIO(body), require_sorted=False)
        assert len(recs) == 2

    def test_short_line_rejected(self):
        with pytest.raises(TraceFormatError, match="fields"):
            parse_trace_line("1.0\tonly_two")

    def test_bad_number_rejected(self):
        with pytest.raises(TraceFormatError, match="numeric"):
            parse_trace_line("abc\ts\tk\t1.0")

    def test_bad_attr_rejected(self):
        with pytest.raises(TraceFormatError, match="attr"):
            parse_trace_line("1.0\ts\tk\t1.0\tnoequals")


class TestRecorder:
    def test_records_fired_events_with_labels(self):
        sim = Simulator()
        rec = TraceRecorder("run1").attach(sim)
        sim.schedule(1.0, lambda: None, label="alpha")
        sim.schedule(2.0, lambda: None, label="beta")
        sim.run()
        assert [r.kind for r in rec] == ["alpha", "beta"]
        assert [r.time for r in rec] == [1.0, 2.0]

    def test_filter_limits_capture(self):
        sim = Simulator()
        rec = TraceRecorder("run1", event_filter=lambda e: e.label == "keep").attach(sim)
        sim.schedule(1.0, lambda: None, label="keep")
        sim.schedule(2.0, lambda: None, label="drop")
        sim.run()
        assert len(rec) == 1

    def test_dumps_parses_back(self):
        sim = Simulator()
        rec = TraceRecorder("x").attach(sim)
        sim.schedule(1.5, lambda: None, label="evt")
        sim.run()
        back = read_trace(io.StringIO(rec.dumps()))
        assert back[0].kind == "evt" and back[0].time == 1.5


    def test_same_model_twice_in_one_process_records_identical_traces(self):
        # Unnamed processes are labelled per simulator, so a trace (the
        # replay input) does not depend on what ran earlier in the process.
        def run_once():
            sim = Simulator(seed=7)
            rec = TraceRecorder("run").attach(sim)
            stream = sim.streams.stream("hold")

            def body():
                for _ in range(3):
                    yield stream.exponential(1.0)
            Process(sim, body)
            Process(sim, body)
            sim.run()
            return rec.dumps()

        first = run_once()
        # (this used to read the ``start:process-1`` row; spawns are run-queue
        # resumes now, so a process's only rows are its holds)
        assert "hold:process-1" in first and "hold:process-2" in first
        assert "start:" not in first and "wake:" not in first
        assert run_once() == first


class TestTraceDriven:
    def records(self):
        return [
            TraceRecord(1.0, "m", "arrive", 10.0),
            TraceRecord(2.0, "m", "depart", 10.0),
            TraceRecord(5.0, "m", "arrive", 20.0),
        ]

    def test_replay_dispatches_by_kind(self):
        sim = TraceDrivenSimulator(self.records())
        seen = []
        sim.on("arrive", lambda s, r: seen.append(("a", s.now, r.value)))
        sim.on("depart", lambda s, r: seen.append(("d", s.now, r.value)))
        sim.run()
        assert seen == [("a", 1.0, 10.0), ("d", 2.0, 10.0), ("a", 5.0, 20.0)]
        assert sim.replayed == 3 and sim.unhandled == 0

    def test_unhandled_counted(self):
        sim = TraceDrivenSimulator(self.records())
        sim.on("arrive", lambda s, r: None)
        sim.run()
        assert sim.unhandled == 1  # 'depart'

    def test_strict_mode_raises(self):
        sim = TraceDrivenSimulator(self.records(), strict=True)
        sim.on("arrive", lambda s, r: None)
        with pytest.raises(TraceFormatError, match="depart"):
            sim.run()

    def test_default_handler_catches_rest(self):
        sim = TraceDrivenSimulator(self.records())
        rest = []
        sim.on("arrive", lambda s, r: None)
        sim.on_default(lambda s, r: rest.append(r.kind))
        sim.run()
        assert rest == ["depart"]

    def test_unsorted_input_is_sorted(self):
        recs = [TraceRecord(5.0, "m", "k", 0.0), TraceRecord(1.0, "m", "k", 0.0)]
        sim = TraceDrivenSimulator(recs)
        times = []
        sim.on("k", lambda s, r: times.append(s.now))
        sim.run()
        assert times == [1.0, 5.0]

    def test_record_then_replay_reproduces_timing(self):
        """E12 in miniature: record a stochastic run, replay it exactly."""
        src = Simulator(seed=5)
        rec = TraceRecorder("src").attach(src)
        stream = src.stream("arr")

        def arrival(i):
            if i < 20:
                src.schedule(stream.exponential(2.0), arrival, i + 1,
                             label="arrival")

        src.schedule(0.0, arrival, 0, label="arrival")
        src.run()
        original_times = [r.time for r in rec]

        replay = TraceDrivenSimulator(rec.records)
        replay_times = []
        replay.on("arrival", lambda s, r: replay_times.append(s.now))
        replay.run()
        assert replay_times == original_times

    def test_replay_of_a_recorded_process_model_reproduces_the_aggregate(self):
        """A process model's trace is its holds (spawns and wakes are not
        events): ``hold:source`` rows are arrivals, ``hold:cust-i`` rows
        departures — enough to rebuild the time-average number in system."""
        n_jobs = 200
        src = Simulator(seed=11)
        rec = TraceRecorder("src").attach(src)
        arr, svc = src.stream("arr"), src.stream("svc")
        station = Resource(src, name="station")
        in_system = Monitor("m").level("L", start_time=0.0)

        def customer():
            in_system.add(src.now, +1)
            req = yield station.request()
            yield svc.exponential(0.7)
            station.release(req)
            in_system.add(src.now, -1)

        def source():
            for i in range(n_jobs):
                Process(src, customer, name=f"cust-{i}")
                yield arr.exponential(1.0)

        Process(src, source, name="source")
        src.run()
        assert len(rec.records) == src.events_executed == 2 * n_jobs

        replay = TraceDrivenSimulator(rec.records)
        level = Monitor("r").level("L", start_time=0.0)
        level.add(0.0, +1)              # cust-0 arrives with the source
        arrivals = [1]

        def arrive(sim, r):
            if arrivals[0] < n_jobs:    # the source's last hold spawns nobody
                arrivals[0] += 1
                level.add(sim.now, +1)

        replay.on("hold:source", arrive)
        replay.on_default(lambda sim, r: level.add(sim.now, -1))
        replay.run()
        assert replay.unhandled == 0 and replay.now == src.now
        assert level.mean(replay.now) == in_system.mean(src.now)
