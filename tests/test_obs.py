"""The obs subsystem: causal tracing, handler profiling, run telemetry.

Covers the span model (parentage, cancellation, cross-LP grafting), the
profiler's aggregation keys, telemetry snapshots/heartbeats, the Chrome
trace exporter's structural invariants, and the Observation session's
attach/detach lifecycle.
"""

import functools
import json

import pytest

from repro.core import Process, Signal, Simulator, timer
from repro.core.parallel import LogicalProcess, SequentialExecutor
from repro.core.timedriven import TimeDrivenSimulator
from repro.obs import (Observation, SpanStatus, Telemetry, Tracer,
                       callback_name, chrome_trace, profile_csv,
                       profile_markdown, HandlerProfiler)


def _observed_sim(**kw):
    obs = Observation(**kw)
    sim = Simulator(seed=1)
    obs.attach(sim, track="t0")
    return obs, sim


class TestCausalParentage:
    def test_child_scheduled_during_firing_gets_parent(self):
        obs, sim = _observed_sim()

        def root():
            sim.schedule(1.0, leaf, label="leaf")

        def leaf():
            pass

        sim.schedule(0.0, root, label="root")
        sim.run()
        spans = {s.label: s for s in obs.tracer.spans}
        assert spans["leaf"].parent is spans["root"]
        assert spans["root"].parent is None

    def test_chain_follows_generations(self):
        obs, sim = _observed_sim()

        def hop(i):
            if i < 3:
                sim.schedule(1.0, hop, i + 1, label=f"hop{i+1}")

        sim.schedule(0.0, hop, 0, label="hop0")
        sim.run()
        tracer = obs.tracer
        last = next(s for s in tracer.spans if s.label == "hop3")
        assert [s.label for s in tracer.chain(last)] == [
            "hop0", "hop1", "hop2", "hop3"]
        root = next(s for s in tracer.spans if s.label == "hop0")
        assert [s.label for s in tracer.children_of(root)] == ["hop1"]

    def test_externally_scheduled_events_are_roots(self):
        obs, sim = _observed_sim()
        sim.schedule(0.0, lambda: None, label="a")
        sim.schedule(1.0, lambda: None, label="b")
        sim.run()
        assert all(s.parent is None for s in obs.tracer.spans)

    def test_process_resumptions_stay_in_the_chain(self):
        """Used to count three fired spans (``start:p`` + two holds); spawns
        and wakes are run-queue resumes now, not events, so the property is:
        a hold armed by a resumed segment is parented to the firing that
        resumed it (the drain runs inside the observed firing)."""
        obs, sim = _observed_sim()

        def proc():
            yield 1.0
            yield 2.0

        Process(sim, proc(), name="p")
        sim.run()
        fired = obs.tracer.fired_spans()
        assert [s.label for s in fired] == ["hold:p", "hold:p"]
        # the first hold was armed by the entry drain, outside any firing
        assert fired[0].parent is None
        assert fired[1].parent is fired[0]
        # and the lifecycle markers made it on
        names = [m.name for m in obs.tracer.markers]
        assert "spawn:p" in names and "done:p" in names

    def test_hold_after_a_wake_is_parented_to_the_waking_handler(self):
        obs, sim = _observed_sim()

        def proc():
            yield timer(sim, 1.0)   # completed by a plain handler
            yield 2.0

        Process(sim, proc(), name="p")
        sim.run()
        by = {s.label: s for s in obs.tracer.fired_spans()}
        assert set(by) == {"timer", "hold:p"}
        assert by["hold:p"].parent is by["timer"]


class TestCancellation:
    def test_cancelled_event_resolved_at_finalize(self):
        obs, sim = _observed_sim()
        ev = sim.schedule(5.0, lambda: None, label="doomed")
        sim.schedule(1.0, lambda: None, label="live")
        ev.cancel()
        sim.run()
        obs.close()
        by = {s.label: s.status for s in obs.tracer.spans}
        assert by["doomed"] == SpanStatus.CANCELLED
        assert by["live"] == SpanStatus.FIRED
        counts = obs.tracer.counts()
        assert counts["cancelled"] == 1 and counts["fired"] == 1

    def test_fired_spans_drop_event_reference(self):
        obs, sim = _observed_sim()
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert all(s.event is None for s in obs.tracer.fired_spans())


class TestProfiler:
    def test_bound_methods_aggregate_under_one_key(self):
        class Sink:
            def __init__(self):
                self.n = 0

            def handle(self):
                self.n += 1

        obs, sim = _observed_sim(trace=False)
        sink = Sink()
        for i in range(10):
            sim.schedule(float(i), sink.handle)
        sim.run()
        rows = obs.profiler.rows()
        assert len(rows) == 1
        row = rows[0]
        assert row.count == 10 and sink.n == 10
        assert row.key.endswith("Sink.handle")
        assert row.total_ns > 0 and row.max_ns >= row.mean_ns >= row.min_ns
        assert obs.profiler.share(row) == pytest.approx(1.0)

    def test_resumed_segments_are_charged_to_the_firing_that_woke_them(self):
        """The run queue drains inside the observed firing: model code in a
        woken process segment stays visible to ``--profile`` (>= 95% of the
        run's wall is in named handlers), under the event that woke it."""
        import time

        obs, sim = _observed_sim(trace=False, telemetry=False)
        sig = Signal()

        def body():
            yield sig
            time.sleep(0.05)            # model code in a woken segment

        Process(sim, body)
        sim.schedule(1.0, sig.fire)
        t0 = time.perf_counter_ns()
        sim.run()
        wall = time.perf_counter_ns() - t0
        (row,) = obs.profiler.rows()
        assert row.key.endswith("Signal.fire") and row.count == 1
        assert row.total_ns >= 0.95 * wall

    def test_distinct_handlers_get_distinct_rows(self):
        obs, sim = _observed_sim(trace=False)

        def a():
            pass

        def b():
            pass

        sim.schedule(0.0, a)
        sim.schedule(1.0, b)
        sim.schedule(2.0, a)
        sim.run()
        by_key = {r.key: r.count for r in obs.profiler.rows()}
        assert sum(by_key.values()) == 3 and len(by_key) == 2

    def test_callback_name_variants(self):
        assert callback_name(callback_name).endswith("spans.callback_name")
        part = functools.partial(callback_name, None)
        assert callback_name(part) == callback_name(callback_name)

        class C:
            def m(self):
                pass

        assert callback_name(C().m).endswith("C.m")

    def test_markdown_and_csv_reductions(self):
        prof = HandlerProfiler()
        for _ in range(5):
            prof.add(callback_name, 1000)
        md = profile_markdown(prof, top=5)
        assert md.splitlines()[0].startswith("| handler |")
        assert "callback_name" in md
        csv = profile_csv(prof)
        assert csv.startswith("handler,firings,total_ns")
        assert ",5," in csv


class TestTelemetry:
    def test_snapshot_counts_every_firing(self):
        obs, sim = _observed_sim(trace=False, profile=False)
        for i in range(50):
            sim.schedule(float(i), lambda: None)
        sim.run()
        snap = obs.telemetry.snapshot(sim)
        assert snap["events"] == 50
        assert snap["sim_time"] == pytest.approx(49.0)
        assert snap["wall_seconds"] > 0
        assert snap["events_per_sec"] > 0
        assert snap["queue_depth"] == 0

    def test_heartbeat_lines_reach_the_sink(self):
        lines = []
        tel = Telemetry(heartbeat=0.0, sink=lines.append, check_every=1)
        sim = Simulator()
        obs = Observation(trace=False, profile=False, telemetry=False)
        obs.telemetry = tel
        obs.attach(sim)
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert lines and all(line.startswith("[obs]") for line in lines)
        assert tel.heartbeats == len(lines)

    def test_snapshot_key_set_is_pinned(self):
        """Telemetry carries only what nothing else knows; every other run
        fact is read from its owner or the Registry (DESIGN.md "One owner
        per fact"), so a shadow counter cannot come back unnoticed."""
        obs, sim = _observed_sim(trace=False, profile=False)
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert list(obs.telemetry.snapshot(sim)) == [
            "events", "wall_seconds", "events_per_sec", "sim_time",
            "sim_wall_ratio", "queue_depth", "heartbeats"]


class TestChromeExport:
    def _traced_run(self):
        obs, sim = _observed_sim()

        def root():
            sim.schedule(1.0, lambda: None, label="child")

        sim.schedule(0.0, root, label="root")
        doomed = sim.schedule(9.0, lambda: None, label="doomed")
        doomed.cancel()
        sim.run()
        return obs

    def test_structure_and_json_round_trip(self):
        obs = self._traced_run()
        payload = obs.chrome_trace()
        text = json.dumps(payload)  # must be serializable as-is
        back = json.loads(text)
        events = back["traceEvents"]
        assert events, "trace must be non-empty"
        phases = {e["ph"] for e in events}
        assert {"M", "X"} <= phases
        assert back["otherData"]["tracer"]["fired"] == 2
        # cancelled events never become slices
        assert not any(e.get("name") == "doomed" for e in events
                       if e["ph"] == "X")

    def test_flow_arrows_pair_up_and_link_cause_to_effect(self):
        obs = self._traced_run()
        events = obs.chrome_trace()["traceEvents"]
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(ends) == 1
        assert starts[0]["id"] == ends[0]["id"]
        assert starts[0]["cat"] == "causal"
        slices = {e["name"]: e for e in events if e["ph"] == "X"}
        assert starts[0]["ts"] == slices["root"]["ts"]
        assert ends[0]["ts"] == slices["child"]["ts"]

    def test_slice_args_carry_sim_coordinates(self):
        obs = self._traced_run()
        events = obs.chrome_trace()["traceEvents"]
        child = next(e for e in events if e["ph"] == "X" and e["name"] == "child")
        assert child["args"]["t_sim"] == pytest.approx(1.0)
        assert child["args"]["scheduled_at"] == pytest.approx(0.0)
        assert child["dur"] >= 0

    def test_export_chrome_writes_loadable_file(self, tmp_path):
        obs = self._traced_run()
        path = tmp_path / "trace.json"
        n = obs.export_chrome(path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == n > 0

    def test_telemetry_block_reads_the_observed_clock(self, tmp_path):
        obs = self._traced_run()   # its clock stops at the child, t = 1
        path = tmp_path / "trace.json"
        obs.export_chrome(path)
        for payload in (obs.chrome_trace(), json.loads(path.read_text())):
            block = payload["otherData"]["telemetry"]
            assert block["sim_time"] == 1.0
            assert block["sim_wall_ratio"] > 0

    def test_trace_disabled_raises(self):
        obs = Observation(trace=False)
        with pytest.raises(ValueError, match="tracing"):
            obs.chrome_trace()
        with pytest.raises(ValueError, match="profiling"):
            Observation(profile=False).profile_table()


class TestCrossLP:
    def _ping_pong(self, rounds=6):
        a, b = LogicalProcess("A", seed=1), LogicalProcess("B", seed=2)
        a.connect(b, 1.0)
        b.connect(a, 1.0)

        def on_ball(lp, msg):
            if msg.payload < rounds:
                other = "B" if lp.name == "A" else "A"
                lp.send(other, "ball", msg.payload + 1)

        a.on_message("ball", on_ball)
        b.on_message("ball", on_ball)
        a.sim.schedule(0.0, a.send, "B", "ball", 0)
        return [a, b]

    def test_parent_grafted_across_lps(self):
        lps = self._ping_pong()
        obs = Observation().attach_lps(lps)
        SequentialExecutor().run(lps, until=100.0)
        obs.close()
        remote = [s for s in obs.tracer.spans if s.remote]
        assert remote, "cross-LP deliveries must be marked remote"
        for span in remote:
            assert span.parent is not None
            assert span.parent.track != span.track
        assert obs.tracer.counts()["cross_lp_links"] == len(remote)

    def test_chain_crosses_tracks(self):
        lps = self._ping_pong(rounds=4)
        obs = Observation().attach_lps(lps)
        SequentialExecutor().run(lps, until=100.0)
        deliveries = [s for s in obs.tracer.spans if s.remote
                      and s.status == SpanStatus.FIRED]
        last = max(deliveries, key=lambda s: s.due_sim)
        tracks = [s.track for s in obs.tracer.chain(last)]
        assert "A" in tracks and "B" in tracks
        assert len(tracks) > 2  # the whole rally, not one hop

    def test_remote_flows_render_in_chrome_trace(self):
        lps = self._ping_pong()
        obs = Observation().attach_lps(lps)
        SequentialExecutor().run(lps, until=100.0)
        events = obs.chrome_trace()["traceEvents"]
        assert any(e["ph"] == "s" and e["cat"] == "causal-remote"
                   for e in events)
        thread_names = {e["args"]["name"] for e in events
                        if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"A", "B"} <= thread_names


class TestTransfersAndJobs:
    def test_transfer_becomes_async_interval(self):
        from repro.network import (FileSpec, FileTransferService, FlowNetwork,
                                   Topology)

        topo = Topology()
        topo.add_link("a", "b", 100.0, 0.0)
        obs, sim = (Observation(), Simulator())
        obs.attach(sim, track="net")
        fts = FileTransferService(sim, FlowNetwork(sim, topo, efficiency=1.0))
        fts.fetch(FileSpec("data.bin", 100.0), "a", "b")
        sim.run()
        spans = obs.tracer.async_spans
        assert len(spans) == 1
        aspan = spans[0]
        assert not aspan.open and aspan.category == "transfer"
        assert "data.bin" in aspan.name
        assert aspan.end_sim > aspan.begin_sim
        assert aspan.args["bytes"] == 100.0
        events = obs.chrome_trace()["traceEvents"]
        assert {e["ph"] for e in events} >= {"b", "e"}


class TestObservationLifecycle:
    def test_attach_is_idempotent(self):
        obs = Observation()
        sim = Simulator()
        obs.attach(sim).attach(sim)
        assert len(obs.bindings) == 1
        assert sim._obs is obs.bindings[0]

    def test_detach_restores_null_object(self):
        obs = Observation()
        sim = Simulator()
        obs.attach(sim)
        obs.detach(sim)
        assert sim._obs is None and not obs.bindings
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert len(obs.tracer.spans) == 0  # detached => unobserved

    def test_close_finalizes_and_detaches_everything(self):
        obs = Observation()
        sims = [Simulator(), Simulator()]
        for i, sim in enumerate(sims):
            obs.attach(sim, track=f"s{i}")
        obs.close()
        assert all(sim._obs is None for sim in sims)
        assert obs.tracer._finalized

    def test_summary_reports_every_facet(self):
        obs, sim = _observed_sim()
        sim.schedule(0.0, lambda: None)
        sim.run()
        summary = obs.summary()
        assert summary["trace"]["fired"] == 1
        assert summary["profile"]["firings"] == 1
        assert summary["telemetry"]["events"] == 1

    def test_metrics_csv_combines_sections(self):
        obs, sim = _observed_sim()
        sim.schedule(0.0, lambda: None, label="x")
        sim.run()
        csv = obs.metrics_csv()
        assert "metric,value" in csv and "handler,firings" in csv


class TestEngineIntegration:
    def test_step_is_instrumented(self):
        obs, sim = _observed_sim()
        sim.schedule(0.0, lambda: None, label="stepped")
        assert sim.step() is True
        assert obs.tracer.fired_spans()[0].label == "stepped"

    def test_time_driven_loop_is_instrumented(self):
        obs = Observation()
        sim = TimeDrivenSimulator(tick=1.0)
        obs.attach(sim, track="td")
        sim.schedule(0.5, lambda: None, label="a")
        sim.schedule(1.5, lambda: None, label="b")
        sim.run(until=3.0)
        obs.close()
        assert obs.tracer.counts()["fired"] == 2
        assert obs.tracer.counts()["pending"] == 0

    def test_handler_exception_still_seals_span(self):
        obs, sim = _observed_sim()

        def boom():
            raise RuntimeError("boom")

        sim.schedule(0.0, boom, label="boom")
        with pytest.raises(RuntimeError):
            sim.run()
        span = obs.tracer.spans[0]
        assert span.status == SpanStatus.FIRED and span.dur_ns > 0
        # the binding's current-firing slot must not leak
        assert obs.bindings[0].current is None

    def test_standalone_tracer_repr_and_iter(self):
        tracer = Tracer()
        assert len(tracer) == 0 and list(tracer) == []
        assert chrome_trace(tracer)["traceEvents"]  # metadata only, still valid


class TestPicklableSnapshots:
    """Campaign workers ship telemetry across process boundaries: every
    snapshot/summary must survive a pickle round-trip and contain only
    builtin scalar types."""

    def test_telemetry_snapshot_round_trips(self):
        import pickle

        obs, sim = _observed_sim(trace=False, profile=False)
        for i in range(20):
            sim.schedule(float(i), lambda: None)
        sim.run()
        snap = obs.telemetry.snapshot(sim)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap
        for key, value in snap.items():
            assert type(key) is str
            assert type(value) in (int, float), (key, value)
        json.dumps(snap)  # and JSON-safe, for canonical records

    def test_monitor_summary_round_trips(self):
        import pickle

        from repro.core import Monitor

        mon = Monitor()
        for v in (1.0, 3.0, 0.5):
            mon.tally("wait").record(v)
        lv = mon.level("queue")
        lv.set(1.0, 2.0)
        lv.set(4.0, 0.0)
        mon.counter("served").increment(5.0)
        summary = mon.summary(t_end=10.0)
        clone = pickle.loads(pickle.dumps(summary))
        assert clone == summary
        for group in summary.values():
            for key, value in group.items():
                assert type(value) in (int, float), (key, value)
        json.dumps(summary)


# One observed run per fact owner: (metrics registry, {instrument: the
# owner's number}) — test_owner_equals_registry compares the two.

def _owned_flow_reallocations():
    from repro.network import FlowNetwork, Topology

    obs, sim = _observed_sim(trace=False, profile=False, metrics=True)
    topo = Topology()
    topo.add_link("a", "b", 100.0, 0.0)
    net = FlowNetwork(sim, topo, efficiency=1.0)
    net.transfer("a", "b", 200.0)
    net.transfer("a", "b", 100.0)
    sim.run()
    return obs.metrics, {
        "repro_flow_reallocations_total": net.sharing.recomputes}


def _owned_rollbacks():
    from repro.core.optimistic import OptimisticExecutor
    from repro.workloads.partitioned import build_partitioned_ring

    model = build_partitioned_ring(k=4, seed=7, jobs_per_site=60,
                                   horizon=200.0)
    obs = Observation(trace=False, profile=False,
                      metrics=True).attach_lps(model.lps)
    ex = OptimisticExecutor(batch=32, checkpoint_every=8)
    stats = ex.run(model.lps, until=200.0)
    for name, report in ex.lp_reports.items():
        assert obs.metrics.value("repro_rollbacks_total",
                                 track=name) == report.rollbacks
    return obs.metrics, {
        "repro_rollbacks_total": stats.rollbacks,
        "repro_rolled_back_events_total": stats.rolled_back_events,
        "repro_gvt_rounds_total": stats.epochs}


def _owned_queue_migrations():
    from repro.core.queues import AdaptiveQueue

    sim = Simulator(queue=AdaptiveQueue(
        window=16, ladder_size=64, calendar_size=24,
        calendar_skew=100.0, calendar_cancel=1.0))
    obs = Observation(trace=False, profile=False, metrics=True).attach(sim)
    for i in range(200):
        sim.schedule(float(i + 1), lambda: None)
    sim.run()
    return obs.metrics, {
        "repro_queue_migrations_total": sim._queue.migrations}


class TestMetricsFacet:
    def test_disabled_by_default_and_zero_handles(self):
        obs = Observation()
        assert obs.metrics is None and obs.recorder is None
        sim = Simulator()
        obs.attach(sim)
        assert sim._obs._m_fired is None
        with pytest.raises(ValueError, match="metrics"):
            obs.prometheus_text()

    def test_counters_track_scheduling_and_firing(self):
        obs, sim = _observed_sim(trace=False, profile=False, metrics=True)
        ev = sim.schedule(5.0, lambda: None, label="doomed")
        for i in range(20):
            sim.schedule(float(i), lambda: None)
        ev.cancel()
        sim.run()
        m = obs.metrics
        assert m.value("repro_events_scheduled_total", track="t0") == 21.0
        assert m.value("repro_events_fired_total", track="t0") == 20.0
        hist = m.histogram("repro_handler_duration_ns", track="t0")
        assert hist.count == 20 and hist.sum > 0
        assert m.value("repro_events_fired_total", track="t0") == \
            obs.telemetry.snapshot(sim)["events"]

    def test_shared_registry_partitions_by_track(self):
        from repro.obs import Registry

        reg = Registry()
        obs = Observation(trace=False, profile=False, metrics=reg)
        s1, s2 = Simulator(seed=1), Simulator(seed=2)
        obs.attach(s1, track="a")
        obs.attach(s2, track="b")
        s1.schedule(0.0, lambda: None)
        s1.schedule(1.0, lambda: None)
        s2.schedule(0.0, lambda: None)
        s1.run()
        s2.run()
        assert obs.metrics is reg
        assert reg.value("repro_events_fired_total", track="a") == 2.0
        assert reg.value("repro_events_fired_total", track="b") == 1.0
        assert "metrics" in repr(obs)
        assert obs.summary()["metrics"]["instruments"] == len(reg)

    def test_gvt_is_global_not_per_track(self):
        obs, sim = _observed_sim(trace=False, profile=False, metrics=True)
        binding = sim._obs
        binding.on_gvt(4.0)
        binding.on_gvt(9.0)
        m = obs.metrics
        # no track label: the gauge/counter are shared across bindings
        assert m.value("repro_gvt") == 9.0
        assert m.value("repro_gvt_rounds_total") == 2.0

    def test_optimistic_executor_reports_gvt_once_per_round(self):
        from repro.core.optimistic import OptimisticExecutor

        a, b = LogicalProcess("A", seed=1), LogicalProcess("B", seed=2)
        a.connect(b, 1.0)
        b.connect(a, 1.0)

        def bounce(lp, msg):
            if msg.payload < 4:
                other = "B" if lp.name == "A" else "A"
                lp.send(other, "ball", msg.payload + 1)

        a.on_message("ball", bounce)
        b.on_message("ball", bounce)
        obs = Observation(trace=False, profile=False,
                          metrics=True).attach_lps([a, b])
        a.sim.schedule(0.0, a.send, "B", "ball", 0)
        stats = OptimisticExecutor().run([a, b], until=20.0)
        # one count per round, not one per LP binding
        assert obs.metrics.value("repro_gvt_rounds_total") == stats.epochs >= 1

    @pytest.mark.parametrize("run", [_owned_flow_reallocations,
                                     _owned_rollbacks,
                                     _owned_queue_migrations],
                             ids=["flow_reallocations", "rollbacks",
                                  "queue_migrations"])
    def test_owner_equals_registry(self, run):
        """Each run fact has one owner; the Registry exports that number."""
        registry, owned = run()
        for name, value in owned.items():
            exported = sum(i.value for i in registry.instruments()
                           if i.name == name)
            assert exported == value > 0, name

    def test_prometheus_export_from_observation(self):
        obs, sim = _observed_sim(trace=False, profile=False, metrics=True)
        sim.schedule(0.0, lambda: None)
        sim.run()
        text = obs.prometheus_text()
        assert "# TYPE repro_events_fired_total counter" in text
        assert 'repro_events_fired_total{track="t0"} 1' in text


class TestLambdaDisambiguation:
    def test_lambdas_keyed_by_definition_site(self):
        f = lambda: None  # noqa: E731
        g = lambda: None  # noqa: E731
        nf, ng = callback_name(f), callback_name(g)
        assert nf != ng, "distinct lambdas must not collapse into one key"
        assert "test_obs.py" in nf and "<lambda>" in nf
        # same definition site -> same key, every call
        assert callback_name(f) == nf

    def test_partial_of_lambda_gets_site_too(self):
        f = lambda _x: None  # noqa: E731
        assert callback_name(functools.partial(f, 1)) == callback_name(f)
        assert "test_obs.py" in callback_name(f)

    def test_named_functions_unchanged(self):
        assert "@" not in callback_name(callback_name)

    def test_profiler_separates_lambda_rows(self):
        obs, sim = _observed_sim(trace=False)
        sim.schedule(0.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.run()
        keys = {r.key for r in obs.profiler.rows()}
        assert len(keys) == 2, f"expected two rows, got {keys}"


class TestMetricsLiteLoop:
    """Metrics-only runs take the engine's batched lite loop."""

    def _lite_obs(self):
        return Observation(trace=False, profile=False, telemetry=False,
                           metrics=True)

    def test_counters_exact_histogram_sampled(self):
        obs = self._lite_obs()
        sim = Simulator(seed=1)
        obs.attach(sim, track="t0")
        for i in range(40):
            sim.schedule(float(i), lambda: None)
        sim.run()
        m = obs.metrics
        assert m.value("repro_events_scheduled_total", track="t0") == 40.0
        assert m.value("repro_events_fired_total", track="t0") == 40.0
        hist = m.histogram("repro_handler_duration_ns", track="t0")
        # lite loop samples every 16th firing: firings 16 and 32
        assert hist.count == 2
        assert sum(hist.counts) == 2 and hist.sum > 0

    def test_flush_happens_on_stop_simulation(self):
        from repro.core import StopSimulation

        obs = self._lite_obs()
        sim = Simulator(seed=1)
        obs.attach(sim, track="t0")

        def boom():
            raise StopSimulation("enough")

        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.schedule(5.5, boom)
        sim.schedule(9.0, lambda: None)  # never fires
        sim.run()
        assert obs.metrics.value(
            "repro_events_fired_total", track="t0") == 6.0

    def test_lite_and_generic_paths_fire_identically(self):
        def run_with(obs):
            sim = Simulator(seed=7)
            obs.attach(sim, track="t0")
            fired = []
            for i in range(30):
                sim.schedule(float(i), fired.append, i)
            sim.run()
            return fired, sim.events_executed

        lite, n1 = run_with(self._lite_obs())
        generic, n2 = run_with(Observation(trace=False, profile=False,
                                           telemetry=True, metrics=True))
        assert lite == generic and n1 == n2 == 30

    def test_telemetry_or_recorder_forces_generic_path(self):
        # with telemetry on, every firing is timed (no sampling)
        obs = Observation(trace=False, profile=False, telemetry=True,
                          metrics=True)
        sim = Simulator(seed=1)
        obs.attach(sim, track="t0")
        for i in range(20):
            sim.schedule(float(i), lambda: None)
        sim.run()
        hist = obs.metrics.histogram("repro_handler_duration_ns", track="t0")
        assert hist.count == 20

    def test_max_events_budget_still_enforced(self):
        from repro.core import SchedulingError

        obs = self._lite_obs()
        sim = Simulator(seed=1)
        obs.attach(sim, track="t0")

        def chain():
            sim.schedule(sim.now + 1.0, chain)

        sim.schedule(0.0, chain)
        with pytest.raises(SchedulingError, match="budget"):
            sim.run(max_events=10)
        assert obs.metrics.value(
            "repro_events_fired_total", track="t0") == 10.0

    @pytest.mark.parametrize("executor",
                             ["sequential", "cmb", "window", "optimistic"])
    def test_sampling_cadence_survives_many_short_runs(self, executor):
        """The 1-in-16 cadence counts lifetime firings, not per-call ones.

        Executors drive each LP through many short ``run()`` calls (the
        optimistic one through single firings); a cadence that restarted
        per call sampled none of them — or all.
        """
        from repro.core.optimistic import OptimisticExecutor
        from repro.core.parallel import CMBExecutor, WindowExecutor
        from repro.workloads.partitioned import build_partitioned_ring

        factory = {"sequential": SequentialExecutor, "cmb": CMBExecutor,
                   "window": WindowExecutor,
                   "optimistic": OptimisticExecutor}[executor]
        ring = build_partitioned_ring(k=4, jobs_per_site=40, horizon=200.0)
        obs = self._lite_obs().attach_lps(ring.lps)
        factory().run(ring.lps, until=200.0)
        for lp in ring.lps:
            fired = lp.sim.events_executed
            assert fired > 160
            assert obs.metrics.value("repro_events_fired_total",
                                     track=lp.name) == fired
            hist = obs.metrics.histogram("repro_handler_duration_ns",
                                         track=lp.name)
            assert hist.count == fired // 16
