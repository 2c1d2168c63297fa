"""Tests for repro.obs.metrics — instruments, registry, exporters."""

import json
import pickle

import pytest

from repro.obs.metrics import (POW2_BUCKET_MAX_EXP, Counter, Gauge, Histogram,
                               Registry)


class TestInstruments:
    def test_counter_inc_and_hot_path_add(self):
        reg = Registry()
        c = reg.counter("events_total", track="a")
        c.inc()
        c.inc(2.5)
        c.value += 1.0  # the inlined hot-path form the binding uses
        assert reg.value("events_total", track="a") == 4.5

    def test_gauge_set_inc_dec(self):
        g = Registry().gauge("depth")
        g.set(10.0)
        g.inc(3.0)
        g.dec()
        assert g.value == 12.0

    def test_labels_partition_instruments(self):
        reg = Registry()
        a = reg.counter("n", track="a")
        b = reg.counter("n", track="b")
        assert a is not b
        a.inc()
        assert reg.value("n", track="a") == 1.0
        assert reg.value("n", track="b") == 0.0
        assert reg.value("n", track="missing") is None
        # same (name, labels) pair resolves to the same handle
        assert reg.counter("n", track="a") is a

    def test_kind_conflict_raises(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", track="other")


class TestHistogram:
    def test_pow2_bucketing_by_bit_length(self):
        h = Registry().histogram("ns")
        for v in (0, 1, 2, 3, 4, 1000):
            h.observe(v)
        # 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1000 (10 bits) -> 10
        assert h.counts[0] == 1 and h.counts[1] == 1
        assert h.counts[2] == 2 and h.counts[3] == 1
        assert h.counts[10] == 1
        assert h.count == 6 and h.sum == 1010.0
        assert h.mean == pytest.approx(1010.0 / 6)

    def test_pow2_overflow_bucket(self):
        h = Registry().histogram("ns")
        h.observe(float(2 ** 63))
        assert h.counts[POW2_BUCKET_MAX_EXP + 1] == 1

    def test_explicit_buckets_bisect(self):
        h = Registry().histogram("w", buckets=[1.0, 10.0, 100.0])
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        # inclusive upper bounds: 0.5,1.0 -> le=1; 5 -> le=10; 50 -> le=100
        assert h.counts == [2, 1, 1, 1]
        assert h.bucket_bounds() == [1.0, 10.0, 100.0]

    def test_merge_adds_and_rejects_layout_mismatch(self):
        r1, r2 = Registry(), Registry()
        r1.histogram("h").observe(4)
        r2.histogram("h").observe(4)
        r1.merge(r2.dump())
        h = r1.histogram("h")
        assert h.count == 2 and h.counts[3] == 2
        bad = Registry()
        bad.histogram("h", buckets=[1.0]).observe(0.5)
        with pytest.raises(ValueError, match="bucket layouts differ"):
            r1.merge(bad.dump())


class TestRegistryTransport:
    def _loaded(self):
        reg = Registry()
        reg.counter("fired_total", help="events fired", track="t0").inc(10)
        reg.gauge("gvt").set(42.5)
        reg.histogram("dur_ns", track="t0").observe(1500)
        return reg

    def test_dump_is_plain_builtins(self):
        dump = self._loaded().dump()
        assert json.loads(json.dumps(dump)) == dump
        assert pickle.loads(pickle.dumps(dump)) == dump
        by_name = {e["name"]: e for e in dump}
        assert by_name["fired_total"]["value"] == 10.0
        assert by_name["fired_total"]["labels"] == {"track": "t0"}
        assert by_name["dur_ns"]["count"] == 1

    def test_merge_counters_add_gauges_take_latest(self):
        reg = Registry()
        reg.merge(self._loaded().dump()).merge(self._loaded().dump())
        assert reg.value("fired_total", track="t0") == 20.0
        assert reg.value("gvt") == 42.5
        assert reg.histogram("dur_ns", track="t0").count == 2

    def test_merge_into_empty_reproduces_dump(self):
        src = self._loaded()
        clone = Registry().merge(src.dump())
        assert clone.dump() == src.dump()
        assert clone.prometheus_text() == src.prometheus_text()


class TestExporters:
    def test_prometheus_text_format(self):
        reg = Registry()
        reg.counter("repro_events_fired_total", help="events fired",
                    track="mm1").inc(6)
        reg.gauge("repro_gvt").set(12.0)
        text = reg.prometheus_text()
        assert "# HELP repro_events_fired_total events fired" in text
        assert "# TYPE repro_events_fired_total counter" in text
        assert 'repro_events_fired_total{track="mm1"} 6' in text
        assert "\nrepro_gvt 12\n" in text

    def test_prometheus_histogram_cumulative_and_elision(self):
        reg = Registry()
        h = reg.histogram("dur", track="a")
        h.observe(2)   # bucket 2 (le=3)
        h.observe(3)   # bucket 2
        h.observe(9)   # bucket 4 (le=15)
        lines = reg.prometheus_text().splitlines()
        buckets = [ln for ln in lines if ln.startswith("dur_bucket")]
        # empty pow-2 buckets are elided but the cumulative stays correct
        assert buckets == [
            'dur_bucket{le="3",track="a"} 2',
            'dur_bucket{le="15",track="a"} 3',
            'dur_bucket{le="+Inf",track="a"} 3',
        ]
        assert 'dur_sum{track="a"} 14' in lines
        assert 'dur_count{track="a"} 3' in lines

    def test_jsonl_round_trip(self):
        reg = Registry()
        reg.counter("a").inc()
        reg.gauge("b").set(2.0)
        lines = reg.jsonl().splitlines()
        assert len(lines) == 2
        entries = [json.loads(ln) for ln in lines]
        assert Registry().merge(entries).value("a") == 1.0

    def test_empty_registry_exports(self):
        reg = Registry()
        assert reg.prometheus_text() == ""
        assert reg.jsonl() == ""
        assert len(reg) == 0
        assert bool(reg) is True
