"""Self-tests of the benchmark harness (not part of tier-1 collection).

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bench import child, metrics, trace, workloads

ROOT = Path(__file__).resolve().parent.parent
TINY = 0.01


def run_cli(tmp_path, *args) -> dict:
    out = tmp_path / f"result-{len(list(tmp_path.iterdir()))}.json"
    subprocess.run([sys.executable, "bench/run.py", *args, "--out", str(out)],
                   cwd=ROOT, check=True, capture_output=True, timeout=300)
    return json.loads(out.read_text())["workloads"]


def test_self_time_on_nested_spans():
    # 0:[0,100] > 1:[10,40] > 2:[20,30];  0 > 3:[50,90];  4:[100,120] alone
    par = np.array([-1, 0, 1, 0, -1])
    t0 = np.array([0, 10, 20, 50, 100])
    t1 = np.array([100, 40, 30, 90, 120])
    own = trace.self_times(par, t0, t1)
    assert own.tolist() == [30.0, 20.0, 10.0, 40.0, 20.0]
    assert own.sum() == (100 - 0) + (120 - 100)


def test_layer_budget_attributes_by_layer():
    tr = trace.Tracer()
    root = tr.open(tr.name_id("run", None))
    a = tr.open(tr.name_id("A.f", "core.engine"))
    b = tr.open(tr.name_id("B.g", "core.queues"))
    tr.close(b)
    tr.close(a)
    tr.close(root)
    spans = trace.Spans(tr)
    budget = spans.budget(root, root)
    dur = spans.t1 - spans.t0
    assert budget["busy_s"]["core.queues"] == pytest.approx(dur[2] / 1e9)
    assert budget["busy_s"]["core.engine"] == pytest.approx((dur[1] - dur[2]) / 1e9)
    assert budget["unattributed_frac"] == pytest.approx((dur[0] - dur[1]) / dur[0])
    assert budget["calls_n"]["core.queues"] == 1
    assert spans.calls(".g", "core.queues", outermost=True) == 1


def test_wrappers_only_during_the_traced_repetition(monkeypatch):
    wl = workloads.WORKLOADS["timeout_churn"]
    seen = []
    check = wl.check
    monkeypatch.setattr(wl, "check", lambda *a: (
        seen.append((wl.traced, len(trace.installed()))), check(*a))[1])
    assert trace.installed() == []
    timed = child.measure_timed(wl, seed=3, scale=TINY, reps=2)
    assert timed["failed"] == 0 and all(n == 0 for _, n in seen)
    seen.clear()
    traced = child.measure_traced(wl, seed=3, scale=TINY, rounds=1)
    assert traced["failed"] == 0
    assert [n > 0 for _, n in seen] == [t for t, _ in seen] and any(
        t for t, _ in seen)
    assert trace.installed() == []
    assert traced["sim_digest"] == timed["sim_digest"]


def test_handler_and_body_spans_reach_their_layers():
    wl = workloads.WORKLOADS["mm1_station"]
    layer = child.measure_traced(wl, seed=3, scale=TINY, rounds=1)["per_layer"]
    n_jobs = wl.params(TINY)["n_jobs"]
    assert layer["core.process.spawn_n"] == n_jobs + 1      # + the source
    assert layer["core.engine.events_n"] == layer["core.queues.push_n"]
    assert layer["validation.busy_s"] > 0       # process bodies, by module
    assert layer["core.process.busy_s"] > 0     # Process._step handlers
    assert layer["trace.unattributed_frac"] <= 0.10
    assert layer["floor.mm1_ratio"] > 1.0


def test_broken_check_is_counted_not_raised(monkeypatch):
    wl = workloads.WORKLOADS["mm1_station"]
    monkeypatch.setattr(wl, "theory", lambda inp: {"W": 0.5,
                                                   "utilization": 0.8})
    out = child.measure_timed(wl, seed=3, scale=TINY, reps=2)
    assert out["attempted"] == 2 and out["failed"] == 2
    assert "theory" in out["failures"][0]


def test_crashing_workload_is_counted_not_raised(monkeypatch):
    wl = workloads.WORKLOADS["timeout_churn"]
    monkeypatch.setattr(wl, "run", lambda state: 1 / 0)
    out = child.measure_timed(wl, seed=3, scale=TINY, reps=2, warmup=False)
    assert out["failed"] == out["attempted"] == 2 and out["wall_s"] is None


def test_single_core_skips_the_pool_rows(monkeypatch):
    wl = workloads.WORKLOADS["campaign_dependability"]
    monkeypatch.setattr(workloads.os, "cpu_count", lambda: 1)
    out = child.measure_traced(wl, seed=3, scale=TINY, rounds=1, warmup=False)
    assert out["failed"] == 0
    assert out["per_layer"]["campaign.pool_speedup"] is None
    assert out["skipped"] == {
        "campaign.pool_speedup": "cpu_count == 1",
        "campaign.transport_overhead_frac": "cpu_count == 1"}
    assert out["per_layer"]["campaign.serial_wall_s"] > 0


def test_benchmark_json_matches_the_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")}
        for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(metrics.PER_LAYER)
    assert len(spec["per_layer"]) <= 128


def test_quick_suite_and_digests(tmp_path):
    t0 = time.perf_counter()
    first = run_cli(tmp_path, "--quick", "--seed", "11")
    assert time.perf_counter() - t0 < 60
    assert list(first) == list(workloads.WORKLOADS)
    for name, row in first.items():
        assert row["failed_frac"] == 0, (name, row["failures"])
        assert set(row["end_to_end"]) == {"wall_s", "setup_s", "peak_rss_mb"}
        applicable = {k for k, v in row["per_layer"].items() if v is not None}
        assert applicable <= {n for n, _, _ in metrics.PER_LAYER}, name
        assert row["per_layer"]["trace.unattributed_frac"] <= 0.10, name
    again = run_cli(tmp_path, "--quick", "--seed", "11", "--no-trace")
    other = run_cli(tmp_path, "--quick", "--seed", "12", "--no-trace")
    for name in workloads.WORKLOADS:
        assert again[name]["sim_digest"] == first[name]["sim_digest"], name
        assert other[name]["sim_digest"] != first[name]["sim_digest"], name


def test_contract_line_and_bare_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "timeout_churn",
         "--seed", "5", "--seconds", "1", "--trace", "1", "--quick",
         "--out", str(tmp_path / "r.json")],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=300)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    assert list(line["metrics"]) == [n for n, _, _ in metrics.PER_LAYER]
    # with only bench/ present there is no program to measure: harness error
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for f in (ROOT / "bench").glob("*.py"):
        (bare / "bench" / f.name).write_text(f.read_text())
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "timeout_churn",
         "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=300,
        env={"PATH": "/usr/bin:/bin"})
    assert res.returncode != 0 and "correct" not in res.stdout
