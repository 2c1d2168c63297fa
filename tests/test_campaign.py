"""Tests for the campaign subsystem: spec, runner, stats, search, CLI."""

import math
import os
import pickle
import re
import time

import pytest

from repro.campaign import (
    Axis,
    CampaignSpec,
    RunRecord,
    RunSpec,
    SCENARIOS,
    coverage_verdict,
    evaluate_objective,
    evolve,
    mser5,
    paired_summaries,
    parse_space,
    register_scenario,
    run_campaign,
    run_scenario,
    run_specs,
    summarize,
    t_quantile,
    theory_for,
)
from repro.campaign.runner import _execute
from repro.core import ConfigurationError
from repro.validation import mmck_station


def tiny_mm1_spec(replications=3, grid=None, seed=0):
    return CampaignSpec("mm1", base={"jobs": 300, "rho": 0.5},
                        grid=grid or {}, replications=replications,
                        root_seed=seed)


class TestSpec:
    def test_expansion_order_and_indices(self):
        spec = CampaignSpec("mm1", base={"jobs": 100},
                            grid={"rho": [0.3, 0.6], "mu": [1.0, 2.0]},
                            replications=2, root_seed=1)
        runs = spec.expand()
        assert len(runs) == len(spec) == 8
        assert [r.index for r in runs] == list(range(8))
        # axis order: rho varies slowest (first axis), mu next, rep fastest
        assert runs[0].params_dict["rho"] == 0.3
        assert runs[0].params_dict["mu"] == 1.0
        assert runs[1].replication == 1
        assert runs[2].params_dict["mu"] == 2.0

    def test_common_random_numbers_across_points(self):
        """Replication r gets the same seed at every grid point."""
        spec = CampaignSpec("mm1", grid={"rho": [0.3, 0.6, 0.9]},
                            replications=2, root_seed=5)
        runs = spec.expand()
        by_rep = {}
        for r in runs:
            by_rep.setdefault(r.replication, set()).add(r.seed)
        assert all(len(seeds) == 1 for seeds in by_rep.values())
        assert by_rep[0] != by_rep[1]

    def test_expansion_deterministic(self):
        a = tiny_mm1_spec(grid={"rho": [0.4, 0.8]}).expand()
        b = tiny_mm1_spec(grid={"rho": [0.4, 0.8]}).expand()
        assert a == b

    def test_different_root_seed_different_run_seeds(self):
        a = tiny_mm1_spec(seed=1).expand()
        b = tiny_mm1_spec(seed=2).expand()
        assert all(x.seed != y.seed for x, y in zip(a, b))

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec("mm1", grid={"rho": []})

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignSpec("mm1", replications=0)


#: every scenario the package registers, at reduced size: (base, grid)
REDUCED = {
    "mm1": ({"jobs": 300, "rho": 0.5}, {"rho": [0.4, 0.7]}),
    "mmc": ({"jobs": 300}, {}),
    "mm1k": ({"jobs": 300}, {}),
    "provision": ({"jobs": 300}, {"policy": ["pooled", "split"]}),
    "quadratic": ({}, {}),
    "dependability": ({"horizon": 200.0}, {}),
    "bricks": ({"clients": 2, "servers": 2, "horizon": 60.0}, {}),
    "optorsim": ({"jobs": 12}, {}),
    "chicagosim": ({"jobs": 12}, {"data_policy": ["none", "push"]}),
    "gridsim": ({"gridlets": 8}, {"strategy": ["time", "cost"]}),
    "simgrid": ({}, {"mode": ["static", "runtime"]}),
    "t0t1": ({"horizon": 120.0}, {}),
}
SHIPPED = sorted(name for name, fn in SCENARIOS.items()
                 if fn.__module__ == "repro.campaign.scenarios")


class TestRunnerDeterminism:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_serial_two_and_four_workers_identical(self, name):
        """The acceptance property, for every shipped scenario: each run
        is clean and observed, and per-seed records are byte-identical on
        a re-run and under serial, 2-worker, and 4-worker execution —
        same ordering, same values, regardless of completion order."""
        assert name in REDUCED, f"add {name!r} to REDUCED"
        base, grid = REDUCED[name]
        spec = CampaignSpec(name, base=base, grid=grid, replications=3,
                            root_seed=0)
        serial = run_campaign(spec, workers=1)
        assert serial.n_ok == len(serial.records) == len(spec)
        for workers in (1, 2, 4):
            rerun = run_campaign(spec, workers=workers)
            assert serial.metrics_bytes() == rerun.metrics_bytes()
            # every run is observed: all but quadratic, which draws one
            # number and fires no event, report the events they fired
            assert all(r.telemetry["events"] > 0 or name == "quadratic"
                       for r in rerun.records)
        assert [r.index for r in rerun.records] == list(range(len(spec)))

    def test_record_fields_plain_and_picklable(self):
        result = run_campaign(tiny_mm1_spec(replications=1))
        rec = result.records[0]
        clone = pickle.loads(pickle.dumps(rec))
        assert clone.metrics == rec.metrics
        assert clone.telemetry == rec.telemetry
        for v in rec.metrics.values():
            assert type(v) in (int, float)

    def test_telemetry_reported_but_not_canonical(self):
        result = run_campaign(tiny_mm1_spec(replications=1))
        rec = result.records[0]
        assert rec.telemetry.get("events", 0) > 0
        assert "telemetry" not in rec.canonical()
        assert "wall_seconds" not in rec.canonical()


@register_scenario("hang-on-flag")
def hang_on_flag(sim, params):
    if params.get("flag"):
        time.sleep(60)
    return {"v": 1.0}


class _ExitWhenUnpickled:
    """A param value that kills the worker unpickling its task, so the
    worker dies before it can send 'start'."""

    def __reduce__(self):
        return (os._exit, (3,))


class TestRunnerFailurePaths:
    def test_failed_scenario_retried_then_reported(self):
        @register_scenario("always-boom")
        def boom(sim, params):
            raise RuntimeError("boom")

        spec = CampaignSpec("always-boom", replications=2, root_seed=0)
        result = run_campaign(spec, workers=2, retries=1)
        assert [r.status for r in result.records] == ["failed", "failed"]
        assert all(r.attempts == 2 for r in result.records)
        assert result.retries_used == 2
        assert "boom" in result.records[0].error

    def test_serial_failure_keeps_other_runs(self):
        @register_scenario("fail-on-flag")
        def fail_on_flag(sim, params):
            if params.get("flag"):
                raise ValueError("flagged")
            return {"v": float(sim.streams.seed % 97)}

        spec = CampaignSpec("fail-on-flag", grid={"flag": [0, 1, 0]},
                            replications=1, root_seed=3)
        result = run_campaign(spec, workers=1)
        assert [r.status for r in result.records] == ["ok", "failed", "ok"]
        assert result.n_ok == 2

    def test_timeout_kills_and_records(self):
        spec = CampaignSpec("hang-on-flag", grid={"flag": [0, 1]},
                            replications=1, root_seed=0)
        t0 = time.perf_counter()
        result = run_campaign(spec, workers=2, timeout=0.5, retries=0)
        wall = time.perf_counter() - t0
        statuses = {r.params_dict["flag"]: r.status for r in result.records}
        assert statuses == {0: "ok", 1: "timeout"}
        assert result.timeouts == 1
        assert wall < 30.0  # killed, not joined for the full sleep

    def test_timeout_holds_with_one_worker(self):
        """A timeout sends even a one-worker campaign to the pool: an
        in-process run could not be stopped."""
        spec = CampaignSpec("hang-on-flag", grid={"flag": [0, 1]},
                            replications=1, root_seed=0)
        t0 = time.perf_counter()
        result = run_campaign(spec, workers=1, timeout=0.5, retries=0)
        assert time.perf_counter() - t0 < 30.0
        assert [r.status for r in result.records] == ["ok", "timeout"]
        assert result.timeouts == 1

    def test_timed_out_run_is_retried_on_a_fresh_worker(self, tmp_path):
        @register_scenario("hang-first-attempt")
        def hang_first_attempt(sim, params):
            if not os.path.exists(params["marker"]):
                open(params["marker"], "w").close()
                time.sleep(60)
            return {"v": 1.0}

        spec = CampaignSpec("hang-first-attempt",
                            base={"marker": str(tmp_path / "hung")})
        result = run_campaign(spec, workers=1, timeout=0.5, retries=1)
        rec = result.records[0]
        assert (rec.status, rec.attempts, rec.worker) == ("ok", 2, 1)
        assert result.timeouts == 1 and result.retries_used == 1

    def test_done_in_the_pipe_beats_the_kill(self):
        """Run 0 finishes past its timeout while the parent is busy (a
        slow progress callback on the 25th record), so its 'done' waits
        in the pipe when the sweep finds it overdue: it is recorded, not
        killed."""
        @register_scenario("nap")
        def nap(sim, params):
            time.sleep(params["nap"])
            return {"v": 1.0}

        spec = CampaignSpec("nap", grid={"nap": [1.3] + [0.0] * 25})
        result = run_campaign(spec, workers=2, timeout=1.0, retries=0,
                              progress=lambda line: time.sleep(1.5))
        assert [r.status for r in result.records] == ["ok"] * 26
        assert result.timeouts == 0

    def test_worker_dead_before_start_is_detected(self):
        spec = CampaignSpec("hang-on-flag", grid={
            "bomb": [None, _ExitWhenUnpickled(), None]})
        result = run_campaign(spec, workers=2, retries=1)
        assert [r.status for r in result.records] == ["ok", "failed", "ok"]
        assert result.records[1].attempts == 2
        assert "worker died (exitcode 3)" in result.records[1].error
        assert result.worker_deaths == 2

    def test_all_runs_timeout_without_retries_still_finishes(self):
        """Regression: a terminal give-up must free its worker for the
        next run exactly like a completion.  With every run hanging, the
        runner used to deadlock once the first runs were given up — no
        'done' ever arrived to trigger dispatch."""
        @register_scenario("hang-always")
        def hang_always(sim, params):
            time.sleep(60)

        spec = CampaignSpec("hang-always", replications=4, root_seed=0)
        t0 = time.perf_counter()
        result = run_campaign(spec, workers=2, timeout=0.3, retries=0)
        wall = time.perf_counter() - t0
        assert [r.status for r in result.records] == ["timeout"] * 4
        assert result.timeouts == 4
        assert wall < 30.0

    def test_dead_worker_run_retried_then_reported(self):
        """A worker that dies mid-run (no 'done' ever sent) must not hang
        the campaign: the run is retried, then recorded as failed."""
        @register_scenario("die-on-flag")
        def die_on_flag(sim, params):
            if params.get("flag"):
                os._exit(3)
            return {"v": 1.0}

        spec = CampaignSpec("die-on-flag", grid={"flag": [0, 1, 0]},
                            replications=1, root_seed=0)
        result = run_campaign(spec, workers=2, retries=1)
        assert [r.status for r in result.records] == ["ok", "failed", "ok"]
        assert result.n_ok == 2
        failed = result.records[1]
        assert failed.attempts == 2
        assert "worker died" in failed.error

    def test_progress_only_on_new_records(self):
        """Regression: the progress callback used to fire on every retried
        failure too, printing duplicate '0/N runs done' lines before any
        record existed."""
        @register_scenario("boom-fast")
        def boom_fast(sim, params):
            raise RuntimeError("boom")

        spec = CampaignSpec("boom-fast", replications=25, root_seed=0)
        messages = []
        run_campaign(spec, workers=2, retries=1, progress=messages.append)
        assert messages == ["[campaign] 25/25 runs done (0 timeouts)"]

    def test_next_run_goes_to_the_worker_that_frees_first(self):
        """Each worker holds one run in flight: while run 0 sleeps on one
        worker, runs 1-3 all go to the other instead of queueing behind
        run 0."""
        @register_scenario("slow-first")
        def slow_first(sim, params):
            if params.get("slow"):
                time.sleep(1.0)
            return {"v": 1.0}

        spec = CampaignSpec("slow-first", grid={"slow": [1, 0, 0, 0]},
                            replications=1, root_seed=0)
        result = run_campaign(spec, workers=2, retries=0)
        assert result.n_ok == 4
        slow_worker = result.records[0].worker
        assert [r.worker == slow_worker for r in result.records[1:]] \
            == [False] * 3

    def test_unknown_scenario_fails_cleanly(self):
        # checked with the params, before any run starts
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            run_campaign(CampaignSpec("no-such-scenario"), workers=1)

    def test_bad_retries_rejected(self):
        with pytest.raises(ConfigurationError):
            run_specs([], retries=-1)


class TestStats:
    def test_t_interval_matches_scipy(self):
        from scipy import stats as sps

        class Rec:
            status = "ok"

            def __init__(self, v):
                self.metrics = {"m": v}

        values = [1.0, 2.0, 4.0, 3.0, 2.5]
        summ = summarize([Rec(v) for v in values], ["m"], level=0.95)["m"]
        ref_mean, ref_var = 2.5, sum((v - 2.5) ** 2 for v in values) / 4
        assert summ.n == 5
        assert summ.mean == pytest.approx(ref_mean)
        assert summ.variance == pytest.approx(ref_var)
        t = sps.t.ppf(0.975, 4)
        assert summ.halfwidth == pytest.approx(t * math.sqrt(ref_var / 5))
        assert summ.contains(2.5) and not summ.contains(100.0)

    def test_single_run_has_infinite_interval(self):
        class Rec:
            status = "ok"
            metrics = {"m": 1.0}

        summ = summarize([Rec()], ["m"])["m"]
        assert summ.n == 1 and math.isinf(summ.halfwidth)
        assert summ.contains(1e9)

    def test_failed_runs_excluded(self):
        class Rec:
            def __init__(self, status, v):
                self.status = status
                self.metrics = {"m": v}

        summ = summarize([Rec("ok", 1.0), Rec("failed", 99.0),
                          Rec("ok", 3.0)], ["m"])["m"]
        assert summ.n == 2 and summ.mean == pytest.approx(2.0)

    def test_mser5_cuts_warmup_bias(self):
        # A strong initial transient then flat steady state: the cut must
        # remove (at least most of) the transient and nothing like the
        # whole series.
        series = [100.0 - i for i in range(50)] + [50.0] * 450
        cut = mser5(series)
        assert 20 <= cut <= 60
        # An already-stationary series needs (almost) no truncation.
        flat = [10.0, 10.5] * 250
        assert mser5(flat) <= 10

    def test_mser5_short_series_uncut(self):
        assert mser5([1.0, 2.0, 3.0]) == 0

    def test_quantile_validates(self):
        with pytest.raises(ConfigurationError):
            t_quantile(0.975, 0)

    # scipy answered NaN for all of these and the CI printed ``nan``
    @pytest.mark.parametrize("p, df", [
        (0.0, 9), (1.0, 9), (1.5, 9), (-0.1, 9), (math.nan, 9),
        (0.975, 0.5), (0.975, -3), (0.975, math.nan),
    ])
    def test_quantile_inputs_are_checked_not_nand(self, p, df):
        with pytest.raises(ConfigurationError):
            t_quantile(p, df)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.2, math.nan])
    def test_ci_level_is_checked_not_nand(self, level):
        from repro.core.monitor import Tally

        tally = Tally("x")
        for v in (1.0, 2.0, 4.0):
            tally.record(v)
        with pytest.raises(ConfigurationError):
            tally.confidence_interval(level)

    def test_one_run_gets_no_verdict(self):
        """An unbounded interval contains every value: no verdict."""
        class Rec:
            status = "ok"
            metrics = {"W": 2.4, "L": 1.2}

        assert coverage_verdict(summarize([Rec()]), {"W": 2.5, "L": 1.0}) \
            == {}
        assert set(coverage_verdict(summarize([Rec(), Rec()]),
                                    {"W": 2.5, "L": 1.0})) == {"W", "L"}

    def test_coverage_verdict_mm1(self):
        spec = tiny_mm1_spec(replications=4)
        result = run_campaign(spec, workers=1)
        summaries = result.summaries(["W", "L"], level=0.99)
        theory = theory_for("mm1", {"rho": 0.5})
        verdict = coverage_verdict(summaries, theory)
        assert set(verdict) == {"W", "L"}
        assert verdict["W"]["theory"] == pytest.approx(2.0)
        assert {"lo", "hi", "contains", "mean", "n"} <= set(verdict["W"])


def paired_records(values, point, seeds=None, failed=()):
    """One record per value of metric ``m``, replication i on seed i."""
    seeds = seeds or range(len(values))
    return [RunRecord(index=i, scenario="t", params=(), point=point,
                      replication=i, seed=seed, metrics={"m": v},
                      status="failed" if i in failed else "ok")
            for i, (v, seed) in enumerate(zip(values, seeds))]


class TestPairedSummaries:
    A = [2.1, 3.4, 1.9, 5.0, 4.2, 3.3]
    B = [1.7, 3.9, 0.8, 4.1, 4.0, 2.2]

    def test_ci_matches_scipy_ttest_rel(self):
        stats = pytest.importorskip("scipy.stats")
        for level in (0.9, 0.95):
            d = paired_summaries(paired_records(self.A, 0),
                                 paired_records(self.B, 1),
                                 level=level)["m"]
            ref = stats.ttest_rel(self.A, self.B).confidence_interval(level)
            assert d.n == 6
            assert d.lo == pytest.approx(float(ref.low), rel=1e-10)
            assert d.hi == pytest.approx(float(ref.high), rel=1e-10)

    def test_failed_run_drops_only_its_pair(self):
        d = paired_summaries(paired_records(self.A, 0),
                             paired_records(self.B, 1, failed={2}))["m"]
        diffs = [a - b for i, (a, b) in enumerate(zip(self.A, self.B))
                 if i != 2]
        assert d.n == 5
        assert d.mean == pytest.approx(sum(diffs) / 5)

    def test_pair_on_different_seeds_raises(self):
        with pytest.raises(ConfigurationError, match="replication 1"):
            paired_summaries(paired_records(self.A, 0),
                             paired_records(self.B, 1, seeds=[0, 9, 2, 3,
                                                              4, 5]))

    def test_grid_points_share_seeds(self):
        result = run_campaign(tiny_mm1_spec(grid={"rho": [0.3, 0.6]}),
                              workers=1)
        a, b = ([r for r in result.records if r.point == p] for p in (0, 1))
        d = paired_summaries(a, b, ["W"])["W"]
        assert d.n == 3 and d.hi < 0  # lighter load, shorter waits

    @pytest.mark.parametrize("grid, verdicts", [
        ("x=1,5", {"x": "a < b", "y": "not resolved"}),
        ("x=1,4", {"x": "a < b", "y": "a > b"}),
    ])
    def test_cli_prints_paired_verdicts(self, grid, verdicts, capsys):
        """y = (x-3)² + noise: equal at x=1 and x=5 under common random
        numbers, so every difference is exactly 0."""
        from repro.cli import main

        assert main(["campaign", "--scenario", "quadratic", "--grid", grid,
                     "--runs", "3"]) == 0
        out = capsys.readouterr().out.split("  paired a - b")[1]
        assert out.startswith(" on common random numbers: a = point 0 (x=1)")
        lines = {ln.split()[0]: ln for ln in out.splitlines()[1:]}
        assert set(lines) == set(verdicts)
        for name, verdict in verdicts.items():
            assert "point 0 - point 1" in lines[name]
            assert lines[name].endswith(f"n=3  {verdict}")

    @pytest.mark.parametrize("grid", [[], ["--grid", "x=1,4,5"]])
    def test_cli_pairs_only_two_points(self, grid, capsys):
        from repro.cli import main

        assert main(["campaign", "--scenario", "quadratic", *grid,
                     "--runs", "3"]) == 0
        assert "paired" not in capsys.readouterr().out


class TestMM1KTheory:
    """M/M/1/K as a campaign theory: ``theory_for`` is a mapping whose
    utilization is the busy fraction 1 - p_0, not the offered load."""

    BASE = {"rho": 0.9, "K": 3, "jobs": 2_000}
    METRICS = ["L", "Lq", "W", "Wq", "blocking", "utilization"]

    def test_theory_mapping(self):
        th = theory_for("mm1k", self.BASE)
        p0 = (1 - 0.9) / (1 - 0.9 ** 4)
        assert th["utilization"] == pytest.approx(1 - p0)
        assert th["blocking"] == pytest.approx(p0 * 0.9 ** 3)
        assert th["Lq"] == pytest.approx(th["L"] - th["utilization"])
        assert th["Wq"] == pytest.approx(th["W"] - 1.0)
        assert th["L"] == pytest.approx(
            0.9 * (1 - th["blocking"]) * th["W"])   # Little, admitted rate

    def test_campaign_cis_contain_theory_deterministically(self):
        spec = CampaignSpec("mm1k", base=self.BASE, replications=10,
                            root_seed=0)
        result = run_campaign(spec, workers=1)
        assert result.metrics_bytes() == \
            run_campaign(spec, workers=1).metrics_bytes()
        verdict = coverage_verdict(result.summaries(self.METRICS),
                                   theory_for("mm1k", self.BASE))
        assert set(verdict) == set(self.METRICS)
        assert all(v["contains"] for v in verdict.values()), verdict
        assert verdict["utilization"]["theory"] < 0.9

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario("mm1k", {"K": 0, "jobs": 100}, seed=0)


class TestDeclaredDefaults:
    """A scenario's defaults are declared once, in its registration: the
    run and ``theory_for`` read the same filled params."""

    def test_probe_sees_declared_defaults(self):
        @register_scenario("probe-defaults", defaults={"a": 1.5, "n": 4})
        def probe(sim, params):
            return {"a": params["a"], "n": params["n"]}

        assert run_scenario("probe-defaults", {}, seed=0)[0] == \
            {"a": 1.5, "n": 4}
        assert probe({}, 0)[0] == {"a": 1.5, "n": 4}
        assert probe({"n": 7}, 0)[0] == {"a": 1.5, "n": 7}
        assert run_scenario("probe-defaults", {"a": 2}, seed=0)[0] == \
            {"a": 2.0, "n": 4}

    @pytest.mark.parametrize("name", ["mm1", "mmc", "mm1k", "dependability"])
    def test_theory_reads_the_declared_defaults(self, name):
        declared = SCENARIOS[name].defaults
        assert declared
        bare, full = theory_for(name, {}), theory_for(name, declared)
        assert bare is not None
        if not isinstance(bare, dict):
            bare, full = vars(bare), vars(full)
        assert bare == full

    def test_undeclared_param_rejected(self):
        """A misspelled param is an error naming the declared ones, not a
        run at its default; the queueing scenarios declare warmup."""
        with pytest.raises(ConfigurationError,
                           match="no param targte; it declares noise, "
                                 "target, x"):
            run_scenario("quadratic", {"x": 3.0, "targte": 0.0}, 1)
        tenth, sixty, cut = (run_scenario("mm1", {"jobs": 600, **w}, 2)[0]
                             for w in ({}, {"warmup": 60}, {"warmup": 100}))
        assert tenth == sixty != cut

    WARMUP_KIND = "a job count >= 0 or 'mser5'"

    @pytest.mark.parametrize("name,value,kind", [
        pytest.param("warmup", "abc", WARMUP_KIND, id="abc"),
        pytest.param("warmup", 2.5, WARMUP_KIND, id="2.5"),
        pytest.param("warmup", -1, WARMUP_KIND, id="-1"),
        pytest.param("warmup", True, WARMUP_KIND, id="True"),
        # a typed param given None from the library (the CLI cannot)
        pytest.param("rho", None, "float, got None", id="rho-None"),
    ])
    def test_warmup_checked_with_the_other_params(self, name, value, kind):
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"param {name} must be {kind}")):
            run_scenario("mm1", {"jobs": 600, name: value}, 2)

    def test_bool_takes_true_and_false_by_name(self):
        agent = {word: run_scenario("t0t1", {"agent": word}, 3)[0]
                 for word in ("TRUE", "true", True, "False", False)}
        assert agent["TRUE"] == agent["true"] == agent[True] \
            != agent["False"] == agent[False]
        with pytest.raises(ConfigurationError,
                           match="param churn must be bool, got 'maybe'"):
            run_scenario("simgrid", {"churn": "maybe"}, 3)
        with pytest.raises(ConfigurationError,
                           match="param x must be float, got 'true'"):
            run_scenario("quadratic", {"x": "true"}, 3)

    def test_theory_without_declaration_is_none(self):
        assert theory_for("quadratic", {}) is None
        assert theory_for("no-such-scenario", {}) is None


class TestMSER5Scenario:
    def test_mm1_mser5_warmup_mode(self):
        metrics, _ = run_scenario(
            "mm1", {"rho": 0.5, "jobs": 600, "warmup": "mser5"}, seed=2)
        assert "mser5_cut" in metrics and "W_raw" in metrics
        assert metrics["mser5_cut"] % 5 == 0
        assert metrics["W"] > 0


class TestSearch:
    AXES = [Axis("x", lo=-8.0, hi=8.0)]

    def run_search(self, seed=3):
        return evolve("quadratic", self.AXES, "y", mode="min",
                      population=10, generations=6, replications=3,
                      base={"noise": 0.05, "target": 3.0}, root_seed=seed)

    def test_converges_near_optimum(self):
        res = self.run_search()
        assert abs(res.best_genome["x"] - 3.0) < 1.5
        assert res.best_fitness < 2.0

    def test_deterministic_given_seed(self):
        a, b = self.run_search(), self.run_search()
        assert a.best_genome == b.best_genome
        assert a.history == b.history
        assert a.evaluations == b.evaluations

    def test_history_monotone_best(self):
        res = self.run_search()
        bests = [h["best_fitness"] for h in res.history]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(bests, bests[1:]))

    def test_categorical_axis_and_provision(self):
        """The provisioning study: search must discover that pooling
        beats splitting (queueing theory) under a per-server cost."""
        res = evolve("provision",
                     [Axis("servers", lo=2, hi=8, integer=True),
                      Axis("policy", choices=("pooled", "split"))],
                     "W + 0.15 * servers", mode="min",
                     population=6, generations=3, replications=2,
                     base={"lam": 3.0, "jobs": 800}, root_seed=5)
        assert res.best_genome["policy"] == "pooled"
        assert 4 <= res.best_genome["servers"] <= 8

    def test_objective_expression_guarded(self):
        assert evaluate_objective("W + 0.5 * c", {"W": 2.0, "c": 4}) == 4.0
        with pytest.raises(ConfigurationError):
            evaluate_objective("__import__('os')", {"W": 1.0})
        with pytest.raises(ConfigurationError):
            evaluate_objective("missing_metric", {"W": 1.0})

    def test_parse_space(self):
        axes = parse_space(["c=1:8:int", "rho=0.1:0.9", "pol=a,b,c"])
        assert axes[0].integer and axes[0].lo == 1 and axes[0].hi == 8
        assert not axes[1].integer
        assert axes[2].choices == ("a", "b", "c")
        with pytest.raises(ConfigurationError):
            parse_space(["bogus"])

    def test_range_with_whole_number_bounds_stays_float(self):
        """Regression: '1:4' used to be silently promoted to an integer
        axis; only the explicit ':int' suffix may discretize a range."""
        ax = Axis.parse("x", "1:4")
        assert not ax.integer
        assert ax.lo == 1.0 and ax.hi == 4.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            evolve("quadratic", self.AXES, "y", mode="sideways")


class TestCampaignCLI:
    def test_campaign_table(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--scenario", "mm1", "--grid", "rho=0.5",
                     "--set", "jobs=400", "--runs", "3",
                     "--metrics", "W,L"]) == 0
        out = capsys.readouterr().out
        assert "point 0" in out and "theory" in out and "ok" in out

    def test_campaign_parallel_matches_serial_output(self, capsys):
        from repro.cli import main

        args = ["campaign", "--scenario", "mm1", "--grid", "rho=0.5",
                "--set", "jobs=300", "--runs", "2", "--metrics", "W"]
        assert main(args) == 0
        serial_out = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        par_out = capsys.readouterr().out
        # Everything but the wall-clock/worker header line must agree.
        assert serial_out.splitlines()[1:] == par_out.splitlines()[1:]

    def test_campaign_evolve_cli(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--scenario", "quadratic", "--evolve",
                     "--space", "x=-5:5", "--objective", "y",
                     "--set", "noise=0.05", "--runs", "2",
                     "--population", "6", "--generations", "2"]) == 0
        out = capsys.readouterr().out
        assert "best fitness" in out and "x =" in out

    def test_evolve_requires_space(self, capsys):
        from repro.cli import main

        assert main(["campaign", "--evolve"]) == 2

    def test_validate_ensemble_verdict(self, capsys):
        from repro.cli import main

        assert main(["validate", "--rho", "0.6", "--jobs", "8000",
                     "--runs", "4", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "ensemble: 4/4 runs ok" in out
        assert "CI verdict: theory inside every interval" in out


class TestCampaignObservability:
    """PR 9: metrics shipping, fleet telemetry, and flight recorder."""

    def test_obs_metrics_shipped_but_not_canonical(self):
        result = run_campaign(tiny_mm1_spec(replications=2), workers=1)
        rec = result.records[0]
        assert rec.obs_metrics, "runs must ship a metrics registry dump"
        fired = [row for row in rec.obs_metrics
                 if row["name"] == "repro_events_fired_total"]
        assert fired and fired[0]["value"] > 0
        # the dump is plain builtins and survives the pipe
        assert pickle.loads(pickle.dumps(rec.obs_metrics)) == rec.obs_metrics
        # ... but wall-clock-dependent data stays out of the determinism gate
        assert "obs_metrics" not in rec.canonical()
        assert "recorder_path" not in rec.canonical()

    def test_campaign_telemetry_rollups(self):
        result = run_campaign(
            tiny_mm1_spec(replications=2, grid={"rho": [0.4, 0.7]}),
            workers=2)
        tel = result.telemetry
        assert tel is not None
        assert sum(w["runs"] for w in tel.per_worker.values()) == 4
        assert sum(w["ok"] for w in tel.per_worker.values()) == 4
        assert set(tel.per_point) == {0, 1}
        assert "rho=0.4" in tel.per_point[0]["label"]
        assert tel.events > 0
        # the merged registry agrees with the telemetry event count
        from repro.obs import Registry
        assert isinstance(tel.metrics, Registry)
        fired = sum(row["value"] for row in tel.metrics.dump()
                    if row["name"] == "repro_events_fired_total")
        assert int(fired) == tel.events
        report = tel.report()
        assert "campaign telemetry" in report
        assert "worker" in report and "rho=0.7" in report
        assert tel.slowest and tel.slowest[0]["wall_seconds"] >= \
            tel.slowest[-1]["wall_seconds"]

    def test_serial_run_gets_telemetry_too(self):
        result = run_campaign(tiny_mm1_spec(replications=2), workers=1)
        tel = result.telemetry
        assert tel is not None
        assert set(tel.per_worker) == {-1}
        assert tel.per_worker[-1]["runs"] == 2
        assert "serial" in tel.report()

    def test_timeout_leaves_readable_flight_dump(self, tmp_path):
        @register_scenario("spin-then-hang")
        def spin_then_hang(sim, params):
            mmck_station(sim, 0.5, 1.0, n_jobs=1500, warmup=150)
            time.sleep(60)
            return {}

        spec = CampaignSpec("spin-then-hang", replications=2, root_seed=0)
        result = run_campaign(spec, workers=2, timeout=1.0, retries=0,
                              recorder_dir=str(tmp_path))
        assert result.timeouts == 2
        for rec in result.records:
            assert rec.status == "timeout"
            assert rec.recorder_path and os.path.exists(rec.recorder_path)
            import json
            with open(rec.recorder_path) as fp:
                lines = [json.loads(line) for line in fp]
            header, events = lines[0], lines[1:]
            assert header["record"] == "flight-recorder"
            assert header["reason"] == "terminated"
            assert header["run_index"] == rec.index
            # the dump names the handler the run was grinding through
            assert header["last_handler"]
            assert events and events[-1]["handler"] == header["last_handler"]
            assert all(e["queue_depth"] >= 0 for e in events)

    def test_dead_worker_partial_dump_and_no_double_count(self, tmp_path):
        """A worker that dies via os._exit can't dump its own ring: the
        parent reconstructs a partial from the last beat frame, and the
        retried run contributes exactly one record to the rollups."""
        @register_scenario("beat-then-die")
        def beat_then_die(sim, params):
            metrics = mmck_station(sim, 0.5, 1.0, n_jobs=3000,
                                   warmup=300).to_dict()
            if params.get("flag"):
                os._exit(3)
            return metrics

        spec = CampaignSpec("beat-then-die", grid={"flag": [0, 1, 0]},
                            replications=1, root_seed=0)
        # heartbeat=0.0 beats at every telemetry check (every 2048 events),
        # so the parent holds a fresh frame when the worker dies.
        result = run_campaign(spec, workers=2, retries=1,
                              heartbeat=0.0, recorder_dir=str(tmp_path),
                              progress=lambda s: None)
        assert [r.status for r in result.records] == ["ok", "failed", "ok"]
        assert result.worker_deaths == 2  # first attempt and its retry
        failed = result.records[1]
        assert "worker died" in failed.error
        assert failed.recorder_path is not None
        assert failed.recorder_path.endswith(".partial.jsonl")
        import json
        with open(failed.recorder_path) as fp:
            lines = [json.loads(line) for line in fp]
        header, events = lines[0], lines[1:]
        assert header["partial"] is True
        assert "worker died" in header["reason"]
        assert header["last_handler"]
        assert events and events[-1]["handler"] == header["last_handler"]
        # telemetry sees the death but counts the run exactly once
        tel = result.telemetry
        assert "worker_deaths=2" in tel.report()
        assert sum(w["runs"] for w in tel.per_worker.values()) == 3
        assert sum(p["runs"] for p in tel.per_point.values()) == 3

    def test_study_worker_ships_beat_frames(self):
        """A surveyed study's run on a worker (``_execute`` with the pipe's
        send as ``beat_send``) ships a frame at each heartbeat, naming the
        handler it last fired."""
        frames = []
        spec = CampaignSpec("t0t1", base={"horizon": 5000.0}).expand()[0]
        rec = _execute(spec, 1, 0, heartbeat=0.0, beat_send=frames.append)
        assert rec.status == "ok"
        assert frames and len(frames) == rec.telemetry["heartbeats"]
        for kind, index, attempt, payload in frames:
            assert (kind, index, attempt) == ("beat", 0, 1)
            assert payload["last_handler"] and payload["events"] > 0

    def test_timed_out_study_dump_names_its_handler(self, tmp_path):
        """A surveyed study killed at its timeout dumps the firings it had
        made, not an empty ring.

        Whether the run outlasts its timeout, and fires before it, depends
        on the host's speed, so the horizon comes from a probe run of the
        same study timed in this process: the run would take three timeouts,
        and its first firing (its set-up grows with the horizon: a few per
        cent of the run) must come in the first half of one."""
        import json
        from types import SimpleNamespace

        class FirstFiring:
            """Stands in for the run's Observation: stamps its first firing."""
            telemetry = SimpleNamespace(snapshot=lambda sim: {})
            first = None

            def attach(self, sim, track):
                def hook(ev):
                    if self.first is None:
                        self.first = time.perf_counter()
                sim.pre_event_hooks.append(hook)

        run = SCENARIOS["t0t1"]
        run({"horizon": 1e3}, 0)   # imports the model
        probe, probe_horizon, timeout = FirstFiring(), 3e4, 1.0
        start = time.perf_counter()
        run({"horizon": probe_horizon}, 0, obs=probe)
        run_s = time.perf_counter() - start
        scale = math.ceil(3 * timeout / run_s)
        first_s = (probe.first - start) * scale
        assert first_s < timeout / 2, (
            f"set-up at {scale}x the probe's horizon: {first_s:.2f} s")
        spec = CampaignSpec("t0t1", base={"horizon": probe_horizon * scale})
        result = run_campaign(spec, workers=1, timeout=timeout, retries=0,
                              recorder_dir=str(tmp_path))
        rec = result.records[0]
        assert rec.status == "timeout" and rec.recorder_path
        with open(rec.recorder_path) as fp:
            header = json.loads(fp.readline())
        assert header["events"] > 0 and header["last_handler"]

    def test_stall_detector_flags_quiet_worker(self):
        @register_scenario("hang-quietly")
        def hang_quietly(sim, params):
            time.sleep(60)
            return {}

        messages = []
        spec = CampaignSpec("hang-quietly", replications=2, root_seed=0)
        # heartbeat=0.1 derives a 1.0 s stall threshold, inside the
        # 1.5 s timeout; a sleeping run sends no beats.
        result = run_specs(spec.expand(), workers=2, timeout=1.5, retries=0,
                           heartbeat=0.1, progress=messages.append)
        assert result.stalls == 2
        assert result.timeouts == 2
        stall_lines = [m for m in messages if "stalled" in m]
        assert len(stall_lines) == 2
        assert "no progress for" in stall_lines[0]

    @pytest.mark.parametrize("workers, heartbeat, with_dir, attached", [
        (1, 60.0, False, False), (2, None, False, False),
        (2, 60.0, False, True), (1, None, True, True), (2, None, True, True),
    ], ids=["serial", "pooled", "pooled-heartbeat", "serial-dir",
            "pooled-dir"])
    def test_ring_attached_only_where_read(self, tmp_path, workers,
                                           heartbeat, with_dir, attached):
        # only a beat frame (pooled, with heartbeat) or a dump (with
        # recorder_dir) reads the ring
        @register_scenario("recorder-probe")
        def recorder_probe(sim, params):
            return {"ring": float(sim._obs.ring_hook is not None)}

        spec = CampaignSpec("recorder-probe", replications=2, root_seed=0)
        result = run_campaign(
            spec, workers=workers, heartbeat=heartbeat,
            recorder_dir=str(tmp_path) if with_dir else None)
        assert [r.metrics["ring"] for r in result.records] == \
            [float(attached)] * 2

    def test_ring_leaves_metrics_bytes_alone(self, tmp_path):
        spec = tiny_mm1_spec(replications=3)
        plain = run_campaign(spec, workers=1)
        serial = run_campaign(spec, workers=1, recorder_dir=str(tmp_path))
        pooled = run_campaign(spec, workers=2, heartbeat=60.0,
                              recorder_dir=str(tmp_path))
        assert plain.n_ok == 3
        assert plain.metrics_bytes() == serial.metrics_bytes() \
            == pooled.metrics_bytes()

    def test_campaign_report_and_prom_cli(self, tmp_path, capsys):
        from repro.cli import main

        prom = tmp_path / "metrics.prom"
        assert main(["campaign", "--scenario", "mm1", "--grid", "rho=0.5",
                     "--set", "jobs=300", "--runs", "2", "--metrics", "W",
                     "--report", "--prom", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "campaign telemetry" in out
        assert "worker" in out and "slowest runs:" in out
        text = prom.read_text()
        assert "# TYPE repro_events_fired_total counter" in text
        assert "repro_handler_duration_ns_bucket" in text
