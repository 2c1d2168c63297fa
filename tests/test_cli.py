"""Tests for the command-line interface."""

import pytest

from repro.campaign import register_scenario
from repro.cli import main

#: params of every run of the "counted" scenario, in order
COUNTED = []


@register_scenario("counted", defaults={"n": 1})
def counted(sim, params):
    COUNTED.append(params["n"])
    return {"n": params["n"]}


class TestTable1:
    def test_ascii_default(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Bricks" in out and "MONARC 2" in out
        assert "repro" not in out.split("\n")[0]

    def test_markdown(self, capsys):
        assert main(["table1", "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("| Axis |")

    def test_csv_parses(self, capsys):
        import csv
        import io

        assert main(["table1", "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][0] == "Axis" and len(rows) == 18

    def test_include_repro_adds_column(self, capsys):
        assert main(["table1", "--include-repro"]) == 0
        assert "repro" in capsys.readouterr().out


class TestSurveyAndCoverage:
    def test_survey_has_provenance(self, capsys):
        assert main(["survey"]) == 0
        out = capsys.readouterr().out
        assert "Provenance notes" in out

    def test_coverage_lists_missing_cells(self, capsys):
        assert main(["coverage"]) == 0
        out = capsys.readouterr().out
        assert "joint coverage" in out
        assert "missing" in out  # the six leave cells unexplored


class TestDiff:
    def test_known_pair(self, capsys):
        assert main(["diff", "SimGrid", "GridSim"]) == 0
        out = capsys.readouterr().out
        assert "similarity" in out and "components" in out

    def test_unknown_simulator_fails(self, capsys):
        assert main(["diff", "SimGrid", "ns-3"]) == 2
        assert "error" in capsys.readouterr().err


class TestValidate:
    def test_moderate_load_passes(self, capsys):
        assert main(["validate", "--rho", "0.5", "--jobs", "4000"]) == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out

    def test_bad_rho_rejected(self, capsys):
        assert main(["validate", "--rho", "1.5"]) == 2

    def test_jobs_within_warmup_rejected(self, capsys):
        assert main(["validate", "--jobs", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jobs must exceed" in err

    def test_trace_and_profile_emit_obs_artifacts(self, capsys, tmp_path):
        import json

        trace = tmp_path / "mm1.json"
        assert main(["validate", "--rho", "0.5", "--jobs", "4000",
                     "--trace", str(trace), "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Handler hot spots" in out and "| handler |" in out
        assert "telemetry:" in out
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]
        assert any(e["ph"] == "X" for e in payload["traceEvents"])
        assert any(e["ph"] == "s" for e in payload["traceEvents"])


class TestProfile:
    def test_mm1_prints_hot_spots(self, capsys):
        assert main(["profile", "--jobs", "4000"]) == 0
        out = capsys.readouterr().out
        assert "profiled M/M/1" in out and "| handler |" in out

    def test_hold_model_with_trace_and_csv(self, capsys, tmp_path):
        import json

        trace, csv = tmp_path / "hold.json", tmp_path / "hold.csv"
        assert main(["profile", "--model", "hold", "--jobs", "200",
                     "--horizon", "5.0", "--queue", "calendar",
                     "--trace", str(trace), "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "profiled hold model" in out and "calendar" in out
        assert json.loads(trace.read_text())["traceEvents"]
        text = csv.read_text()
        assert "metric,value" in text and "handler,firings" in text

    def test_bad_rho_rejected(self):
        assert main(["profile", "--rho", "0"]) == 2

    def test_jobs_within_warmup_rejected(self, capsys):
        assert main(["profile", "--jobs", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--jobs must exceed" in err

    def test_unknown_queue_is_one_error_line(self, capsys):
        from repro.core import QUEUE_FACTORIES

        assert main(["profile", "--model", "hold", "--jobs", "10",
                     "--queue", "bogus"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --queue must be one of")
        assert all(kind in captured.err for kind in QUEUE_FACTORIES)
        assert "profiled" not in captured.out


class TestClassify:
    def test_lists_engines(self, capsys):
        assert main(["classify"]) == 0
        out = capsys.readouterr().out
        assert "event-driven + heap" in out
        assert "time-driven" in out


class TestExecutors:
    def test_all_executors_cross_checked(self, capsys):
        assert main(["executors", "--sites", "3", "--jobs", "25",
                     "--until", "60", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "optimistic" in out and "cmb" in out
        assert "committed streams identical across all 4 executors" in out

    def test_single_executor_with_knobs(self, capsys):
        assert main(["executors", "--executor", "optimistic",
                     "--sites", "3", "--jobs", "25", "--until", "60",
                     "--batch", "16", "--checkpoint-every", "4",
                     "--throttle", "10"]) == 0
        out = capsys.readouterr().out
        assert "optimistic" in out and "sequential" not in out

    @pytest.mark.parametrize("sites", ["0", "-3"])
    def test_no_sites_is_one_error_line(self, sites, capsys):
        """A ring of no LPs is an error, not four identical empty runs."""
        assert main(["executors", "--sites", sites]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: the ring needs k >= 1 sites")
        assert "identical" not in captured.out

    def test_ring_rejects_forward_every_below_one(self):
        from repro.core import ConfigurationError
        from repro.workloads.partitioned import build_partitioned_ring

        with pytest.raises(ConfigurationError, match="forward_every"):
            build_partitioned_ring(k=2, forward_every=0)


class TestFlows:
    def test_single_engine(self, capsys):
        assert main(["flows", "--pairs", "4", "--transfers", "2",
                     "--backbone", "2"]) == 0
        rows = dict(line.split() for line in
                    capsys.readouterr().out.splitlines()[1:])
        assert rows["flows"] == "10"
        # every sharing counter of the one engine, and no second engine's row
        assert {"recomputes", "coalesced", "flows_touched", "rescheduled",
                "preserved"} < set(rows) and len(rows) == 8


class TestCampaignErrors:
    @pytest.mark.parametrize("point", [["--set", "rho=1.5"],
                                       ["--scenario", "mmc", "--set", "c=0"],
                                       ["--set", "rho=1.5", "--metrics", "no"]])
    def test_point_outside_its_theory_lists_failed_runs(self, point, capsys):
        """A point its analytic model rejects gets no verdict: the failed
        runs are listed, naming the rejected values, and the command exits
        1, without a traceback."""
        assert main(["campaign", *point, "--set", "jobs=3000",
                     "--runs", "1"]) == 1
        captured = capsys.readouterr()
        assert "point 0:" in captured.out and "theory" not in captured.out
        assert "FAILED run 0" in captured.err
        assert "Traceback" not in captured.err
        for flag, value in zip(point, point[1:]):
            if flag == "--set":
                assert value in captured.err

    EVOLVE = ["campaign", "--scenario", "quadratic", "--evolve", "--space"]

    @pytest.mark.parametrize("argv, says", [
        (EVOLVE + ["foo"], "'foo' is not NAME=VALUE"),
        (EVOLVE + ["x=5:1"], "lo < hi"),
        (EVOLVE + ["x=0:6", "--population", "1"], "population >= 3"),
        (EVOLVE + ["x=0:6", "--population", "2"], "population >= 3"),
        (["campaign", "--runs", "0"], "replications"),
        (["campaign", "--set", "jobs=3000", "--runs", "2", "--level", "1.5"],
         "level"),
        (["validate", "--runs", "2", "--jobs", "3000", "--level", "1.5"],
         "level"),
        (["campaign", "--grid", "foo"], "'foo' is not NAME=VALUE"),
        (["campaign", "--scenario", "quadratic", "--metrics", "nope",
          "--runs", "2"], "metric(s) nope; the runs reported x, y"),
        (["validate", "--jobs", "3000", "--heartbeat", "-1"],
         "heartbeat must be >= 0"),
    ])
    def test_bad_input_is_one_error_line(self, argv, says, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert says in err


    @pytest.mark.parametrize("argv, says", [
        (["--set", "n=2.5"], "scenario 'counted': param n must be int, "
                             "got 2.5"),
        (["--set", "n=abc"], "param n must be int, got 'abc'"),
        (["--grid", "n=3,"], "param n must be int, got ''"),
        (["--set", "n=2", "--level", "1.5"], "level"),
        (["--set", "nn=2", "--set", "n=2"],
         "scenario 'counted' has no param nn; it declares n"),
        # a later --scenario overrides the probe
        (["--scenario", "mm1", "--set", "jobs=2000", "--set", "warmup=abc"],
         "param warmup must be a job count >= 0 or 'mser5', got 'abc'"),
        (["--scenario", "mm1", "--set", "jobs=2000", "--set", "warmup=2.5"],
         "param warmup must be a job count >= 0 or 'mser5', got 2.5"),
        (["--scenario", "simgrid", "--set", "churn=maybe"],
         "param churn must be bool, got 'maybe'"),
        (["--scenario", "quadratic", "--set", "x=true"],
         "param x must be float, got 'true'"),
        (["--heartbeat", "-1"], "heartbeat must be >= 0, got -1.0"),
    ])
    def test_rejected_before_any_run(self, argv, says, capsys):
        """A param its declared default's type cannot hold unchanged (a
        warmup neither a job count nor mser5, a bool neither true nor
        false), a param it does not declare, or a bad --level, is one
        error line before the first run."""
        COUNTED.clear()
        assert main(["campaign", "--scenario", "counted", *argv,
                     "--runs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert says in err
        assert COUNTED == []

    def test_unknown_scenario_rejected_before_any_run(self, capsys):
        assert main(["campaign", "--scenario", "nope", "--runs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: unknown scenario 'nope'")
        assert "'counted'" in captured.err and "'mm1'" in captured.err
        assert "point 0" not in captured.out

    def test_bool_param_set_by_name(self, capsys):
        """A bool param takes true or false in any case, as it takes 1
        or 0."""
        def makespan(word):
            assert main(["campaign", "--scenario", "simgrid", "--set",
                         f"churn={word}", "--runs", "1"]) == 0
            return capsys.readouterr().out.split("makespan")[1]

        assert makespan("True") == makespan("TRUE") == makespan("1") \
            != makespan("false") == makespan("FALSE") == makespan("0")

    def test_whole_float_reads_as_int(self, capsys):
        COUNTED.clear()
        assert main(["campaign", "--scenario", "counted", "--set", "n=2.0",
                     "--runs", "1"]) == 0
        assert COUNTED == [2] and type(COUNTED[0]) is int

    def test_one_replication_prints_no_theory(self, capsys):
        assert main(["campaign", "--scenario", "mm1", "--set", "jobs=2500",
                     "--runs", "1", "--metrics", "W"]) == 0
        out = capsys.readouterr().out
        assert "n=1" in out and "theory" not in out


def test_module_entrypoint_runs():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "table1", "--format", "csv"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith('"Axis"')


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])
