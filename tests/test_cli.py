import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from mlangevin import bench_ou
from mlangevin.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

FLAGSHIP = ["--model", "ou", "--d", "10", "--eps", "0.1", "--regime", "b2"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- tune


def test_tune_flagship_prints_the_plan_and_flags_infeasibility(capsys):
    code, out, _ = run_cli(["tune", *FLAGSHIP], capsys)
    assert code == EXIT_INFEASIBLE
    plan = json.loads(out)
    assert plan["R"] == 5
    assert plan["horizons"][0] == pytest.approx(1000.0, rel=1e-9)
    assert plan["gamma"] == [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625]
    assert plan["predicted_complexity"] == 7960
    assert plan["feasible"] is False


def test_tune_feasible_plan_exits_zero(capsys):
    code, out, _ = run_cli(
        ["tune", "--model", "ou", "--d", "10000", "--eps", "0.1"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["feasible"] is True


def test_tune_rejects_out_of_range_accuracy(capsys):
    code, _, err = run_cli(["tune", "--eps", "1.5"], capsys)
    assert code == EXIT_USAGE
    assert "eps" in err


def test_tune_aggressive_logistic_echoes_the_enlarged_step(capsys):
    code, out, _ = run_cli(
        ["tune", "--model", "logistic", "--lambda", "0.25", "--a", "2",
         "--d", "100", "--regime", "aggressive"], capsys)
    assert code == EXIT_INFEASIBLE
    plan = json.loads(out)
    assert plan["gamma"][0] == pytest.approx(20.25, rel=1e-12)
    assert plan["experimental"] is True
    assert plan["regime"] == "b2"


def test_tune_include_log2_keeps_the_log_factor(capsys):
    _, out, _ = run_cli(["tune", *FLAGSHIP, "--include-log2"], capsys)
    plan = json.loads(out)
    assert plan["horizons"][0] == pytest.approx(1000.0 * math.log(2.0),
                                                rel=1e-9)


# ----------------------------------------------------------------------- run


def test_run_refuses_an_infeasible_plan_without_force(capsys):
    code, out, err = run_cli(["run", *FLAGSHIP], capsys)
    assert code == EXIT_INFEASIBLE
    assert out == ""
    assert "--force" in err and "infeasible" in err


def test_run_table_reproduces_the_level_evolution(capsys):
    code, out, _ = run_cli(["run", *FLAGSHIP, "--table", "--force"], capsys)
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].split() == ["level", "iterations", "cumulative"]
    iterations = [int(line.split()[1]) for line in lines[1:]]
    assert iterations == [2000, 2121, 1500, 1060, 750, 529]
    cumulative = [float(line.split()[2]) for line in lines[1:]]
    assert cumulative == sorted(cumulative, reverse=True)
    assert 3.0 <= cumulative[-1] <= 3.2


def test_run_emits_estimator_json(capsys):
    code, out, _ = run_cli(["run", *FLAGSHIP, "--force"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["total_complexity"] == 7960
    assert len(payload["level_contributions"]) == 6
    assert any("clamped" in w for w in payload["warnings"])


def test_run_identity_observable_returns_a_vector(capsys):
    code, out, _ = run_cli(
        ["run", "--model", "logistic", "--d", "4", "--eps", "0.45",
         "--observable", "identity", "--force"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert isinstance(payload["estimate"], list)
    assert len(payload["estimate"]) == 4


def test_run_table_requires_a_scalar_observable(capsys):
    code, _, err = run_cli(
        ["run", "--model", "logistic", "--d", "4", "--eps", "0.45",
         "--observable", "identity", "--table", "--force"], capsys)
    assert code == EXIT_USAGE
    assert "scalar" in err


def test_run_is_byte_identical_across_invocations(capsys):
    argv = ["run", *FLAGSHIP, "--force", "--seed", "11"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_run_rejects_the_removed_threads_flag(capsys):
    code, out, err = run_cli(
        ["run", *FLAGSHIP, "--force", "--threads", "2"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--threads" in err


def test_run_seed_changes_the_estimate(capsys):
    _, a, _ = run_cli(["run", *FLAGSHIP, "--force", "--seed", "1"], capsys)
    _, b, _ = run_cli(["run", *FLAGSHIP, "--force", "--seed", "2"], capsys)
    assert json.loads(a)["estimate"] != json.loads(b)["estimate"]


def test_run_reads_the_start_point_from_a_json_file(tmp_path, capsys):
    point = tmp_path / "x.json"
    point.write_text(json.dumps([2.0] * 10))
    code, out, _ = run_cli(
        ["run", *FLAGSHIP, "--force", "--x-init", str(point)], capsys)
    assert code == EXIT_OK
    zeros = run_cli(["run", *FLAGSHIP, "--force"], capsys)[1]
    assert json.loads(out)["estimate"] != json.loads(zeros)["estimate"]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([2.0] * 3))
    code, _, err = run_cli(
        ["run", *FLAGSHIP, "--force", "--x-init", str(bad)], capsys)
    assert code == EXIT_USAGE
    assert "shape" in err


def test_run_warm_start_preprocess_runs_clean(capsys):
    code, out, _ = run_cli(
        ["run", "--model", "logistic", "--d", "4", "--eps", "0.45",
         "--force", "--warm-start", "--x-init", "ones"], capsys)
    assert code == EXIT_OK
    json.loads(out)


def test_run_numerical_failure_maps_to_exit_three(tmp_path, capsys):
    point = tmp_path / "far.json"
    point.write_text(json.dumps([1e308, 1e308]))
    code, _, err = run_cli(
        ["run", "--model", "ou", "--d", "2", "--eps", "0.45", "--force",
         "--x-init", str(point)], capsys)
    assert code == EXIT_NUMERICAL
    assert re.match(r"numerical failure: level 0: non-finite \w+( value)? "
                    r"at step \d+ \(run 0", err)
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------- bench


def test_bench_ou_report_matches_the_library(capsys):
    code, out, _ = run_cli(
        ["bench", "--suite", "ou", "--d", "2", "--eps", "0.45",
         "--runs", "3", "--seed", "5"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    direct = bench_ou(d=2, eps=0.45, n_runs=3, seed=5)
    assert payload["per_run_estimates"] == direct.per_run_estimates
    assert payload["rmse"] == direct.rmse
    assert payload["reference_source"] == "exact Gaussian-norm expectation"


def test_bench_rejects_nonpositive_run_counts(capsys):
    code, _, err = run_cli(
        ["bench", "--suite", "ou", "--runs", "0"], capsys)
    assert code == EXIT_USAGE
    assert "--runs" in err


def test_bench_logistic_aggressive_regime(capsys):
    code, out, _ = run_cli(
        ["bench", "--suite", "logistic", "--d", "100", "--eps", "0.45",
         "--runs", "1", "--regime", "aggressive"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["plan_echo"]["experimental"] is True
    assert payload["plan_echo"]["gamma"][0] == pytest.approx(20.25)


@pytest.mark.parametrize("suite, regime", [
    ("ou", "aggressive"), ("ou", "b1"), ("logistic", "b1")])
def test_bench_rejects_a_regime_its_suite_cannot_run(suite, regime, capsys):
    code, out, err = run_cli(
        ["bench", "--suite", suite, "--d", "4", "--eps", "0.45",
         "--runs", "1", "--regime", regime], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"not {regime!r}" in err
    assert len(err.strip().splitlines()) == 1


# ---------------------------------------------------------------------- probe


def test_probe_invariant_moment_oracle_and_empirical(capsys):
    code, out, _ = run_cli(
        ["probe", "--probe", "invariant-moment", "--gamma", "0.5",
         "--d", "2", "--horizon", "2000"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["oracle_moment"] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert payload["iterations"] == 4000
    assert payload["abs_error"] <= 0.15


def test_probe_contraction_is_exactly_geometric_for_ou(capsys):
    code, out, _ = run_cli(
        ["probe", "--probe", "contraction", "--d", "4", "--gamma", "0.5",
         "--n-steps", "12"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    distances = payload["distances"]
    assert len(distances) == 13
    assert distances[0] == 2.0
    assert distances[12] == pytest.approx(2.0 * 0.5 ** 12, rel=1e-10)


def test_probe_confluence_reports_both_gaps(capsys):
    code, out, _ = run_cli(
        ["probe", "--probe", "confluence", "--d", "2", "--gamma", "0.25",
         "--horizon", "10", "--paths", "300"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert set(payload["sup_gap_sq"]) == {"0.25", "0.125"}
    assert 1.0 <= payload["order_estimate"] <= 3.0


def test_probe_rejects_unknown_names(capsys):
    code, _, _ = run_cli(["probe", "--probe", "volatility"], capsys)
    assert code == EXIT_USAGE


# ------------------------------------------------------------ config & files


def test_config_file_fields_merge_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"model": "ou", "d": 2, "eps": 0.45, "lambda": 0.3}))
    _, from_file, _ = run_cli(["tune", "--config", str(cfg)], capsys)
    assert json.loads(from_file)["dim"] == 2
    _, overridden, _ = run_cli(
        ["tune", "--config", str(cfg), "--d", "4"], capsys)
    assert json.loads(overridden)["dim"] == 4


def test_config_file_errors(tmp_path, capsys):
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"stepsize": 0.5}))
    code, _, err = run_cli(["tune", "--config", str(unknown)], capsys)
    assert code == EXIT_USAGE
    assert "stepsize" in err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run_cli(["tune", "--config", str(broken)], capsys)[0] == EXIT_USAGE

    listy = tmp_path / "listy.json"
    listy.write_text(json.dumps([1, 2]))
    assert run_cli(["tune", "--config", str(listy)], capsys)[0] == EXIT_USAGE

    assert run_cli(["tune", "--config", str(tmp_path / "nope.json")],
                   capsys)[0] == EXIT_USAGE


def test_config_values_take_the_types_of_their_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": "10", "eps": "0.1", "seed": 3}))
    code, out, _ = run_cli(["tune", "--config", str(cfg)], capsys)
    assert code == EXIT_INFEASIBLE
    assert json.loads(out)["dim"] == 10
    for field, value in [("d", "ten"), ("d", 2.5), ("d", True), ("eps", [0.1]),
                         ("regime", "b3"), ("force", "yes"), ("seed", None),
                         ("x_init", 3)]:
        cfg.write_text(json.dumps({field: value}))
        code, out, err = run_cli(["tune", "--config", str(cfg)], capsys)
        assert code == EXIT_USAGE, (field, value)
        assert out == ""
        assert err.startswith(f"error: config field {field!r}")
        assert len(err.strip().splitlines()) == 1
    cfg.write_text(json.dumps({"gamma": None, "include_log2": True}))
    assert run_cli(["tune", "--config", str(cfg)], capsys)[0] \
        == EXIT_INFEASIBLE


def test_output_to_a_directory_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(["tune", *FLAGSHIP, "--output", str(tmp_path)],
                           capsys)
    assert code == EXIT_USAGE
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_output_files_json_and_csv(tmp_path, capsys):
    out_json = tmp_path / "plan.json"
    _, shown, _ = run_cli(
        ["tune", *FLAGSHIP, "--output", str(out_json)], capsys)
    assert out_json.read_text() == shown
    payload = json.loads(out_json.read_text())
    assert payload["R"] == 5

    out_csv = tmp_path / "plan.csv"
    run_cli(["tune", *FLAGSHIP, "--output", str(out_csv),
             "--format", "csv"], capsys)
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "level,gamma,horizon"
    assert len(lines) == 7

    bench_csv = tmp_path / "bench.csv"
    run_cli(["bench", "--suite", "ou", "--d", "2", "--eps", "0.45",
             "--runs", "2", "--output", str(bench_csv), "--format", "csv"],
            capsys)
    lines = bench_csv.read_text().strip().splitlines()
    assert lines[0] == "run,estimate,complexity,seconds"
    assert len(lines) == 3


def test_console_entry_point_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "mlangevin.cli", "tune", *FLAGSHIP],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_INFEASIBLE
    assert json.loads(proc.stdout)["R"] == 5


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == EXIT_USAGE
    assert "usage" in err
