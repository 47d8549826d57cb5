import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlangevin import (
    LogisticPerturbedPotential,
    NoiseStream,
    QuadraticPotential,
    bench,
    confluence_probe,
    logistic_covariate,
    make_langevin_model,
    plan_aggressive,
    plan_b2,
    warm_start,
)
from mlangevin.cli import (
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    _KINDS,
    _SETTINGS,
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
        ["bench", "--model", "ou", "--d", "2", "--eps", "0.45",
         "--runs", "3", "--seed", "5"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    model = make_langevin_model(QuadraticPotential(2), "auto")
    direct = bench(model, plan_b2(model, 0.45), np.zeros(2), 3, seed=5)
    assert payload["per_run_estimates"] == direct.per_run_estimates
    assert payload["rmse"] == direct.rmse
    assert payload["reference_source"] == "exact Gaussian-norm expectation"


def test_bench_reads_the_model_and_the_start_point(capsys):
    argv = ["bench", "--model", "logistic", "--d", "4", "--eps", "0.5",
            "--regime", "aggressive", "--runs", "2", "--x-init", "ones"]
    code, out, _ = run_cli([*argv, "--warm-start"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["model_label"] == "logistic(d=4, lam=0.25)"
    potential = LogisticPerturbedPotential(
        4, 0.25, logistic_covariate(4, 2.0, NoiseStream(7, 0)))
    model = make_langevin_model(potential, "auto")
    direct = bench(model, plan_aggressive(model, 0.5),
                   warm_start(potential, np.ones(4)).x0, 2)
    assert payload["per_run_estimates"] == \
        [list(e) for e in direct.per_run_estimates]
    cold = json.loads(run_cli(argv, capsys)[1])
    assert cold["per_run_estimates"] != payload["per_run_estimates"]


def test_bench_rejects_nonpositive_run_counts(capsys):
    code, _, err = run_cli(
        ["bench", "--model", "ou", "--runs", "0"], capsys)
    assert code == EXIT_USAGE
    assert "--runs" in err


def test_bench_logistic_aggressive_regime(capsys):
    code, out, _ = run_cli(
        ["bench", "--model", "logistic", "--warm-start", "--d", "100",
         "--eps", "0.45", "--runs", "1", "--regime", "aggressive"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["plan_echo"]["experimental"] is True
    assert payload["plan_echo"]["gamma"][0] == pytest.approx(20.25)


@pytest.mark.parametrize("model, regime, d, eps", [
    ("ou", "aggressive", "2", "0.5"), ("ou", "b1", "2", "0.5"),
    ("logistic", "b1", "1", "0.8")], ids=["ou-aggressive", "ou-b1",
                                          "logistic-b1"])
def test_bench_runs_the_plan_tune_prints(model, regime, d, eps, capsys):
    flags = ["--model", model, "--d", d, "--eps", eps, "--regime", regime]
    plan = json.loads(run_cli(["tune", *flags], capsys)[1])
    code, out, _ = run_cli(["bench", *flags, "--runs", "1"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["plan_echo"] == plan
    if (model, regime) == ("ou", "b1"):
        assert plan["predicted_complexity"] == 256


@pytest.mark.parametrize("argv", [
    ["tune", "--seed", "5"],
    ["probe", "--eps", "0.3"],
    ["probe", "--regime", "aggressive"],
    ["probe", "--include-log2"],
    ["tune", "--include-log2"],
    ["bench", "--suite", "ou"],
    ["bench", "--x0", "ones"],
], ids=lambda argv: argv[0] + argv[1])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("argv, flag", [
    (["probe", "--probe", "confluence", "--d", "2", "--horizon", "10",
      "--paths", "200", "--x-init", "ones", "--n-steps", "99"], "--n-steps"),
    (["probe", "--probe", "contraction", "--d", "2", "--paths", "7",
      "--horizon", "3"], "--horizon"),
    (["probe", "--probe", "invariant-moment", "--d", "2", "--x-init", "ones",
      "--paths", "7"], "--paths"),
    (["tune", "--model", "ou", "--d", "4", "--eps", "0.5", "--lambda", "3",
      "--a", "9", "--covariate-seed", "4"], "--lambda"),
    (["run", "--d", "2", "--eps", "0.5", "--covariate-seed", "4"],
     "--covariate-seed"),
    (["probe", "--probe", "invariant-moment", "--d", "2", "--seed", "9"],
     "--seed"),
], ids=["confluence", "contraction", "invariant-moment", "tune-ou", "run-ou",
        "invariant-moment-seed"])
def test_a_flag_the_probe_kind_or_model_does_not_read_is_a_usage_error(
        argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} ")


def test_config_fields_are_not_checked_against_the_probe_kind(tmp_path,
                                                              capsys):
    # one file can serve several commands: its n_steps and lambda fields
    # do not stop a confluence probe on the ou model
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 2, "n_steps": 5, "lambda": 0.3,
                               "horizon": 2.0, "paths": 100}))
    code, out, _ = run_cli(["probe", "--config", str(cfg), "--probe",
                            "confluence"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["probe"] == "confluence"


# ---------------------------------------------------------------------- probe


def test_probe_invariant_moment_reads_the_seed_with_a_horizon(capsys):
    argv = ["probe", "--probe", "invariant-moment", "--d", "2",
            "--horizon", "200"]
    code, seeded, _ = run_cli(argv + ["--seed", "9"], capsys)
    assert code == EXIT_OK
    _, default, _ = run_cli(argv, capsys)
    assert json.loads(seeded)["empirical_moment"] \
        != json.loads(default)["empirical_moment"]


def test_probe_invariant_moment_oracle_and_empirical(capsys):
    code, out, _ = run_cli(
        ["probe", "--probe", "invariant-moment", "--gamma", "0.5",
         "--d", "2", "--horizon", "2000"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["oracle_moment"] == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert payload["iterations"] == 4000
    assert payload["abs_error"] <= 0.15


def test_probe_invariant_moment_needs_the_ou_model(capsys):
    code, out, err = run_cli(
        ["probe", "--probe", "invariant-moment", "--model", "logistic",
         "--d", "2", "--gamma", "0.5", "--horizon", "2000"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1 and "--model ou" in err


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


def test_probe_confluence_starts_at_x_init(capsys):
    argv = ["probe", "--probe", "confluence", "--d", "2", "--horizon", "10",
            "--paths", "200"]
    code, origin, _ = run_cli(argv, capsys)
    assert code == EXIT_OK
    code, ones, _ = run_cli(argv + ["--x-init", "ones"], capsys)
    assert code == EXIT_OK
    assert ones != origin
    model = make_langevin_model(QuadraticPotential(2), "auto")
    res = confluence_probe(model, 0.25, 10.0, 200, x0=np.ones(2))
    assert json.loads(ones)["sup_gap_sq"] == {
        repr(g): v for g, v in res.sup_gap_sq.items()}


@pytest.mark.parametrize("argv", [
    ["--probe", "contraction", "--gamma", "-0.5"],
    ["--probe", "contraction", "--gamma", "0"],
    ["--probe", "confluence", "--gamma", "0"],
    ["--probe", "confluence", "--gamma", "0.25", "--horizon", "0.1"],
], ids=["contraction-negative", "contraction-zero", "confluence-zero",
        "confluence-short-horizon"])
def test_probe_step_and_horizon_errors_are_one_line(argv, capsys):
    code, out, err = run_cli(["probe", "--d", "2", *argv], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("\n") == 1
    assert "gamma" in err and "math domain" not in err


@pytest.mark.parametrize("content", ['{"x": 1}', '"ones"', "3",
                                     "[[0.0, 1.0]]", '[1, "a"]',
                                     "[true, false]"],
                         ids=["object", "string", "number", "nested",
                              "mixed", "booleans"])
def test_point_file_that_is_not_a_list_of_numbers_is_a_usage_error(
        content, tmp_path, capsys):
    point = tmp_path / "x.json"
    point.write_text(content)
    code, out, err = run_cli(["probe", "--probe", "contraction", "--d", "2",
                              "--x-init", str(point)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (f"error: point file {str(point)!r} must hold a JSON list "
                   f"of numbers\n")


def test_point_file_that_is_not_json_is_named_in_the_error(tmp_path,
                                                          capsys):
    point = tmp_path / "x.json"
    point.write_text("[1.0, 2.0")
    code, out, err = run_cli(["run", *FLAGSHIP, "--force", "--x-init",
                              str(point)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: point file {str(point)!r} is not valid "
                          f"JSON: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("kind", ["confluence", "contraction"])
def test_probe_nonfinite_start_point_is_a_usage_error(kind, tmp_path, capsys):
    point = tmp_path / "nan.json"
    point.write_text("[NaN, 0.0]")
    code, out, err = run_cli(["probe", "--probe", kind, "--d", "2",
                              "--x-init", str(point)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: the start point must be finite\n"


@pytest.mark.parametrize("argv, expected", [
    (["probe", "--probe", "confluence", "--d", "2", "--horizon", "inf",
      "--paths", "200"], "t must be finite and nonnegative, got inf"),
    (["probe", "--probe", "confluence", "--d", "2", "--horizon", "nan",
      "--paths", "200"], "t must be finite and nonnegative, got nan"),
    (["probe", "--probe", "invariant-moment", "--horizon", "inf"],
     "t must be finite and nonnegative, got inf"),
    (["tune", "--d", "2", "--eps", "1e-300"], "eps=1e-300 is too small"),
    (["run", "--d", "2", "--eps", "1e-300"], "eps=1e-300 is too small"),
    (["tune", "--model", "logistic", "--lambda", "inf"],
     "lam must be finite and positive, got inf"),
    (["tune", "--model", "logistic", "--lambda", "nan"],
     "lam must be finite and positive, got nan"),
    (["tune", "--model", "logistic", "--a", "inf"],
     "a must be finite and positive, got inf"),
    (["probe", "--probe", "invariant-moment", "--gamma", "1e-320",
      "--horizon", "10"], "t/gamma must be finite"),
    (["probe", "--probe", "confluence", "--d", "2", "--gamma", "1e-320",
      "--horizon", "1", "--paths", "100"], "t/gamma must be finite"),
], ids=["confluence-horizon-inf", "confluence-horizon-nan",
        "invariant-moment-horizon-inf", "tune-tiny-eps", "run-tiny-eps",
        "lambda-inf", "lambda-nan", "a-inf",
        "invariant-moment-subnormal-gamma", "confluence-subnormal-gamma"])
def test_nonfinite_inputs_are_one_line_errors(argv, expected, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


@pytest.mark.parametrize("case", ["config-d", "point-file", "run-d"])
def test_oversized_inputs_are_one_line_errors(case, tmp_path, capsys):
    # 10**400 overflows a float; d = 10**15 asks for 8 PB at once
    huge = str(10 ** 400)
    if case == "config-d":
        cfg = tmp_path / "c.json"
        cfg.write_text('{"d": %s}' % huge)
        argv = ["tune", "--config", str(cfg)]
    elif case == "point-file":
        point = tmp_path / "p.json"
        point.write_text("[%s, 0, 0]" % huge)
        argv = ["run", "--d", "3", "--force", "--x-init", str(point)]
    else:
        argv = ["run", "--d", str(10 ** 15)]
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: too large to compute or hold: ")
    assert err.count("\n") == 1


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

    # the file is named, as for point files
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run_cli(["tune", "--config", str(broken)], capsys)
    assert code == EXIT_USAGE
    assert err.startswith(f"error: config file {str(broken)!r} is not valid "
                          "JSON: ")
    assert err.count("\n") == 1

    listy = tmp_path / "listy.json"
    listy.write_text(json.dumps([1, 2]))
    code, _, err = run_cli(["tune", "--config", str(listy)], capsys)
    assert code == EXIT_USAGE
    assert err == (f"error: config file {str(listy)!r} must hold a JSON "
                   "object\n")

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
    cfg.write_text(json.dumps({"gamma": None, "warm_start": True}))
    assert run_cli(["tune", "--config", str(cfg)], capsys)[0] \
        == EXIT_INFEASIBLE


def test_config_fields_are_named_as_their_flags(tmp_path, capsys):
    # a field is its flag's name with "_" for "-"; "lam" is no alias of
    # "lambda", and a later key does not silently replace an earlier one
    cfg = tmp_path / "cfg.json"
    for fields in ({"lam": 0.3}, {"lambda": 0.3, "lam": 0.9}):
        cfg.write_text(json.dumps({"model": "logistic", "d": 2, **fields}))
        code, out, err = run_cli(["tune", "--config", str(cfg)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: unknown config field 'lam'\n"
    cfg.write_text(json.dumps({"model": "logistic", "d": 2, "eps": 0.5,
                               "covariate_seed": 3, "lambda": 0.9}))
    _, from_file, _ = run_cli(["tune", "--config", str(cfg)], capsys)
    _, from_flags, _ = run_cli(
        ["tune", "--model", "logistic", "--d", "2", "--eps", "0.5",
         "--covariate-seed", "3", "--lambda", "0.9"], capsys)
    assert from_file == from_flags


@pytest.mark.parametrize("field, kind, flags", [
    ("paths", "confluence", ["--horizon", "2", "--paths", "2000"]),
    ("n_steps", "contraction", ["--n-steps", "12"]),
], ids=["paths", "n_steps"])
def test_a_null_config_field_keeps_the_probe_kind_default(field, kind, flags,
                                                          tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 2, "horizon": 2.0, field: None}))
    code, from_file, _ = run_cli(
        ["probe", "--config", str(cfg), "--probe", kind], capsys)
    assert code == EXIT_OK
    _, explicit, _ = run_cli(["probe", "--probe", kind, "--d", "2", *flags],
                             capsys)
    assert from_file == explicit


def test_output_to_a_directory_is_a_usage_error(tmp_path, capsys):
    # checked before any work: nothing reaches stdout
    for argv in (["tune", *FLAGSHIP], ["run", *FLAGSHIP, "--force"],
                 ["bench", *FLAGSHIP, "--runs", "2"]):
        code, out, err = run_cli([*argv, "--output", str(tmp_path)], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1


def test_output_is_neither_created_nor_truncated_by_a_failed_command(
        tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    assert run_cli(["run", *FLAGSHIP, "--output", str(fresh)],
                   capsys)[0] == EXIT_INFEASIBLE
    assert not fresh.exists()
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    assert run_cli(["bench", "--runs", "0", "--output", str(kept)],
                   capsys)[0] == EXIT_USAGE
    assert kept.read_text() == "old\n"
    missing = tmp_path / "no" / "plan.json"
    code, out, err = run_cli(["tune", *FLAGSHIP, "--output", str(missing)],
                             capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert str(missing) in err


def test_format_csv_switches_stdout(capsys):
    _, out, _ = run_cli(["tune", "--d", "2", "--eps", "0.5", "--format",
                         "csv"], capsys)
    lines = out.splitlines()
    assert lines[0] == "level,gamma,horizon"
    assert len(lines) == 4


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

    run_csv = tmp_path / "run.csv"
    run_cli(["run", *FLAGSHIP, "--force", "--output", str(run_csv),
             "--format", "csv"], capsys)
    lines = run_csv.read_text().strip().splitlines()
    assert lines[0] == "level,gamma,T,contribution,iterations"
    assert len(lines) == 7

    bench_csv = tmp_path / "bench.csv"
    run_cli(["bench", "--model", "ou", "--d", "2", "--eps", "0.45",
             "--runs", "2", "--output", str(bench_csv), "--format", "csv"],
            capsys)
    lines = bench_csv.read_text().strip().splitlines()
    assert lines[0] == "run,estimate,complexity"
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


# ----------------------------------------------------------- README examples


def _readme_section(title):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```", 2)[1]


def test_readme_command_line_examples_run(capsys):
    block = _readme_section("Command line")
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines()
                if line.startswith("mlangevin ")]
    assert len(commands) == 4
    for argv in commands:
        # the flagship plan's burn-in does not fit its last level
        expected = EXIT_INFEASIBLE if argv[1] == "tune" else EXIT_OK
        assert main(argv[1:]) == expected, argv
    capsys.readouterr()


def test_readme_flag_tables_match_the_settings():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `([\w-]+)` +\| (.+?) \|$", section, re.M))
    common = re.search(r"Every subcommand takes (.+?)\. On top", section,
                       re.S).group(1)

    def flags(text):
        return set(re.findall(r"`(--[\w-]+)", text))

    def shown(v):
        return "none" if v is None else f"{v:g}" if isinstance(v, float) \
            else str(v)

    kinds = _SETTINGS["probe"][0]["choices"]
    for command in ("tune", "run", "bench", "probe"):
        documented = flags(common) | flags(rows[command])
        if "the `tune` flags" in rows[command]:
            documented |= flags(rows["tune"])
        if command == "probe":
            documented |= set().union(*(flags(rows[k]) for k in kinds))
        assert documented == {"--config"} | {
            "--" + name.replace("_", "-")
            for name, (_, _, commands) in _SETTINGS.items()
            if command in commands}, command
    for kind in kinds:
        defaults = dict(re.findall(r"`(--[\w-]+)`[^(`]*\(`?([^,:)`]+)",
                                   rows[kind]))
        assert defaults == {"--" + name.replace("_", "-"): shown(v)
                            for name, v in _KINDS[kind].items()}, kind


def test_readme_quickstart_runs(capsys):
    snippet = _readme_section("Quickstart")
    assert snippet.startswith("python\n")
    exec(snippet[len("python\n"):], {})
    _, complexity = capsys.readouterr().out.split()
    assert int(complexity) == 7960
