"""Tests of the benchmark's own counters, checks and tracing.

Run with ``python -m pytest benchmark -q`` from the repository root.  The
workloads here are small versions of the pinned ones, so the suite takes a
few seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads as wl

TINY_LOGISTIC = wl.EstimatorWorkload(
    "tiny-logistic", "logistic", d=3, eps=0.5, plan="b2", n_runs=4,
    rmse_bound=0.5)
TINY_OU = wl.EstimatorWorkload(
    "tiny-ou", "quadratic", d=2, eps=0.3, plan="b2", n_runs=3, rmse_bound=0.3)
TINY_PROBES = wl.ProbeWorkload(
    "tiny-probes", contraction_steps=2000, confluence_horizon=20.0,
    confluence_paths=200)

COUNTS = ("model.drift_calls", "model.drift_rows_per_call", "sde.noise_calls",
          "sde.noise_normals", "estimator.grad_evals", "warmstart.iters",
          "tuning.R", "tuning.predicted_complexity",
          *(f"sde.level{r}_steps" for r in range(tracing.MAX_LEVELS)))


def traced(workload, seed=0, tracer=None):
    """One traced measurement; an already installed ``tracer`` is reused."""
    installed = tracer is not None
    tracer = tracer or tracing.Tracer()
    if not installed:
        tracer.install()
    try:
        state = workload.setup(seed, tracer.span)
        outcome, outputs = workload.measure(state, tracer.span)
    finally:
        tracer.restore()
    values, absent = tracing.layer_metrics(
        tracer, workload, state, outputs, outcome.wall_s, outcome.wall_s, {})
    return values, absent, outcome, state


@pytest.mark.parametrize("workload", [TINY_LOGISTIC, TINY_OU, TINY_PROBES],
                         ids=lambda w: w.name)
def test_counts_repeat_exactly(workload):
    first, _, out1, _ = traced(workload, seed=3)
    second, _, out2, _ = traced(workload, seed=3)
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    assert out1.failed == out2.failed == 0


@pytest.mark.parametrize("workload", [TINY_LOGISTIC, TINY_OU],
                         ids=lambda w: w.name)
def test_grad_evals_match_plan(workload):
    values, absent, _, state = traced(workload)
    assert not absent
    plan = state.plan
    assert values["tuning.R"] == plan.R
    assert values["estimator.grad_evals"] == (
        workload.n_runs * plan.predicted_complexity)
    assert values["estimator.grad_evals"] == sum(
        values[f"sde.level{r}_steps"] for r in range(tracing.MAX_LEVELS))
    assert all(values[f"sde.level{r}_steps"] > 0 for r in range(plan.R + 1))
    # every drift call sees all batch rows
    assert values["model.drift_rows_per_call"] == workload.n_runs


def test_probe_grad_evals_match_drift_rows():
    values, _, outcome, _ = traced(TINY_PROBES)
    rows = values["model.drift_rows_per_call"] * values["model.drift_calls"]
    assert outcome.grad_evals == round(rows)


def test_tracer_restores_originals():
    import mlangevin.estimator as est
    import mlangevin.model as model
    before = (est._run_coupled_batch, vars(model.LangevinModel)["drift"])
    with tracing.Tracer() as tracer:
        assert est._run_coupled_batch is not before[0]
    assert not tracer.missing
    after = (est._run_coupled_batch, vars(model.LangevinModel)["drift"])
    assert after == before


@pytest.mark.parametrize("module, attr, metric", [
    ("mlangevin.estimator", "_run_coupled_batch", "sde.level1_steps"),
    ("mlangevin.estimator", "_run_level0_batch", "sde.loop_self_s"),
    ("mlangevin.model", "LangevinModel.drift", "model.drift_calls"),
])
def test_missing_target_reported_absent(monkeypatch, module, attr, metric):
    import importlib
    owner = importlib.import_module(module)
    *parents, name = attr.split(".")
    for part in parents:
        owner = getattr(owner, part)
    tracer = tracing.Tracer()
    monkeypatch.delattr(owner, name)
    tracer.install()  # the target is gone while the wrappers go in
    monkeypatch.undo()  # ... and back, unwrapped, for the run itself
    values, absent, outcome, _ = traced(TINY_OU, tracer=tracer)
    assert values[metric] is None
    assert attr in absent[metric]
    assert outcome.failed == 0
    assert values["tuning.R"] > 0


def test_check_runs_counts_every_failed_run():
    state = TINY_OU.setup(0)
    outcome, outputs = TINY_OU.measure(state)
    assert outcome.failed == 0 and outcome.attempted == TINY_OU.n_runs
    plan = state.plan
    # a reference far off fails the batch, hence every run
    failures = wl.check_runs(outputs, plan, state.reference + 1.0, 2, 0.3,
                             relative=False)
    assert {run for run, _ in failures} == set(range(TINY_OU.n_runs))
    # a broken sum or iteration count fails only that run
    outputs[1].estimate = outputs[1].estimate + 1e-12
    outputs[2].level_iterations = outputs[2].level_iterations[:-1]
    failures = wl.check_runs(outputs, plan, state.reference, 2, 1.0,
                             relative=False)
    assert {run for run, _ in failures} == {1, 2}


def test_relative_rmse_bound_scales_with_reference():
    state = TINY_LOGISTIC.setup(0)
    _, outputs = TINY_LOGISTIC.measure(state)
    ref = np.asarray(state.reference)
    assert not wl.check_runs(outputs, state.plan, ref, 3, 10.0, relative=True)
    assert wl.check_runs(outputs, state.plan, ref, 3, 1e-6, relative=True)


def test_contraction_check_allows_rounding_only():
    probe = wl.ProbeWorkload("p")
    steps = np.arange(probe.contraction_steps + 1)
    exact = 1.5 * (1.0 - probe.contraction_gamma) ** steps
    assert probe.check_contraction(list(exact), 1.5) is None
    # a 1e-9 relative error at the last step is below rounding there, as
    # seen on correct code; a tolerance linear in the steps rejects it
    late = exact.copy()
    late[-1] *= 1 + 1e-9
    assert probe.check_contraction(list(late), 1.5) is None
    # a rate off by one part in a million is not rounding
    off = 1.5 * (1.0 - probe.contraction_gamma * (1 + 1e-6)) ** steps
    assert "step" in probe.check_contraction(list(off), 1.5)
    early = exact.copy()
    early[10] *= 1 + 1e-12
    assert "step 10 " in probe.check_contraction(list(early), 1.5)
    assert probe.check_contraction(list(exact[:-1]), 1.5) is not None


def test_timed_path_keeps_serial_level_schedule(monkeypatch):
    monkeypatch.setenv("MLANGEVIN_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "999")
    run.cap_threads()
    assert "MLANGEVIN_THREADS" not in os.environ
    assert int(os.environ["OMP_NUM_THREADS"]) == run.nproc()
    seen = []
    original = wl.ml.estimate_repeated

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(wl.ml, "estimate_repeated", spy)
    TINY_OU.measure(TINY_OU.setup(0))
    assert seen == [{}]


def test_pinned_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(
        tracing.LAYER_METRICS)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.LAYER_METRICS[m["name"]]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS


def test_fails_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / run.HERE.name
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, str(Path(bench, "run.py")), "--workload", "probes",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
