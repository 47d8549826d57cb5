"""The benchmark's traced run gives a complete, finite metric set.

The traced run looks its wrapper targets up by name (``tracing.TARGETS``); a
target that the package no longer has turns its metrics into ``null``, and
the run's last line is then no longer a record of numbers.  This test runs
the tracer on small versions of the pinned workloads, so a refactor that
drops or renames a target fails here rather than in the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = [
    wl.EstimatorWorkload("small-logistic", "logistic", d=3, eps=0.5,
                         plan="b2", n_runs=4, rmse_bound=0.5),
    wl.EstimatorWorkload("small-ou", "quadratic", d=2, eps=0.3, plan="b2",
                         n_runs=3, rmse_bound=0.3),
    wl.ProbeWorkload("small-probes", contraction_steps=2000,
                     confluence_horizon=20.0, confluence_paths=200),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_traced_metrics_are_complete_finite_json(workload):
    tracer = tracing.Tracer()
    with tracer:
        state = workload.setup(0, tracer.span)
        outcome, outputs = workload.measure(state, tracer.span)
    micro = tracing.microbenchmarks(workload, state)
    values, absent = tracing.layer_metrics(
        tracer, workload, state, outputs, outcome.wall_s, outcome.wall_s,
        micro)
    assert tracer.missing == {}
    assert absent == {}
    assert set(values) == set(tracing.LAYER_METRICS)
    assert [k for k, v in values.items() if v is None] == []
    json.dumps(values, allow_nan=False)
    assert outcome.failed == 0


@pytest.mark.parametrize(
    "workload", [w for w in SMALL if isinstance(w, wl.EstimatorWorkload)],
    ids=lambda w: w.name)
def test_traced_level_metrics_are_live(workload):
    # each level runs through its own wrapped runner, so the per-level
    # steps add up to the estimate's cost and no level reads 0
    tracer = tracing.Tracer()
    with tracer:
        state = workload.setup(0, tracer.span)
        outcome, outputs = workload.measure(state, tracer.span)
    values, _ = tracing.layer_metrics(
        tracer, workload, state, outputs, outcome.wall_s, outcome.wall_s, {})
    levels = range(state.plan.R + 1)
    assert state.plan.R >= 1
    assert sum(values[f"sde.level{r}_steps"] for r in levels) \
        == values["estimator.grad_evals"]
    assert all(values[f"sde.level{r}_steps"] > 0 for r in levels)
    assert all(values[f"sde.level{r}_s"] > 0 for r in levels)
