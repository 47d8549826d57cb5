import dataclasses
import json
import math
import re

import numpy as np
import pytest

from mlangevin import (
    EstimatorOutput,
    NoiseStream,
    NumericalFailureError,
    QuadraticPotential,
    TuningPlan,
    estimate,
    estimate_repeated,
    identity_observable,
    make_langevin_model,
    norm_observable,
    plan_b2,
    run_coupled_level,
    run_level0,
)
from mlangevin.estimator import _estimate_batch

OU3 = make_langevin_model(QuadraticPotential(3), "auto")


def small_plan(R=2, gamma0=0.5, t0=40.0, tau=2.0):
    return TuningPlan(regime="b2", gamma0=gamma0,
                      horizons=[t0 * 2.0 ** -r for r in range(R + 1)],
                      tau=tau, r0=1.0, big_t=t0, dim=3)


X0 = np.zeros(3)


# ------------------------------------------------------------- observables


def test_builtin_observables():
    x = np.array([3.0, 4.0, 12.0])
    norm = norm_observable()
    assert norm(x) == pytest.approx(13.0, rel=1e-15)
    np.testing.assert_array_equal(norm(np.stack([x, 2 * x])), [13.0, 26.0])
    ident = identity_observable()
    out = ident(x)
    np.testing.assert_array_equal(out, x)
    out[0] = -1.0
    assert x[0] == 3.0


@pytest.mark.parametrize("f, shape", [
    (lambda x: x[0], "(3,)"),  # a pointwise form, read on the (N, d) batch
    (lambda x: 1.0, "()"),
    (lambda x: x[..., None] * np.ones(2), "(9, 3, 2)"),
], ids=["pointwise", "constant-scalar", "matrix"])
def test_observable_of_the_wrong_shape_is_a_value_error(f, shape):
    with pytest.raises(ValueError, match=re.escape(f"returned shape {shape}")):
        run_level0(OU3, X0, 0.5, 0.0, 5.0, f, NoiseStream(0, 0))


# ------------------------------------------------------- single-run output


def test_estimate_is_the_exact_sum_of_level_contributions():
    out = estimate(OU3, small_plan(), X0, norm_observable(), master_seed=11)
    assert len(out.level_contributions) == 3
    total = out.level_contributions[0]
    for c in out.level_contributions[1:]:
        total = total + c
    assert out.estimate == total


def test_estimate_vector_additivity_componentwise():
    out = estimate(OU3, small_plan(), X0, identity_observable(), master_seed=11)
    assert isinstance(out.estimate, np.ndarray)
    assert out.estimate.shape == (3,)
    total = out.level_contributions[0]
    for c in out.level_contributions[1:]:
        total = total + c
    np.testing.assert_array_equal(out.estimate, total)


def test_iteration_accounting_matches_the_plan():
    plan = small_plan()
    out = estimate(OU3, plan, X0, norm_observable(), master_seed=11)
    assert out.total_complexity == sum(out.level_iterations)
    assert out.total_complexity == plan.predicted_complexity
    continuous = plan.horizons[0] / plan.gamma[0] + sum(
        plan.horizons[r] * (1.0 / plan.gamma[r] + 1.0 / plan.gamma[r - 1])
        for r in range(1, plan.R + 1))
    assert abs(out.total_complexity - continuous) / continuous <= 0.005


def test_single_level_plan_reduces_to_plain_occupation_average():
    plan = small_plan(R=0)
    out = estimate(OU3, plan, X0, norm_observable(), master_seed=5)
    avg, iters = run_level0(OU3, X0, plan.gamma[0], plan.tau,
                            plan.horizons[0], norm_observable(),
                            NoiseStream(5, 0, run_index=0))
    assert out.estimate == avg
    assert out.level_iterations == [iters]
    assert out.level_contributions == [avg]


def test_levels_reproduce_the_public_kernels():
    plan = small_plan()
    out = estimate(OU3, plan, X0, norm_observable(), master_seed=17)
    avg0, _ = run_level0(OU3, X0, plan.gamma[0], plan.tau, plan.horizons[0],
                         norm_observable(), NoiseStream(17, 0, run_index=0))
    assert out.level_contributions[0] == avg0
    for r in (1, 2):
        avg_r, _ = run_coupled_level(
            OU3, X0, plan.gamma[r], plan.tau, plan.horizons[r],
            norm_observable(), NoiseStream(17, r, run_index=0))
        assert out.level_contributions[r] == avg_r


def test_constant_observable_is_recovered_exactly():
    def const(pts):
        return np.full(pts.shape[:-1], 0.7321)

    out = estimate(OU3, small_plan(), X0, const, master_seed=3)
    assert out.estimate == pytest.approx(0.7321, rel=1e-13)
    for contrib in out.level_contributions[1:]:
        assert contrib == 0.0


# ------------------------------------------------------------ reproducibility


def test_same_seed_reproduces_bitwise_and_seeds_differ():
    a = estimate(OU3, small_plan(), X0, norm_observable(), master_seed=21)
    b = estimate(OU3, small_plan(), X0, norm_observable(), master_seed=21)
    c = estimate(OU3, small_plan(), X0, norm_observable(), master_seed=22)
    assert a.to_json() == b.to_json()
    assert a.estimate != c.estimate


# -------------------------------------------------------------- repetitions


def test_repeated_first_run_equals_the_single_run():
    single = estimate(OU3, small_plan(), X0, norm_observable(), master_seed=41)
    runs = estimate_repeated(OU3, small_plan(), X0, norm_observable(),
                             master_seed=41, n_runs=1)
    assert len(runs) == 1
    assert runs[0].to_json() == single.to_json()


def test_repeated_batch_matches_one_at_a_time_execution():
    plan = small_plan()
    batch = estimate_repeated(OU3, plan, X0, norm_observable(),
                              master_seed=43, n_runs=4)
    assert [out.run_index for out in batch] == [0, 1, 2, 3]
    for i, out in enumerate(batch):
        solo = _estimate_batch(OU3, plan, X0, norm_observable(), 43,
                               run_indices=[i])[0]
        assert out.to_json() == solo.to_json()


def test_repeated_runs_are_distinct_and_order_deterministic():
    runs = estimate_repeated(OU3, small_plan(), X0, norm_observable(),
                             master_seed=47, n_runs=3)
    estimates = [out.estimate for out in runs]
    assert len(set(estimates)) == 3
    again = estimate_repeated(OU3, small_plan(), X0, norm_observable(),
                              master_seed=47, n_runs=3)
    assert [o.to_json() for o in again] == [o.to_json() for o in runs]


def test_repeated_rejects_nonpositive_run_counts():
    with pytest.raises(ValueError, match="n_runs"):
        estimate_repeated(OU3, small_plan(), X0, norm_observable(),
                          master_seed=1, n_runs=0)


# ----------------------------------------------------------------- clamping


def test_clamped_burn_in_is_applied_and_reported():
    plan = small_plan(tau=8.0)
    assert plan.tau_clamped
    out = estimate(OU3, plan, X0, norm_observable(), master_seed=51)
    assert len(out.warnings) == 1
    assert "burn-in clamped" in out.warnings[0]
    assert "tau=8" in out.warnings[0]
    ref, _ = run_level0(OU3, X0, plan.gamma[0], plan.tau_effective,
                        plan.horizons[0], norm_observable(),
                        NoiseStream(51, 0, run_index=0))
    assert out.level_contributions[0] == ref


def test_feasible_plan_records_no_warnings():
    out = estimate(OU3, small_plan(), X0, norm_observable(), master_seed=51)
    assert out.warnings == []


# --------------------------------------------------------------- validation


def test_input_validation():
    plan = small_plan()
    with pytest.raises(ValueError, match="shape"):
        estimate(OU3, plan, np.zeros(4), norm_observable(), master_seed=1)
    with pytest.raises(ValueError, match="finite"):
        estimate(OU3, plan, np.array([0.0, np.nan, 0.0]), norm_observable(),
                 master_seed=1)
    other = make_langevin_model(QuadraticPotential(5), "auto")
    with pytest.raises(ValueError, match="dimension"):
        estimate(other, plan, np.zeros(5), norm_observable(), master_seed=1)


def test_numerical_failure_is_annotated_with_level_and_run():
    blowup = TuningPlan(regime="b2", gamma0=3.0, horizons=[30.0, 15.0],
                        tau=1.5, r0=1.0, big_t=30.0, dim=3)
    x_far = np.full(3, 1e308)
    first = lambda x: x[..., 0]  # finite at x_far, unlike its norm
    with pytest.raises(NumericalFailureError) as exc:
        estimate(OU3, blowup, x_far, first, master_seed=1)
    assert exc.value.level_index == 0
    assert exc.value.step_index >= 1
    assert str(exc.value).startswith(
        f"level 0: non-finite position at step {exc.value.step_index} "
        "(run 0, gamma=3.0)")
    with pytest.raises(NumericalFailureError) as exc:
        estimate_repeated(OU3, blowup, x_far, first, master_seed=1,
                          n_runs=2)
    assert exc.value.run_index == 0
    # outside estimate/estimate_repeated a batch row is not its run: the
    # error names the run index the row's stream carries
    for runs in ([5], [7, 5]):
        with pytest.raises(NumericalFailureError) as exc:
            _estimate_batch(OU3, blowup, x_far, first, master_seed=1,
                            run_indices=runs)
        assert exc.value.run_index == runs[0]
        assert f"(run {runs[0]}, gamma=3.0)" in str(exc.value)

    # with the expanding drift b(x) = x and no noise, a step-gamma chain
    # grows by (1 + gamma)^(1/gamma) per unit time, faster for the smaller
    # step: level 0 (gamma 4, 329 steps) ends near 5^329 ~ 1e230, while the
    # level-1 fine chain (gamma 2) passes 3^647 > 1e308 in coarse step 324
    grow = TuningPlan(regime="b2", gamma0=4.0, horizons=[1320.0, 1316.0],
                      tau=4.0, r0=1.0, big_t=1320.0, dim=3)
    with pytest.raises(NumericalFailureError) as exc:
        estimate_repeated(_Expanding(), grow, np.ones(3),
                          identity_observable(), master_seed=1, n_runs=2)
    assert exc.value.level_index == 1
    assert str(exc.value).startswith(
        "level 1: non-finite position at coarse step 324 (run 0, "
        "gamma_fine=2.0)")


def test_non_finite_observable_value_names_the_run():
    def blows(pts):
        return np.full(len(pts), math.inf)

    with pytest.raises(NumericalFailureError) as exc:
        _estimate_batch(OU3, small_plan(), X0, blows, master_seed=1,
                        run_indices=[7, 5])
    assert exc.value.level_index == 0
    assert exc.value.run_index == 7
    assert "non-finite observable value at step 4 (run 7)" in str(exc.value)


class _Expanding:
    """Duck-typed model with drift b(x) = x and no noise."""

    dim = 3
    noise_scale = 0.0

    def drift(self, x):
        return x.copy()


# ------------------------------------------------------------ serialization


def test_json_round_trip_carries_all_fields():
    out = estimate(OU3, small_plan(), X0, norm_observable(), master_seed=61)
    payload = json.loads(out.to_json())
    assert set(payload) == {
        "estimate", "level_contributions", "level_iterations",
        "total_complexity", "plan_echo", "master_seed", "run_index",
        "warnings",
    }
    assert payload["plan_echo"]["R"] == 2
    assert payload["master_seed"] == 61
    assert payload["estimate"] == out.estimate
    assert payload["level_contributions"] == out.level_contributions


def test_output_holds_only_its_inputs():
    assert [f.name for f in dataclasses.fields(EstimatorOutput)] == [
        "level_contributions", "level_iterations", "plan_echo",
        "master_seed", "run_index"]
    clamped = small_plan(t0=8.0, tau=4.0)
    out = EstimatorOutput([1.0, 0.5, 0.25], [3, 4, 5], clamped, 7)
    assert out.estimate == 1.75
    assert out.total_complexity == 12
    assert out.warnings == [
        "burn-in clamped: tau=4 exceeds T_R/2=1; using tau=1"]
    with pytest.raises(AttributeError):
        out.total_complexity = 0
    assert EstimatorOutput([1.0], [3], small_plan(), 7).warnings == []


def test_csv_rows_one_per_level():
    plan = small_plan()
    out = estimate(OU3, plan, X0, norm_observable(), master_seed=61)
    rows = out.csv_rows()
    assert [row["level"] for row in rows] == [0, 1, 2]
    assert [row["gamma"] for row in rows] == plan.gamma
    assert [row["T"] for row in rows] == plan.horizons
    assert rows[0]["iterations"] == out.level_iterations[0]
    assert float(rows[1]["contribution"]) == out.level_contributions[1]


def test_csv_vector_contributions_join_coordinates_with_semicolons():
    out = estimate(OU3, small_plan(), X0, identity_observable(), master_seed=61)
    cell = out.csv_rows()[0]["contribution"]
    parts = [float(p) for p in cell.split(";")]
    np.testing.assert_array_equal(parts, out.level_contributions[0])
    listed = json.loads(out.to_json())["estimate"]
    np.testing.assert_array_equal(listed, out.estimate)


# ------------------------------------------------------- flagship smoke run


def test_flagship_plan_runs_and_lands_near_the_reference():
    model = make_langevin_model(QuadraticPotential(10), "auto")
    plan = plan_b2(model, 0.1)
    out = estimate(model, plan, np.zeros(10), norm_observable(),
                   master_seed=12345)
    assert out.total_complexity == plan.predicted_complexity
    assert abs(out.estimate - 3.0843277597998596) <= 0.3
    assert len(out.warnings) == 1
