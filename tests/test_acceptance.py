"""Acceptance gate: one test per headline claim, at its stated tolerance.

Criteria covered, in order: flagship tuning-plan values, complexity
accounting, mean-squared accuracy on the Gaussian benchmark in d=10 and
d=100, level counts across the reference grid, logistic-regression accuracy
against a frozen high-accuracy estimator run, the coarse-step variant's cost
advantage, exactness on constant observables, geometric contraction of
coupled chains, second-order decay of the coupling gap, occupation-average
bias at level 0, levels that share no state, and the eps^-2 law: RMSE
within eps at a cost that keeps MSE x cost flat as eps halves.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mlangevin import (
    NoiseStream,
    QuadraticPotential,
    TuningPlan,
    bench,
    estimate,
    make_langevin_model,
    norm_observable,
    identity_observable,
    plan_aggressive,
    plan_b2,
    warm_start,
)
from mlangevin.diagnostics import confluence_probe, contraction_probe
from mlangevin.model import LogisticPerturbedPotential, logistic_covariate
from mlangevin.sde import n_gamma, run_coupled_level, run_level0

DATA = Path(__file__).resolve().parent / "data"


def ou_model(d):
    return make_langevin_model(QuadraticPotential(d), "auto")


def logistic_model(d, lam=0.25, a=2.0, seed=7):
    cov = logistic_covariate(d, a, NoiseStream(seed, 0))
    return make_langevin_model(LogisticPerturbedPotential(d, lam, cov), "auto")


def warm_origin(model):
    return warm_start(model.potential, np.zeros(model.dim)).x0


def feasible_plan(dim, R, gamma0, t0, tau):
    plan = TuningPlan(regime="b2", gamma0=gamma0,
                      horizons=[t0 * 2.0 ** -r for r in range(R + 1)],
                      tau=tau, r0=1.0, big_t=t0, dim=dim)
    assert plan.feasible
    return plan


# 1. Flagship plan (d=10, eps=0.1): exact level count, starting horizon,
#    dyadic steps, and burn-in time.
def test_c01_flagship_plan_values():
    plan = plan_b2(ou_model(10), 0.1)
    assert plan.R == 5
    assert plan.horizons[0] == pytest.approx(1000.0, rel=1e-9)
    for r in range(plan.R + 1):
        assert plan.gamma[r] == 2.0 ** -(r + 1)
        assert plan.horizons[r] == pytest.approx(1000.0 * 2.0 ** (-1.5 * r),
                                                 rel=1e-9)
    assert plan.tau == pytest.approx(3.4539, abs=1e-3)


# 2. Flagship complexity: predicted and executed counts agree with the
#    reference count 7958 to 0.5% and stay below the closed-form bound.
def test_c02_flagship_complexity_accounting():
    model = ou_model(10)
    plan = plan_b2(model, 0.1)
    assert plan.predicted_complexity == 7960
    assert abs(plan.predicted_complexity - 7958) / 7958 <= 0.005
    out = estimate(model, plan, np.zeros(10), norm_observable(),
                   master_seed=1)
    assert any("burn-in clamped" in w for w in out.warnings)
    assert out.total_complexity == plan.predicted_complexity
    assert plan.predicted_complexity <= 9243
    assert out.total_complexity <= 9243


# 3. Gaussian benchmark, d=10, eps=0.1, 50 repetitions: RMSE within the
#    reported band and no worse than the target accuracy.
def test_c03_ou_d10_rmse_band():
    model = ou_model(10)
    report = bench(model, plan_b2(model, 0.1), np.zeros(10), 50, seed=0)
    assert 0.005 <= report.rmse <= 0.08
    assert report.rmse <= 0.1


# 4. Gaussian benchmark, d=100, eps=0.1, 50 repetitions, both start points.
def test_c04_ou_d100_rmse_band_both_starts():
    model = ou_model(100)
    plan = plan_b2(model, 0.1)
    for start in (np.zeros(100), np.ones(100)):
        report = bench(model, plan, start, 50, seed=0)
        assert 0.003 <= report.rmse <= 0.06, start[0]


# 5. Level counts across the reference grid match the reported table to
#    within one level (rounding conventions differ by at most one).
def test_c05_level_count_table():
    table = {(10, 0.1): 5, (10, 0.01): 8, (100, 0.1): 7, (100, 0.01): 10,
             (1000, 0.1): 8}
    for (d, eps), reference in table.items():
        assert abs(plan_b2(ou_model(d), eps).R - reference) <= 1, (d, eps)


# 6. Logistic benchmark, d=10, eps=0.1, 20 repetitions, scored against the
#    frozen eps=0.01 estimator run in tests/data (regenerated by
#    scripts/make_logistic_reference.py), with bench's RMSE formula.
def test_c06_logistic_d10_vs_frozen_reference():
    frozen = json.loads((DATA / "logistic_reference_d10.json").read_text())
    model = logistic_model(10)
    stored = np.asarray(frozen["covariate"], dtype=float)
    np.testing.assert_array_equal(
        stored, logistic_covariate(10, 2.0, NoiseStream(7, 0)))
    np.testing.assert_array_equal(stored, model.potential.covariate)
    assert (frozen["d"], frozen["lambda"]) == (10, model.potential.lam)
    report = bench(model, plan_b2(model, 0.1), warm_origin(model), 20, seed=0)
    scored = dataclasses.replace(
        report, reference_value=np.asarray(frozen["estimate"], dtype=float))
    assert 0.01 <= scored.rmse <= 0.09


# 7. Coarse-step variant, d=100: the standard plan costs 81x more (within
#    5%), and the variant still reaches 10% normalized accuracy.
def test_c07_aggressive_step_cost_and_accuracy():
    model = logistic_model(100)
    ratio = (plan_b2(model, 0.1).predicted_complexity
             / plan_aggressive(model, 0.1).predicted_complexity)
    assert ratio == pytest.approx(81.0, rel=0.05)
    report = bench(model, plan_aggressive(model, 0.1), warm_origin(model), 20,
                   seed=0)
    normalized = report.rmse / np.linalg.norm(report.reference_value)
    assert normalized <= 0.1


# 8. Constant observables are reproduced to machine precision: every
#    coupled-level contribution vanishes and level 0 averages n copies of c.
def test_c08_constant_observable_exact():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        R = int(rng.integers(0, 4))
        gamma0 = float(rng.choice([0.5, 0.25]))
        t0 = float(rng.uniform(8.0, 32.0))
        tau = float(rng.uniform(0.0, t0 * 2.0 ** -R / 2.0))
        c = float(rng.uniform(-5.0, 5.0))
        plan = feasible_plan(d, R, gamma0, t0, tau)
        out = estimate(ou_model(d), plan, np.zeros(d),
                       lambda x, c=c: np.full(x.shape[:-1], c),
                       master_seed=int(rng.integers(0, 2 ** 31)))
        assert out.estimate == pytest.approx(c, rel=1e-13, abs=1e-13)
        for contribution in out.level_contributions[1:]:
            assert contribution == 0.0


# 9. Synchronously coupled chains on a quadratic potential contract at the
#    exact geometric rate (1 - gamma)^n; gamma = 2^-13 keeps the factor
#    well away from underflow across 10^4 steps.
def test_c09_contraction_geometric_rate():
    gamma = 2.0 ** -13
    n = 10 ** 4
    x = 0.5 * np.ones(4)
    y = -0.25 * np.ones(4)
    distances = contraction_probe(ou_model(4), x, y, gamma, n, seed=0)
    d0 = float(np.linalg.norm(x - y))
    for k, dist in enumerate(distances):
        expected = d0 * (1.0 - gamma) ** k
        assert abs(dist - expected) <= 1e-10 * expected


# 10. The squared coupling gap decays at second order in the step size.
def test_c10_confluence_second_order():
    result = confluence_probe(ou_model(2), gamma=0.25, horizon=50.0,
                              n_paths=2000, seed=0)
    assert 1.5 <= result.order_estimate <= 2.5


# 11. Level-0 occupation average of x_1^2 on the unit quadratic at
#     gamma = 1/2 lands within three standard errors of the invariant
#     moment 1/(1 - gamma/2) = 4/3.  The standard error treats the
#     sampled values as the AR(1) sequence they are: successive positions
#     correlate with factor (1 - gamma)^2 per step, so the variance of the
#     window mean is Var(x^2) * (1 + rho) / ((1 - rho) * n).
def test_c11_level0_bias_within_three_stderr():
    model = ou_model(1)
    avg, iters = run_level0(model, np.zeros(1), gamma0=0.5, tau=100.0,
                            t0=5e4, f=lambda x: x[..., 0] ** 2,
                            stream=NoiseStream(0, 0))
    n = n_gamma(5e4, 0.5) - n_gamma(100.0, 0.5)
    assert iters == n_gamma(5e4, 0.5)
    moment = 4.0 / 3.0
    rho = (1.0 - 0.5) ** 2
    stderr = math.sqrt(2.0 * moment ** 2 * (1.0 + rho) / (1.0 - rho) / n)
    assert abs(float(avg) - moment) <= 3.0 * stderr


# 12. Levels share no state: each level contribution of estimate is, byte
#     for byte, the standalone level kernel on NoiseStream(seed, r), so no
#     order or schedule of the levels can change the bytes.
def test_c12_levels_share_no_state():
    rng = np.random.default_rng(7)
    for i in range(10):
        d = int(rng.choice([2, 5, 10]))
        model = ou_model(d) if i % 2 == 0 else logistic_model(d)
        R = int(rng.integers(0, 4))
        t0 = float(rng.uniform(10.0, 40.0))
        plan = feasible_plan(d, R, 0.5, t0, tau=t0 * 2.0 ** -R / 4.0)
        obs = norm_observable() if i % 3 else identity_observable()
        seed = int(rng.integers(0, 2 ** 31))
        x0 = np.zeros(d)
        out = estimate(model, plan, x0, obs, master_seed=seed)
        for r in range(R + 1):
            kernel = run_level0 if r == 0 else run_coupled_level
            alone, iters = kernel(model, x0, plan.gamma[r], plan.tau_effective,
                                  plan.horizons[r], obs, NoiseStream(seed, r))
            assert np.asarray(alone).tobytes() == np.asarray(
                out.level_contributions[r]).tobytes()
            assert iters == out.level_iterations[r]
        assert json.loads(out.to_json())["total_complexity"] > 0


# 13. The eps^-2 law on the Gaussian benchmark, d=10, 200 repetitions at
#     seed 0: at eps = 0.2, 0.1 and 0.05 the RMSE stays within eps, and
#     MSE x predicted cost stays within a factor 1.5 across the three.
#     Each MSE has about 10% relative error at 200 runs.
def test_c13_mse_times_cost_is_flat_in_eps():
    model = ou_model(10)
    products = []
    for eps in (0.2, 0.1, 0.05):
        plan = plan_b2(model, eps)
        report = bench(model, plan, np.zeros(10), 200, seed=0)
        assert report.rmse <= eps
        products.append(report.rmse ** 2 * plan.predicted_complexity)
    assert max(products) / min(products) <= 1.5
