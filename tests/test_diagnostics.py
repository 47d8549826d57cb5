import json
import math

import mpmath
import numpy as np
import pytest

from mlangevin import (
    BenchReport,
    ConfluenceProbeResult,
    LangevinModel,
    LogisticPerturbedPotential,
    NoiseStream,
    QuadraticPotential,
    bench_logistic,
    bench_ou,
    confluence_probe,
    contraction_probe,
    euler_invariant_moment_oracle,
    logistic_covariate,
    logistic_posterior_mean,
    make_langevin_model,
    ou_reference_value,
)
from mlangevin.diagnostics import _load_pinned_reference

PINNED_POSTERIOR_SCALE = 1.5351828597224253


def zero_noise_ou(d):
    return LangevinModel(potential=QuadraticPotential(d), sigma0=1.0,
                         noise_scale=0.0, alpha_eff=1.0, l_eff=1.0)


def logistic_ou_pair(d=10, lam=0.25, a=2.0, seed=7):
    cov = logistic_covariate(d, a, NoiseStream(seed, 0))
    model = make_langevin_model(LogisticPerturbedPotential(d, lam, cov), "auto")
    return model, cov


# -------------------------------------------------- invariant-moment oracle


def test_invariant_moment_oracle_fixed_points():
    assert euler_invariant_moment_oracle(0.5) == 4.0 / 3.0
    assert euler_invariant_moment_oracle(1.0) == 2.0
    assert euler_invariant_moment_oracle(1e-9) == pytest.approx(1.0, abs=1e-8)


def test_invariant_moment_oracle_domain():
    for gamma in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(ValueError, match="gamma"):
            euler_invariant_moment_oracle(gamma)


# --------------------------------------------------------- contraction probe


def test_contraction_on_quadratic_model_is_exactly_geometric():
    model = make_langevin_model(QuadraticPotential(4), "auto")
    x = np.full(4, 0.5)
    distances = contraction_probe(model, x, np.zeros(4), gamma=0.5, n_steps=12)
    assert len(distances) == 13
    assert distances[0] == 1.0
    # shared noise cancels; only drift rounding remains, but past n ~ 18 that
    # rounding itself exceeds 1e-10 relative, so the exactness window is short
    for n, dist in enumerate(distances):
        assert abs(dist - 0.5 ** n) <= 1e-10 * 0.5 ** n


def test_contraction_on_logistic_model_respects_the_convexity_envelope():
    model, _ = logistic_ou_pair()
    x, y = np.ones(10), np.zeros(10)
    gamma = 0.5
    distances = contraction_probe(model, x, y, gamma=gamma, n_steps=12)
    d0 = math.sqrt(10.0)
    factor = 1.0 - model.alpha_eff * gamma
    for n, dist in enumerate(distances):
        assert dist <= d0 * factor ** n + 1e-9
    for before, after in zip(distances, distances[1:]):
        assert after <= before + 1e-12


def test_contraction_identical_starts_stay_identical():
    model, _ = logistic_ou_pair()
    x = np.full(10, 0.3)
    distances = contraction_probe(model, x, x.copy(), gamma=0.25, n_steps=6)
    assert distances == [0.0] * 7


def test_contraction_nonlinear_drift_depends_on_the_noise_seed():
    model, _ = logistic_ou_pair()
    x, y = np.ones(10), np.zeros(10)
    a = contraction_probe(model, x, y, gamma=0.25, n_steps=8, seed=0)
    b = contraction_probe(model, x, y, gamma=0.25, n_steps=8, seed=1)
    assert a == contraction_probe(model, x, y, gamma=0.25, n_steps=8, seed=0)
    assert a != b


def test_contraction_probe_validation():
    model = make_langevin_model(QuadraticPotential(2), "auto")
    with pytest.raises(ValueError, match="gamma"):
        contraction_probe(model, np.ones(2), np.zeros(2), gamma=0.6, n_steps=3)
    with pytest.raises(ValueError, match="n_steps"):
        contraction_probe(model, np.ones(2), np.zeros(2), gamma=0.5, n_steps=0)


# ---------------------------------------------------------- confluence probe


def test_confluence_order_is_two_on_the_quadratic_model():
    model = make_langevin_model(QuadraticPotential(2), "auto")
    res = confluence_probe(model, gamma=0.25, horizon=50.0, n_paths=2000)
    assert isinstance(res, ConfluenceProbeResult)
    assert set(res.sup_gap_sq) == {0.25, 0.125}
    ratio = res.sup_gap_sq[0.25] / res.sup_gap_sq[0.125]
    assert 3.0 <= ratio <= 5.0
    assert 1.5 <= res.order_estimate <= 2.5


def test_confluence_zero_noise_gap_matches_the_closed_form():
    gamma = 1.0 / 32.0
    res = confluence_probe(zero_noise_ou(1), gamma, horizon=20.0,
                           n_paths=100, x0=[1.0])
    n_steps = int(20.0 / gamma)
    expected = max(
        ((1.0 - gamma / 2.0) ** (2 * k) - (1.0 - gamma) ** k) ** 2
        for k in range(1, n_steps + 1))
    assert res.sup_gap_sq[gamma] == pytest.approx(expected, rel=1e-10)
    assert res.order_estimate == pytest.approx(2.0, abs=0.1)


def test_confluence_zero_noise_ratio_tends_to_four_from_above():
    ratios = []
    for gamma in (0.25, 1.0 / 16.0, 1.0 / 32.0):
        res = confluence_probe(zero_noise_ou(1), gamma, horizon=20.0,
                               n_paths=100, x0=[1.0])
        ratios.append(res.sup_gap_sq[gamma] / res.sup_gap_sq[gamma / 2.0])
    assert ratios[0] > ratios[1] > ratios[2] > 4.0
    assert ratios[2] == pytest.approx(4.0, abs=0.1)


def test_confluence_zero_gap_gives_an_undefined_order():
    # no noise and a start at the fixed point: both chains stay at the
    # origin, so the gap is exactly zero and the order is nan
    res = confluence_probe(zero_noise_ou(2), gamma=0.25, horizon=10.0,
                           n_paths=200)
    assert res.sup_gap_sq[0.25] == 0.0
    assert res.sup_gap_sq[0.125] == 0.0
    assert math.isnan(res.order_estimate)


def test_confluence_probe_validation_and_path_warning():
    model = make_langevin_model(QuadraticPotential(2), "auto")
    with pytest.raises(ValueError, match="gamma"):
        confluence_probe(model, gamma=0.6, horizon=5.0, n_paths=200)
    with pytest.raises(ValueError, match="n_paths"):
        confluence_probe(model, gamma=0.25, horizon=5.0, n_paths=1)
    with pytest.warns(RuntimeWarning, match="paths"):
        confluence_probe(model, gamma=0.25, horizon=5.0, n_paths=50)


# ------------------------------------------------------ posterior-mean truth


def test_posterior_mean_matches_high_precision_quadrature():
    lam, s = 0.25, math.sqrt(10.0)
    covariate = np.array([s, 0.0, 0.0])
    result = logistic_posterior_mean(lam, covariate)

    with mpmath.workdps(30):
        weight = lambda t: mpmath.exp(-lam * t * t / 2) / (1 + mpmath.exp(s * t))
        num = mpmath.quad(lambda t: t * weight(t), [-mpmath.inf, 0, mpmath.inf])
        den = mpmath.quad(weight, [-mpmath.inf, 0, mpmath.inf])
        m_ref = float(num / den)

    assert result[0] == pytest.approx(m_ref, rel=1e-12)
    assert result[1] == 0.0 and result[2] == 0.0
    assert m_ref == pytest.approx(-PINNED_POSTERIOR_SCALE, rel=1e-12)


def test_posterior_mean_is_antiparallel_to_the_covariate():
    _, cov = logistic_ou_pair()
    mean = logistic_posterior_mean(0.25, cov)
    s = float(np.linalg.norm(cov))
    along = float(np.dot(mean, cov)) / s
    assert along == pytest.approx(-PINNED_POSTERIOR_SCALE, rel=1e-12)
    # mean = m * (cov / s): orthogonal component vanishes
    residual = mean - (along / s) * cov
    assert float(np.linalg.norm(residual)) <= 1e-15


def test_posterior_mean_depends_only_on_the_covariate_norm():
    _, cov10 = logistic_ou_pair(d=10)
    cov3 = np.array([math.sqrt(10.0), 0.0, 0.0])
    m10 = float(np.dot(logistic_posterior_mean(0.25, cov10), cov10)
                / np.dot(cov10, cov10))
    m3 = float(logistic_posterior_mean(0.25, cov3)[0] / cov3[0])
    assert m10 == pytest.approx(m3, rel=1e-13)


def test_posterior_mean_validation():
    with pytest.raises(ValueError, match="lam"):
        logistic_posterior_mean(0.0, np.ones(2))
    with pytest.raises(ValueError, match="covariate"):
        logistic_posterior_mean(0.5, np.zeros(3))


# ------------------------------------------------------------------ bench_ou


def test_bench_ou_report_contents():
    rep = bench_ou(d=2, eps=0.45, n_runs=3, seed=5)
    assert isinstance(rep, BenchReport)
    assert rep.model_label == "ou(d=2)"
    assert rep.n_runs == 3
    assert rep.reference_value == ou_reference_value(2)
    assert len(rep.per_run_estimates) == 3
    assert rep.mean_complexity == rep.plan_echo.predicted_complexity
    assert rep.reference_source == "exact Gaussian-norm expectation"
    errs = [abs(e - rep.reference_value) for e in rep.per_run_estimates]
    assert rep.rmse == pytest.approx(
        math.sqrt(sum(e * e for e in errs) / 3), rel=1e-12)


def test_bench_ou_single_run_rmse_is_the_absolute_error():
    rep = bench_ou(d=2, eps=0.45, n_runs=1, seed=9)
    assert rep.rmse == abs(rep.per_run_estimates[0] - rep.reference_value)


def test_bench_ou_is_reproducible_apart_from_wall_clock():
    a = bench_ou(d=2, eps=0.45, n_runs=2, seed=3).to_dict()
    b = bench_ou(d=2, eps=0.45, n_runs=2, seed=3).to_dict()
    a.pop("wall_clock_seconds"), b.pop("wall_clock_seconds")
    assert a == b


def test_bench_ou_start_modes():
    zero = bench_ou(d=2, eps=0.45, n_runs=1, x0_mode="zero", seed=1)
    ones = bench_ou(d=2, eps=0.45, n_runs=1, x0_mode="ones", seed=1)
    warm = bench_ou(d=2, eps=0.45, n_runs=1, x0_mode="warmstart", seed=1)
    assert zero.per_run_estimates != ones.per_run_estimates
    # |grad U(ones)|^2 = d meets the alpha_u * d threshold: descent is a no-op
    assert warm.per_run_estimates == ones.per_run_estimates
    with pytest.raises(ValueError, match="x0_mode"):
        bench_ou(d=2, eps=0.45, n_runs=1, x0_mode="center")


def test_bench_ou_flagship_smoke_accuracy():
    rep = bench_ou(d=10, eps=0.1, n_runs=5, seed=0)
    assert 0.0 < rep.rmse <= 0.2
    assert rep.plan_echo.R == 5


def test_bench_report_csv_scalar_and_json():
    rep = bench_ou(d=2, eps=0.45, n_runs=2, seed=3)
    rows = rep.csv_rows()
    assert [row["run"] for row in rows] == [0, 1]
    assert set(rows[0]) == {"run", "estimate", "complexity", "seconds"}
    assert rows[0]["estimate"] == rep.per_run_estimates[0]
    assert rows[0]["seconds"] == pytest.approx(rep.wall_clock_seconds / 2)
    payload = json.loads(rep.to_json())
    assert set(payload) == {
        "model_label", "plan_echo", "n_runs", "reference_value", "rmse",
        "per_run_estimates", "mean_complexity", "wall_clock_seconds", "seed",
        "reference_source",
    }


# ------------------------------------------------------------ bench_logistic


def test_bench_logistic_quadrature_fallback_for_unpinned_configs():
    rep = bench_logistic(d=4, lam=0.25, a=2.0, eps=0.45, n_runs=2,
                         covariate_seed=3)
    assert rep.reference_source == "exact quadrature posterior mean"
    cov = logistic_covariate(4, 2.0, NoiseStream(3, 0))
    np.testing.assert_array_equal(
        rep.reference_value, logistic_posterior_mean(0.25, cov))
    assert rep.model_label == "logistic(d=4, lam=0.25, a=2.0)"
    assert len(rep.per_run_estimates) == 2
    assert rep.rmse < 1.0


def test_bench_logistic_csv_expands_vector_estimates():
    rep = bench_logistic(d=4, lam=0.25, a=2.0, eps=0.45, n_runs=2,
                         covariate_seed=3)
    row = rep.csv_rows()[0]
    assert set(row) == {"run", "estimate_0", "estimate_1", "estimate_2",
                        "estimate_3", "complexity", "seconds"}
    assert row["estimate_1"] == rep.per_run_estimates[0][1]


def test_bench_logistic_aggressive_regime_uses_the_enlarged_step():
    rep = bench_logistic(d=100, lam=0.25, a=2.0, eps=0.45, n_runs=2,
                         regime="aggressive")
    assert rep.plan_echo.experimental
    assert rep.plan_echo.gamma0 == pytest.approx(20.25, rel=1e-12)
    assert rep.rmse < 1.0


def test_bench_logistic_validation():
    with pytest.raises(ValueError, match="regime"):
        bench_logistic(d=4, lam=0.25, a=2.0, eps=0.45, n_runs=1, regime="b1")
    with pytest.raises(ValueError, match="reference_mode"):
        bench_logistic(d=4, lam=0.25, a=2.0, eps=0.45, n_runs=1,
                       reference_mode="cached")


def test_bench_logistic_pinned_reference_is_loaded_for_the_shipped_config():
    rep = bench_logistic(d=10, lam=0.25, a=2.0, eps=0.45, n_runs=1, seed=2)
    assert rep.reference_source.startswith("frozen estimate(eps=0.01")
    assert "master_seed=990001" in rep.reference_source
    reference = np.asarray(rep.reference_value, dtype=float)
    _, cov = logistic_ou_pair()
    truth = logistic_posterior_mean(0.25, cov)
    assert float(np.linalg.norm(reference - truth)) / math.sqrt(10) <= 0.03


def test_pinned_reference_guards():
    _, cov = logistic_ou_pair()
    assert _load_pinned_reference(4, 0.25, 2.0, 7, cov[:4]) is None
    with pytest.warns(RuntimeWarning, match="covariate"):
        data = _load_pinned_reference(10, 0.25, 2.0, 7, cov + 1e-6)
    assert data is None
