import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlangevin import (
    LangevinModel,
    LogisticPerturbedPotential,
    Potential,
    QuadraticPotential,
    identity_observable,
    logistic_covariate,
    make_langevin_model,
    ou_reference_value,
    run_coupled_level,
    run_level0,
)
from mlangevin.sde import NoiseStream

# Gaussian-norm expectations E|Z|, Z ~ N(0, I_d), frozen from 50-digit
# evaluation of the closed form.
GAUSSIAN_NORM_MEAN = {
    2: 1.2533141373155003,
    10: 3.0843277597998596,
    100: 9.9750316395510504,
    1000: 31.614871896980108,
}


def fd_gradient(potential, x, h=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (potential.eval(x + e) - potential.eval(x - e)) / (2 * h)
    return g


def fd_hessian(potential, x, h=1e-5):
    d = x.size
    hess = np.empty((d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        hess[:, i] = (potential.grad(x + e) - potential.grad(x - e)) / (2 * h)
    return 0.5 * (hess + hess.T)


def test_ou_reference_value_matches_closed_form():
    for d, expected in GAUSSIAN_NORM_MEAN.items():
        assert ou_reference_value(d) == pytest.approx(expected, rel=1e-12)


def test_ou_reference_value_rejects_odd_or_nonpositive_d():
    for d in (1, 3, 11, 0, -2):
        with pytest.raises(ValueError):
            ou_reference_value(d)


def test_quadratic_potential_values_and_constants():
    pot = QuadraticPotential(4)
    assert pot.alpha_u == 1.0
    assert pot.l_u == 1.0
    assert pot.grad_u1_sup == 0.0
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert pot.eval(x) == pytest.approx(0.5 * np.dot(x, x), rel=1e-15)
    np.testing.assert_allclose(pot.grad(x), x, rtol=0, atol=0)


def test_quadratic_gradient_returns_independent_copy():
    pot = QuadraticPotential(3)
    x = np.ones(3)
    g = pot.grad(x)
    g[0] = 99.0
    assert x[0] == 1.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1234)
    quad = QuadraticPotential(6)
    cov = logistic_covariate(6, 2.0, np.random.default_rng(5))
    logi = LogisticPerturbedPotential(6, 0.25, cov)
    for pot in (quad, logi):
        for _ in range(100):
            x = rng.normal(scale=2.0, size=6)
            g = pot.grad(x)
            g_fd = fd_gradient(pot, x)
            assert np.linalg.norm(g - g_fd) <= 1e-4 * (1 + np.linalg.norm(g))


def test_logistic_constants_and_hessian_envelope():
    cov = logistic_covariate(10, 2.0, NoiseStream(7, 0))
    norm_sq = float(np.dot(cov, cov))
    pot = LogisticPerturbedPotential(10, 0.25, cov)
    assert pot.alpha_u == 0.25
    assert pot.l_u == pytest.approx(0.25 + norm_sq / 5.0, rel=1e-15)
    assert pot.grad_u1_sup == pytest.approx(math.sqrt(norm_sq), rel=1e-15)

    # true Hessian spectrum lies in [lam, lam + |x|^2/4]
    rng = np.random.default_rng(99)
    for _ in range(10):
        x = rng.normal(size=10)
        eigs = np.linalg.eigvalsh(fd_hessian(pot, x))
        assert eigs.min() >= 0.25 - 1e-6
        assert eigs.max() <= 0.25 + norm_sq / 4.0 + 1e-6


def test_logistic_eval_and_grad_are_overflow_safe():
    cov = np.array([100.0, 0.0])
    pot = LogisticPerturbedPotential(2, 1.0, cov)
    far = np.array([50.0, 0.0])  # x . cov = 5000
    val = pot.eval(far)
    assert np.isfinite(val)
    # log(1 + e^t) ~ t for large t
    assert val == pytest.approx(5000.0 + 0.5 * np.dot(far, far), rel=1e-12)
    g = pot.grad(far)
    assert np.all(np.isfinite(g))
    np.testing.assert_allclose(g, cov * 1.0 + 1.0 * far, rtol=1e-12)
    g_neg = pot.grad(-far)
    np.testing.assert_allclose(g_neg, -far, rtol=0, atol=1e-12)


def test_potential_batching_matches_pointwise():
    cov = logistic_covariate(5, 1.5, np.random.default_rng(3))
    pots = [QuadraticPotential(5), LogisticPerturbedPotential(5, 0.5, cov)]
    xs = np.random.default_rng(4).normal(size=(7, 5))
    for pot in pots:
        vals = pot.eval(xs)
        grads = pot.grad(xs)
        assert vals.shape == (7,)
        assert grads.shape == (7, 5)
        for i in range(7):
            assert vals[i] == pytest.approx(float(pot.eval(xs[i])), rel=1e-15)
            np.testing.assert_array_equal(grads[i], pot.grad(xs[i]))


def test_logistic_validation_errors():
    cov = np.ones(3)
    with pytest.raises(ValueError):
        LogisticPerturbedPotential(3, 0.0, cov)
    with pytest.raises(ValueError):
        LogisticPerturbedPotential(3, -1.0, cov)
    for lam in (math.inf, math.nan):
        with pytest.raises(ValueError, match="lam must be finite"):
            LogisticPerturbedPotential(3, lam, cov)
    # |x|^2 overflows, so l_u = lam + |x|^2/5 is infinite
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match=r"l_u < inf, got .*l_u=inf"):
        LogisticPerturbedPotential(2, 0.25, np.array([1e200, 0.0]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^covariate must be finite$"):
            LogisticPerturbedPotential(2, 0.25, np.array([bad, 0.0]))
    with pytest.raises(ValueError):
        LogisticPerturbedPotential(4, 0.5, cov)
    with pytest.raises(ValueError):
        QuadraticPotential(0)


def test_auto_mode_normalizes_effective_constants():
    cov = logistic_covariate(10, 2.0, NoiseStream(7, 0))
    for pot in (QuadraticPotential(10),
                LogisticPerturbedPotential(10, 0.25, cov)):
        model = make_langevin_model(pot, "auto")
        assert model.alpha_eff / model.l_eff ** 2 == pytest.approx(1.0, abs=1e-12)
        assert model.noise_scale == pytest.approx(math.sqrt(2) * model.sigma0)


def test_auto_sigma0_for_logistic_benchmark_config():
    cov = logistic_covariate(10, 2.0, NoiseStream(7, 0))
    model = make_langevin_model(LogisticPerturbedPotential(10, 0.25, cov))
    # alpha_u = 1/4, l_u = 9/4, so sigma0^2 = alpha_u / l_u^2 = 4/81
    assert model.sigma0 ** 2 == pytest.approx(4.0 / 81.0, rel=1e-12)
    assert model.alpha_eff == pytest.approx(1.0 / 81.0, rel=1e-12)
    assert model.l_eff == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_explicit_sigma0_mode():
    model = make_langevin_model(QuadraticPotential(3), 2.0)
    assert model.sigma0 == 2.0
    assert model.alpha_eff == pytest.approx(4.0)
    assert model.l_eff == pytest.approx(4.0)
    x = np.array([1.0, 0.0, -1.0])
    np.testing.assert_allclose(model.drift(x), -4.0 * x, rtol=1e-15)


def test_make_langevin_model_mode_errors():
    pot = QuadraticPotential(2)
    for sigma0 in ("explicit", "adaptive", 0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma0"):
            make_langevin_model(pot, sigma0)


def test_langevin_model_holds_only_potential_and_sigma0():
    pot = QuadraticPotential(2)
    assert [f.name for f in dataclasses.fields(LangevinModel)] == [
        "potential", "sigma0"]
    model = LangevinModel(pot, 0.5)
    assert model.noise_scale == math.sqrt(2.0) * 0.5
    assert (model.alpha_eff, model.l_eff) == (0.25, 0.25)
    with pytest.raises(AttributeError):
        model.noise_scale = 0.0
    for sigma0 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="sigma0"):
            LangevinModel(pot, sigma0)


def test_logistic_covariate_norm_and_determinism():
    for d, a in ((10, 2.0), (100, 2.0), (3, 0.7)):
        cov = logistic_covariate(d, a, NoiseStream(7, 0))
        assert cov.shape == (d,)
        assert np.dot(cov, cov) == pytest.approx(5.0 * a, rel=1e-12)
        again = logistic_covariate(d, a, NoiseStream(7, 0))
        np.testing.assert_array_equal(cov, again)


def test_logistic_covariate_accepts_numpy_generator():
    cov = logistic_covariate(4, 1.0, np.random.default_rng(11))
    assert np.dot(cov, cov) == pytest.approx(5.0, rel=1e-12)


def test_logistic_covariate_validation():
    with pytest.raises(ValueError):
        logistic_covariate(0, 1.0, NoiseStream(0, 0))
    with pytest.raises(ValueError):
        logistic_covariate(3, 0.0, NoiseStream(0, 0))
    for a in (math.inf, math.nan):
        with pytest.raises(ValueError, match="a must be finite"):
            logistic_covariate(3, a, NoiseStream(0, 0))


# -------------------------------------------------------------- the Euler map

MAP = settings(max_examples=40, deadline=None, derandomize=True)


def map_model(kind, d, sigma0):
    if kind == "ou":
        return make_langevin_model(QuadraticPotential(d), sigma0)
    cov = logistic_covariate(d, 2.0, NoiseStream(7, 0))
    return make_langevin_model(LogisticPerturbedPotential(d, 0.25, cov),
                               sigma0)


@st.composite
def map_cases(draw):
    """A model, a step and a (B, d) batch; a few rows sit far along the
    covariate, where |c . x| reaches 1e3..1e6 and tanh saturates."""
    kind = draw(st.sampled_from(["ou", "logistic"]))
    d = draw(st.integers(1, 12))
    sigma0 = draw(st.sampled_from(["auto", 0.3, 2.0]))
    step = draw(st.one_of(st.sampled_from([2.0 ** -k for k in range(8)]),
                          st.floats(1e-3, 1.0)))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    x = rng.normal(scale=draw(st.sampled_from([1e-3, 1.0, 30.0])),
                   size=(n, d))
    model = map_model(kind, d, sigma0)
    if kind == "logistic":
        c = model.potential.covariate
        for row in range(n):
            if draw(st.booleans()):
                x[row] = draw(st.sampled_from([-1.0, 1.0])) \
                    * 10.0 ** draw(st.integers(3, 6)) * c / np.dot(c, c)
    return model, step, x


@MAP
@given(map_cases())
def test_advance_on_a_batch_equals_advance_row_by_row(case):
    model, step, x = case
    batch = x.copy()
    model.advance(batch, step)
    for row in range(len(x)):
        point = x[row].copy()  # a single (d,) point
        model.advance(point, step)
        np.testing.assert_array_equal(batch[row], point)


@MAP
@given(map_cases())
def test_advance_agrees_with_the_drift_to_a_few_ulps(case):
    model, step, x = case
    got = x.copy()
    with warnings.catch_warnings(), \
            np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        model.advance(got, step)
    assert np.isfinite(got).all()
    with np.errstate(under="ignore"):
        want = x + step * model.drift(x)
    # ulps of the terms' scale |x| + h |grad U(x)|, h = step sigma0^2:
    # where the logistic sigmoid is ~0, its tanh form rounds to 0
    pot, h = model.potential, step * model.sigma0 ** 2
    scale = np.abs(x) + h * (np.abs(getattr(pot, "covariate", 0.0))
                             + np.abs(x))
    assert (np.abs(got - want) <= 4 * np.finfo(float).eps * scale).all()


class _Bowl(Potential):
    """A user potential that defines only eval and grad: U(x) = |x|^2/2."""

    def __init__(self, dim):
        self.dim = dim
        self.alpha_u = self.l_u = 1.0

    def eval(self, x):
        return 0.5 * np.sum(x * x, axis=-1)

    def grad(self, x):
        return np.array(x, dtype=float)


def test_a_potential_that_defines_only_grad_gets_the_default_map():
    bowl, quad = _Bowl(3), QuadraticPotential(3)
    assert type(bowl).descend is Potential.descend
    model = make_langevin_model(bowl, 0.5)
    x = np.array([[1.0, -2.0, 0.3], [4.0, 0.0, -1e-3]])
    got = x.copy()
    model.advance(got, 0.3)
    np.testing.assert_array_equal(got, x - (0.3 * 0.25) * bowl.grad(x))
    # at a power-of-two step x - h x and the quadratic's x (1 - h) are both
    # x (1 - h) correctly rounded, so the engine gives the same bits
    x0, f = np.array([1.0, -2.0, 0.5]), identity_observable()
    for run in (run_level0, run_coupled_level):
        same = [run(make_langevin_model(p, "auto"), x0, 0.25, 1.0, 8.0, f,
                    NoiseStream(3, 1)) for p in (bowl, quad)]
        np.testing.assert_array_equal(same[0][0], same[1][0])
