import warnings

import numpy as np
import pytest

from mlangevin import (
    LogisticPerturbedPotential,
    NoiseStream,
    Potential,
    QuadraticPotential,
    WarmStartResult,
    logistic_covariate,
    warm_start,
)


def logistic_potential(d=10, lam=0.25, a=2.0, seed=7):
    cov = logistic_covariate(d, a, NoiseStream(seed, 0))
    return LogisticPerturbedPotential(d, lam, cov)


def test_point_already_inside_the_region_is_returned_unchanged():
    pot = QuadraticPotential(4)
    x = np.array([0.5, -0.5, 0.5, 0.5])
    res = warm_start(pot, x)
    assert isinstance(res, WarmStartResult)
    assert res.iters_used == 0
    np.testing.assert_array_equal(res.x0, x)
    assert res.grad_norm_sq == 1.0


def test_origin_is_a_fixed_point_with_zero_gradient():
    res = warm_start(QuadraticPotential(6), np.zeros(6))
    assert res.iters_used == 0
    assert res.grad_norm_sq == 0.0


def test_quadratic_boundary_point_needs_no_iterations():
    # |grad U(ones)|^2 = d meets the threshold alpha_u * d = d exactly
    res = warm_start(QuadraticPotential(10), np.ones(10))
    assert res.iters_used == 0
    assert res.grad_norm_sq == 10.0


def test_quadratic_descent_reaches_the_minimum_in_one_iteration():
    # the step 1/l_u = 1 takes x - grad U(x) = x - x to the origin
    res = warm_start(QuadraticPotential(3), np.array([100.0, -250.0, 40.0]))
    assert res.iters_used == 1
    np.testing.assert_array_equal(res.x0, np.zeros(3))
    assert res.grad_norm_sq == 0.0


def descend(pot, x, n):
    """n plain descent iterations at step 1/l_u."""
    for _ in range(n):
        x = x - (1.0 / pot.l_u) * pot.grad(x)
    return x


def test_default_step_is_the_inverse_smoothness_constant():
    pot = logistic_potential()
    far = np.full(10, 30.0)
    res = warm_start(pot, far)
    assert res.iters_used > 0
    np.testing.assert_array_equal(res.x0, descend(pot, far, res.iters_used))


def test_logistic_descent_terminates_quickly_inside_the_region():
    pot = logistic_potential()
    res = warm_start(pot, np.full(10, 50.0))
    assert res.grad_norm_sq <= pot.alpha_u * pot.dim
    assert 0 < res.iters_used < 300


def test_descent_never_increases_the_potential():
    pot = logistic_potential()
    x = np.full(10, 50.0)
    step = 1.0 / pot.l_u
    threshold = pot.alpha_u * pot.dim
    values = [pot.eval(x)]
    for _ in range(1000):
        g = pot.grad(x)
        if float(np.dot(g, g)) <= threshold:
            break
        x = x - step * g
        values.append(pot.eval(x))
    for before, after in zip(values, values[1:]):
        assert after <= before + 1e-12 * (1.0 + abs(before))
    res = warm_start(pot, np.full(10, 50.0))
    assert pot.eval(res.x0) == pytest.approx(values[-1], rel=1e-12)


def test_budget_exhaustion_warns_and_returns_the_last_iterate():
    # lam = 1e-4 makes the descent from 1000 crawl: 10,000 iterations do not
    # reach the region
    pot = logistic_potential(d=2, lam=1e-4)
    x_init = np.full(2, 1000.0)
    with pytest.warns(RuntimeWarning, match="warm start"):
        res = warm_start(pot, x_init)
    assert res.iters_used == 10_000
    np.testing.assert_array_equal(res.x0, descend(pot, x_init, 10_000))
    assert res.grad_norm_sq > pot.alpha_u * pot.dim


def test_parameter_validation():
    pot = QuadraticPotential(3)
    with pytest.raises(ValueError, match="shape"):
        warm_start(pot, np.zeros(4))


def test_input_point_is_not_mutated():
    x = np.array([50.0, 50.0])
    warm_start(QuadraticPotential(2), x)
    np.testing.assert_array_equal(x, [50.0, 50.0])


class _Blowup(Potential):
    """A user potential with a steep gradient, 3x, that is NaN outside the
    ball of radius 2.5 (and a claimed l_u = 1 too small for it)."""

    def __init__(self, dim):
        self.dim = dim
        self.alpha_u = self.l_u = 1.0

    def eval(self, x):
        return 1.5 * np.sum(x * x, axis=-1)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return 3.0 * x if np.dot(x, x) <= 6.25 else np.full_like(x, np.nan)


@pytest.mark.parametrize("start, iteration", [
    ([3.0, 0.0], 0),  # NaN at the start point
    ([1.5, 0.0], 1),  # the first step lands at (-3, 0)
])
def test_a_non_finite_gradient_names_its_iteration(start, iteration):
    with pytest.raises(ValueError,
                       match=f"^grad U is not finite at warm-start "
                             f"iteration {iteration}$"):
        warm_start(_Blowup(2), np.array(start))


def test_a_finite_gradient_whose_square_overflows_still_descends():
    # |grad U|^2 = 2e400 overflows to inf, quietly; the gradient itself is
    # finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = warm_start(QuadraticPotential(2), np.full(2, 1e200))
    assert res.iters_used == 1
    np.testing.assert_array_equal(res.x0, np.zeros(2))
