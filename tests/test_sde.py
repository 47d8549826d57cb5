import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlangevin import (
    NoiseStream,
    NumericalFailureError,
    PathState,
    QuadraticPotential,
    euler_step,
    make_langevin_model,
    n_gamma,
    norm_observable,
    identity_observable,
    run_coupled_level,
    run_level0,
)
import mlangevin.sde as sde
from mlangevin.sde import _run_level0_batch, _run_coupled_batch

OU3 = make_langevin_model(QuadraticPotential(3), "auto")


class _ZeroNoiseOU:
    """Duck-typed OU model, b(x) = -x, with the noise switched off: it
    isolates the deterministic drift recursion."""

    noise_scale = 0.0
    alpha_eff = 1.0
    l_eff = 1.0

    def __init__(self, dim):
        self.dim = dim

    def advance(self, x, step):
        x -= step * x


# ---------------------------------------------------------------- NoiseStream


def test_noise_stream_is_deterministic_per_key():
    a = NoiseStream(42, 3, run_index=5).standard_normal(8)
    b = NoiseStream(42, 3, run_index=5).standard_normal(8)
    np.testing.assert_array_equal(a, b)


def test_noise_stream_chunking_does_not_change_the_sequence():
    whole = NoiseStream(7, 0).standard_normal(24)
    st = NoiseStream(7, 0)
    parts = np.concatenate([st.standard_normal(5), st.standard_normal(19)])
    np.testing.assert_array_equal(whole, parts)
    shaped = NoiseStream(7, 0).standard_normal((4, 6))
    np.testing.assert_array_equal(whole, shaped.ravel())


def test_noise_stream_keys_are_distinct_across_levels_and_runs():
    base = NoiseStream(1, 0, run_index=0).standard_normal(4)
    for level, run in ((1, 0), (0, 1), (1, 1), (2, 7)):
        other = NoiseStream(1, level, run_index=run).standard_normal(4)
        assert not np.array_equal(base, other)


def test_noise_stream_seed_reduced_mod_2_to_64():
    a = NoiseStream(5, 0).standard_normal(4)
    b = NoiseStream((1 << 64) + 5, 0).standard_normal(4)
    np.testing.assert_array_equal(a, b)


def test_noise_stream_index_bounds():
    NoiseStream(0, (1 << 20) - 1, run_index=(1 << 44) - 1)
    with pytest.raises(ValueError):
        NoiseStream(0, 1 << 20)
    with pytest.raises(ValueError):
        NoiseStream(0, -1)
    with pytest.raises(ValueError):
        NoiseStream(0, 0, run_index=1 << 44)
    with pytest.raises(ValueError):
        NoiseStream(0, 0, run_index=-1)


# ----------------------------------------------------------------- euler_step


def test_euler_step_drift_only_halves_the_state():
    state = PathState(np.ones(3), 0, 0.5)
    out = euler_step(OU3, state, np.zeros(3))
    np.testing.assert_array_equal(out.position, 0.5 * np.ones(3))
    assert out.steps_taken == 1
    assert out.step_size == 0.5


def test_euler_step_applies_scaled_gaussian():
    g = np.array([1.0, -2.0, 0.5])
    state = PathState(np.zeros(3), 4, 0.5)
    out = euler_step(OU3, state, g)
    np.testing.assert_array_equal(out.position,
                                  OU3.noise_scale * math.sqrt(0.5) * g)
    assert out.steps_taken == 5


def test_euler_step_shape_mismatch():
    with pytest.raises(ValueError):
        euler_step(OU3, PathState(np.zeros(3), 0, 0.5), np.zeros(4))


@pytest.mark.parametrize("step", [-1.0, 0.0, math.nan, math.inf])
def test_euler_step_rejects_a_bad_step_size(step):
    with pytest.raises(ValueError) as err:
        euler_step(OU3, PathState(np.zeros(3), 0, step), np.zeros(3))
    assert type(err.value) is ValueError
    assert str(err.value) == (
        f"step_size must be finite and positive, got {step}")


def test_euler_step_rejects_nonfinite_result():
    g = np.array([np.inf, 0.0, 0.0])
    with pytest.raises(NumericalFailureError) as err:
        euler_step(OU3, PathState(np.zeros(3), 7, 0.5), g)
    assert err.value.step_index == 8


# -------------------------------------------------------------------- n_gamma


def test_n_gamma_basic_values():
    assert n_gamma(5.0, 0.5) == 10
    assert n_gamma(4.999, 0.5) == 9
    assert n_gamma(0.0, 0.5) == 0
    assert n_gamma(0.49, 0.5) == 0


def test_n_gamma_absorbs_float_division_noise():
    # horizons built from eps**-2 land just below exact multiples
    t0 = 10.0 * 0.1 ** -2  # 999.9999999999999
    assert n_gamma(t0, 0.5) == 2000


def test_n_gamma_validation():
    with pytest.raises(ValueError):
        n_gamma(1.0, 0.0)
    for t in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite"):
            n_gamma(t, 0.5)


def test_n_gamma_counts_large_quotients_exactly():
    # a relative guard of 1e-9 once added whole steps beyond t/gamma ~ 1e9
    assert n_gamma(1658880000.0, 0.5) == 3_317_760_000
    assert n_gamma(1e8 - 0.05, 1.0) == 99_999_999


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(0.0, 1e15), st.floats(1e-6, 1e3))
def test_n_gamma_is_the_last_grid_point_up_to_a_few_ulps(t, gamma):
    k = n_gamma(t, gamma)
    # exact arithmetic: k*gamma <= t, up to the guard's four ulps of t/gamma
    slack = Fraction(1, 2 ** 49)
    assert k * Fraction(gamma) <= Fraction(t) * (1 + slack) + gamma * slack
    assert (k + 1) * Fraction(gamma) > Fraction(t)


@pytest.mark.parametrize("t, gamma, message", [
    (1.0, math.nan, "gamma must be finite and positive, got nan"),
    (1.0, math.inf, "gamma must be finite and positive, got inf"),
    (1.0, -0.5, "gamma must be finite and positive, got -0.5"),
    (10.0, 1e-320, "t/gamma must be finite, got t=10.0 and gamma=1e-320"),
    (1e300, 1e-10, "t/gamma must be finite, got t=1e+300 and gamma=1e-10"),
], ids=["gamma-nan", "gamma-inf", "gamma-negative", "gamma-subnormal",
        "quotient-overflow"])
def test_n_gamma_rejects_a_grid_it_cannot_count(t, gamma, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        n_gamma(t, gamma)


@pytest.mark.parametrize("gamma", [math.nan, 1e-320, -0.5],
                         ids=["nan", "subnormal", "negative"])
@pytest.mark.parametrize("run", [run_level0, run_coupled_level])
def test_a_level_rejects_a_step_it_cannot_count(run, gamma):
    with pytest.raises(ValueError, match=r"^(t/)?gamma must be finite"):
        run(OU3, np.zeros(3), gamma, 1.0, 10.0, norm_observable(),
            NoiseStream(0, 0))


# ------------------------------------------------------------------ run_level0


def test_level0_window_with_horizon_equal_to_step_returns_f_x0():
    x0 = np.array([3.0, -4.0, 0.0])
    avg, iters = run_level0(OU3, x0, 0.5, 0.0, 0.5, norm_observable(),
                            NoiseStream(0, 0))
    assert iters == 1
    assert avg == 5.0


def test_level0_final_state_matches_sequential_euler_steps_bitwise():
    gamma, t0 = 0.5, 10.0
    x0 = np.array([1.0, 2.0, -1.0])
    # tau = t0 - gamma makes the averaging window the single final index,
    # so with the identity observable the kernel returns the final state
    avg, iters = run_level0(OU3, x0, gamma, t0 - gamma, t0,
                            identity_observable(), NoiseStream(2024, 0))
    assert iters == 20
    stream = NoiseStream(2024, 0)
    state = PathState(x0, 0, gamma)
    for _ in range(19):
        state = euler_step(OU3, state, stream.standard_normal(3))
    np.testing.assert_array_equal(avg, state.position)


def test_level0_window_average_matches_sequential_replay():
    gamma, tau, t0 = 0.5, 1.0, 10.0
    x0 = np.zeros(3)
    avg, iters = run_level0(OU3, x0, gamma, tau, t0, norm_observable(),
                            NoiseStream(5, 0))
    assert iters == 20
    stream = NoiseStream(5, 0)
    state = PathState(x0, 0, gamma)
    values = [np.linalg.norm(state.position)]
    for _ in range(19):
        state = euler_step(OU3, state, stream.standard_normal(3))
        values.append(np.linalg.norm(state.position))
    expected = math.fsum(values[2:20]) / 18  # window k in [n(1.0), 19]
    assert avg == pytest.approx(expected, rel=5e-14)


def test_level0_spans_chunks_consistently(monkeypatch):
    x0 = np.zeros(2)
    model = make_langevin_model(QuadraticPotential(2), "auto")
    args = (model, x0, 0.5, 3.0, 2500.0, norm_observable())
    default, iters = run_level0(*args, NoiseStream(9, 0))
    assert iters == 5000  # crosses the 4096-step chunk cap
    monkeypatch.setattr(sde, "_CHUNK_STEP_CAP", 777)
    rechunked, _ = run_level0(*args, NoiseStream(9, 0))
    # same draws, same trajectory; only the summation grouping changes
    assert rechunked == pytest.approx(default, rel=1e-13)


def test_level0_batch_rows_match_independent_single_runs_bitwise():
    streams = [NoiseStream(77, 0, run_index=i) for i in range(3)]
    x0 = np.tile(np.array([1.0, -1.0]), (3, 1))
    model = make_langevin_model(QuadraticPotential(2), "auto")
    batch_avg, iters = _run_level0_batch(model, x0, 0.5, 2.0, 40.0,
                                         norm_observable(), streams)
    for i in range(3):
        single, single_iters = run_level0(
            model, np.array([1.0, -1.0]), 0.5, 2.0, 40.0, norm_observable(),
            NoiseStream(77, 0, run_index=i))
        assert single_iters == iters
        assert batch_avg[i] == single


def test_level0_accepts_bare_callables():
    avg, _ = run_level0(OU3, np.ones(3), 0.5, 0.0, 0.5,
                        lambda x: x[..., 0], NoiseStream(0, 0))
    assert avg == 1.0


def test_level0_window_validation():
    f = norm_observable()
    with pytest.raises(ValueError):
        run_level0(OU3, np.zeros(3), 0.5, 5.0, 5.0, f, NoiseStream(0, 0))
    with pytest.raises(ValueError):
        run_level0(OU3, np.zeros(3), 0.5, 0.0, 0.4, f, NoiseStream(0, 0))
    with pytest.raises(ValueError):
        run_level0(OU3, np.zeros(3), -0.5, 0.0, 5.0, f, NoiseStream(0, 0))
    with pytest.raises(ValueError):
        run_level0(OU3, np.zeros(4), 0.5, 0.0, 5.0, f, NoiseStream(0, 0))


def test_level0_names_the_blowup_step():
    model = make_langevin_model(QuadraticPotential(2), 1.0)
    x0 = np.full(2, 1e308)
    # gamma=3 gives |x| <- 2|x| per step: 2e308 overflows at step 1, and
    # the observable stays finite at step 0
    with pytest.raises(NumericalFailureError) as err:
        run_level0(model, x0, 3.0, 0.0, 30.0, lambda x: x[..., 0],
                   NoiseStream(0, 0))
    assert err.value.step_index == 1
    assert err.value.run_index == 0


def test_level0_rejects_observable_overflow():
    # positions stay finite while |x|^2 overflows: must fail loudly, not
    # average NaNs
    model = make_langevin_model(QuadraticPotential(1), 1.0)
    x0 = np.array([1e200])
    f = lambda x: x[..., 0] ** 2
    with pytest.raises(NumericalFailureError) as err:
        run_level0(model, x0, 3.0, 0.0, 30.0, f, NoiseStream(0, 0))
    assert err.value.step_index == 0  # f(x0) already overflows


class _Doubling:
    """Duck-typed model with drift b(x) = x and no noise: x doubles per
    step at gamma = 1."""

    dim = 2
    noise_scale = 0.0

    def advance(self, x, step):
        x += step * x


@pytest.mark.parametrize("cap", [sde._CHUNK_STEP_CAP, 7, 1])
def test_earliest_failure_wins_whatever_the_chunk_layout(monkeypatch, cap):
    # |x|^2 = 2e300 * 4^k overflows inside np.linalg.norm at step 14, long
    # before the position 1e150 * 2^k does at step 526
    monkeypatch.setattr(sde, "_CHUNK_STEP_CAP", cap)
    with pytest.raises(NumericalFailureError) as err:
        run_level0(_Doubling(), np.full(2, 1e150), 1.0, 0.0, 1000.0,
                   lambda x: np.linalg.norm(x, axis=-1), NoiseStream(0, 0))
    assert err.value.step_index == 14
    assert str(err.value).startswith(
        "non-finite observable value at step 14 (run 0)")


# ----------------------------------------------------------- run_coupled_level


def test_coupled_final_difference_matches_sequential_euler_steps_bitwise():
    gamma_f, t = 0.25, 8.0
    gamma_c = 2 * gamma_f
    x0 = np.array([1.0, 2.0, -1.0])
    avg, iters = run_coupled_level(OU3, x0, gamma_f, t - gamma_c, t,
                                   identity_observable(), NoiseStream(31, 1))
    assert iters == n_gamma(t, gamma_f) + n_gamma(t, gamma_c)

    stream = NoiseStream(31, 1)
    fine = PathState(x0, 0, gamma_f)
    coarse = PathState(x0, 0, gamma_c)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for _ in range(n_gamma(t, gamma_c) - 1):
        g = stream.standard_normal((1, 2, 3))
        fine = euler_step(OU3, fine, g[0, 0])
        fine = euler_step(OU3, fine, g[0, 1])
        coarse = euler_step(OU3, coarse, (g[0, 0] + g[0, 1]) * inv_sqrt2)
    np.testing.assert_array_equal(avg, fine.position - coarse.position)


def test_coupled_increments_ride_the_same_brownian_path():
    # the synthesized coarse increment equals the sum of the two fine
    # Brownian increments up to float rounding
    g = NoiseStream(3, 0).standard_normal((100, 2, 4))
    gamma_f = 0.125
    fine_increments = math.sqrt(gamma_f) * (g[:, 0] + g[:, 1])
    coarse_increments = math.sqrt(2 * gamma_f) * (g[:, 0] + g[:, 1]) / math.sqrt(2)
    np.testing.assert_allclose(coarse_increments, fine_increments, rtol=1e-12)


def test_coupled_zero_noise_gap_matches_closed_form():
    model = _ZeroNoiseOU(4)
    x0 = np.array([2.0, -1.0, 0.5, 1.0])
    gamma_f = 0.125
    gamma_c = 0.25
    # window = the single coarse index k=1: gap = ((1-gf)^2 - (1-gc)) x0
    avg, _ = run_coupled_level(model, x0, gamma_f, gamma_c, 2 * gamma_c,
                               identity_observable(), NoiseStream(0, 0))
    np.testing.assert_allclose(avg, gamma_f ** 2 * x0, rtol=1e-13)


def test_coupled_zero_noise_window_average_matches_recursion():
    model = _ZeroNoiseOU(2)
    x0 = np.array([1.0, -3.0])
    gamma_f, tau, t = 0.125, 0.5, 3.0
    gamma_c = 0.25
    avg, _ = run_coupled_level(model, x0, gamma_f, tau, t,
                               identity_observable(), NoiseStream(0, 0))
    k0, k1 = n_gamma(tau, gamma_c), n_gamma(t, gamma_c)
    gaps = [((1 - gamma_f) ** (2 * k) - (1 - gamma_c) ** k) * x0
            for k in range(k0, k1)]
    np.testing.assert_allclose(avg, np.mean(gaps, axis=0), rtol=1e-12)


def test_coupled_batch_rows_match_independent_single_runs_bitwise():
    model = make_langevin_model(QuadraticPotential(2), "auto")
    streams = [NoiseStream(13, 2, run_index=i) for i in range(3)]
    x0 = np.tile(np.array([0.5, 0.5]), (3, 1))
    batch_avg, iters = _run_coupled_batch(model, x0, 0.25, 1.0, 20.0,
                                          norm_observable(), streams)
    for i in range(3):
        single, single_iters = run_coupled_level(
            model, np.array([0.5, 0.5]), 0.25, 1.0, 20.0, norm_observable(),
            NoiseStream(13, 2, run_index=i))
        assert single_iters == iters
        assert batch_avg[i] == single


def test_coupled_identical_start_has_zero_initial_gap():
    avg, _ = run_coupled_level(OU3, np.ones(3), 0.25, 0.0, 0.5,
                               norm_observable(), NoiseStream(0, 0))
    # window is the single index k=0 where fine and coarse coincide
    assert avg == 0.0


def test_coupled_names_the_blowup_step():
    model = make_langevin_model(QuadraticPotential(2), 1.0)
    x0 = np.full(2, 1e308)
    with pytest.raises(NumericalFailureError) as err:
        run_coupled_level(model, x0, 3.0, 0.0, 60.0, lambda x: x[..., 0],
                          NoiseStream(0, 0))
    assert err.value.step_index == 1
    assert err.value.run_index == 0
