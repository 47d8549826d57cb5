"""Property tests of the Euler engine over random shapes and chunk layouts.

Each property draws the dimension, the level count, the batch width and the
chunk cap (``_CHUNK_STEP_CAP``), so a chunk boundary can fall anywhere in a
level's window.  Examples are derandomized, so a run is reproducible.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlangevin.sde as sde
from mlangevin import (
    LogisticPerturbedPotential,
    NoiseStream,
    PathState,
    QuadraticPotential,
    TuningPlan,
    contraction_probe,
    estimate,
    estimate_repeated,
    euler_step,
    identity_observable,
    logistic_covariate,
    make_langevin_model,
    norm_observable,
)
from mlangevin.estimator import _estimate_batch

PROPERTY = settings(max_examples=15, deadline=None, derandomize=True)

kinds = st.sampled_from(["ou", "logistic"])
dims = st.integers(1, 5)
levels = st.integers(0, 3)
caps = st.integers(1, 40)
seeds = st.integers(0, 2 ** 31)
observables = st.sampled_from([norm_observable, identity_observable])


def make_model(kind, d):
    if kind == "ou":
        return make_langevin_model(QuadraticPotential(d), "auto")
    cov = logistic_covariate(d, 2.0, NoiseStream(7, 0))
    return make_langevin_model(LogisticPerturbedPotential(d, 0.25, cov),
                               "auto")


def make_plan(d, R, t0=16.0):
    return TuningPlan(regime="b2", R=R,
                      gamma=[0.5 * 2.0 ** -r for r in range(R + 1)],
                      horizons=[t0 * 2.0 ** -r for r in range(R + 1)],
                      tau=t0 * 2.0 ** -R / 4.0, r0=1.0, big_t=t0,
                      predicted_complexity=0, feasible=True,
                      tau_clamped=False, dim=d)


@contextlib.contextmanager
def chunk_cap(cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_CHUNK_STEP_CAP", cap)
        yield


def start(d, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, d)


@PROPERTY
@given(kinds, dims, levels, st.integers(1, 4), caps, seeds, observables)
def test_batch_rows_equal_single_runs(kind, d, R, n_runs, cap, seed, obs):
    model, plan, x0 = make_model(kind, d), make_plan(d, R), start(d, seed)
    with chunk_cap(cap):
        rows = estimate_repeated(model, plan, x0, obs(), seed, n_runs)
        for i, row in enumerate(rows):
            alone = _estimate_batch(model, plan, x0, obs(), seed,
                                    run_indices=[i])[0]
            assert row.to_json() == alone.to_json()


def final_states(model, x0, gamma, n_ticks, streams, pair, cap):
    x = np.tile(x0, (len(streams), 1))
    draw = sde._stream_draw(model, streams, gamma, x.shape[1], pair)
    with chunk_cap(cap):
        chunks = list(sde._chains(model, x, gamma, n_ticks, draw,
                                  sde._chunk_steps(*x.shape), pair))
    return chunks[-1][1]


@PROPERTY
@given(kinds, dims, st.booleans(), st.integers(1, 4), caps, caps, seeds)
def test_chunk_layout_changes_no_state_and_only_rounds_window_sums(
        kind, d, pair, n_runs, cap_a, cap_b, seed):
    model, x0 = make_model(kind, d), start(d, seed)
    gamma, tau, t = 0.25, 1.0, 12.0
    streams = lambda: [NoiseStream(seed, 1, run_index=i)
                       for i in range(n_runs)]
    finals = [final_states(model, x0, gamma, 40, streams(), pair, cap)
              for cap in (cap_a, cap_b)]
    for a, b in zip(*finals):
        assert a.tobytes() == b.tobytes()
    kernel = sde._run_coupled_batch if pair else sde._run_level0_batch
    sums = []
    for cap in (cap_a, cap_b):
        with chunk_cap(cap):
            sums.append(kernel(model, np.tile(x0, (n_runs, 1)), gamma, tau,
                               t, norm_observable(), streams())[0])
    # values are O(1), so 1e-15 is a few units of float rounding
    np.testing.assert_allclose(sums[0], sums[1], rtol=1e-15, atol=1e-15)


@PROPERTY
@given(kinds, dims, levels, caps, seeds, observables)
def test_estimate_is_the_left_to_right_sum_of_its_levels(
        kind, d, R, cap, seed, obs):
    with chunk_cap(cap):
        out = estimate(make_model(kind, d), make_plan(d, R), start(d, seed),
                       obs(), seed)
    total = out.level_contributions[0]
    for c in out.level_contributions[1:]:
        total = total + c
    assert np.asarray(total).tobytes() == np.asarray(out.estimate).tobytes()


@PROPERTY
@given(kinds, dims, st.integers(1, 60), st.floats(0.05, 1.0), caps, seeds)
def test_contraction_probe_equals_an_euler_step_loop(
        kind, d, n_steps, fraction, cap, seed):
    model = make_model(kind, d)
    gamma = fraction * model.alpha_eff / (2.0 * model.l_eff ** 2)
    x, y = start(d, seed), start(d, seed + 1)
    with chunk_cap(cap):
        distances = contraction_probe(model, x, y, gamma, n_steps, seed=seed)
    stream = NoiseStream(seed, 0)
    sx, sy = PathState(x, 0, gamma), PathState(y, 0, gamma)
    expected = [float(np.linalg.norm(sx.position - sy.position))]
    for _ in range(n_steps):
        g = stream.standard_normal(d)
        sx, sy = euler_step(model, sx, g), euler_step(model, sy, g)
        expected.append(float(np.linalg.norm(sx.position - sy.position)))
    assert distances == expected
