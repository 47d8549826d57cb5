"""Property tests of the Euler engine over random shapes and chunk layouts.

Each property draws the dimension, the level count, the batch width and the
chunk cap (``_CHUNK_STEP_CAP``), so a chunk boundary can fall anywhere in a
level's window or next to a failing step; the fused-level property also
draws the horizons and the fusion cap (``_FUSE_ROW_CAP``).  Examples are
derandomized, so a run is reproducible.  The last test checks that every
entry point rejects a bad start point before any step.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlangevin.sde as sde
from mlangevin import (
    LogisticPerturbedPotential,
    NoiseStream,
    NumericalFailureError,
    PathState,
    QuadraticPotential,
    TuningPlan,
    confluence_probe,
    contraction_probe,
    estimate,
    estimate_repeated,
    euler_step,
    identity_observable,
    logistic_covariate,
    make_langevin_model,
    norm_observable,
    run_coupled_level,
    run_level0,
    warm_start,
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


def make_plan(d, R, t0=16.0, tau_share=0.25):
    """Hand-built plan whose burn-in is ``tau_share`` of the last horizon
    (clamped when the share exceeds 1/2)."""
    return TuningPlan(regime="b2", gamma0=0.5,
                      horizons=[t0 * 2.0 ** -r for r in range(R + 1)],
                      tau=t0 * 2.0 ** -R * tau_share, r0=1.0, big_t=t0, dim=d)


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


def trajectory(model, x0, gamma, last, streams, pair, cap):
    """Every state of one level run alone, by grid index: (last + 1, B, d)
    for a chain, (last + 1, 2B, d) for a pair, its coarse rows first."""
    states = []

    def visit(engine, level, lo, hi):  # a copy: the engine reuses buffers
        states.append(np.array(engine.states(level, lo, hi)))

    level = sde._Level(gamma, last, pair,
                       sde._stream_normals(streams, len(x0)))
    with chunk_cap(cap):
        sde._drive(model, x0, [level], range(len(streams)), visit)
    return np.concatenate(states)


@PROPERTY
@given(kinds, dims, st.booleans(), st.integers(1, 4), caps, caps, seeds)
def test_chunk_layout_changes_no_state_and_only_rounds_window_sums(
        kind, d, pair, n_runs, cap_a, cap_b, seed):
    model, x0 = make_model(kind, d), start(d, seed)
    gamma, tau, t = 0.25, 1.0, 12.0
    streams = lambda: [NoiseStream(seed, 1, run_index=i)
                       for i in range(n_runs)]
    paths = [trajectory(model, x0, gamma, 40, streams(), pair, cap)
             for cap in (cap_a, cap_b)]
    assert paths[0].shape == (41, (2 if pair else 1) * n_runs, d)
    assert paths[0].tobytes() == paths[1].tobytes()
    kernel = sde._run_coupled_batch if pair else sde._run_level0_batch
    sums = []
    for cap in (cap_a, cap_b):
        with chunk_cap(cap):
            sums.append(kernel(model, np.tile(x0, (n_runs, 1)), gamma, tau,
                               t, norm_observable(), streams())[0])
    # values are O(1), so 1e-15 is a few units of float rounding
    np.testing.assert_allclose(sums[0], sums[1], rtol=1e-15, atol=1e-15)


def window_reference(model, x0, gamma, tau, t, f, stream, chunk, pair):
    """One run's window average from euler_step loops: a chain at step
    gamma, or fine/coarse chains whose values f(fine) - f(coarse) are read
    on the coarse grid.

    The values are summed in the engine's layout: a pairwise sum per block
    of ``chunk`` grid indices, the final index alone, and a compensated
    merge across those sums.
    """
    grid = 2 * gamma if pair else gamma
    k0, k1 = sde.n_gamma(tau, grid), sde.n_gamma(t, grid)
    fine, coarse = PathState(x0, 0, gamma), PathState(x0, 0, 2 * gamma)
    values = []
    for k in range(k1):
        value = f(fine.position[None])[0]
        values.append(value - f(coarse.position[None])[0] if pair else value)
        if k == k1 - 1:
            break
        if not pair:
            fine = euler_step(model, fine, stream.standard_normal(len(x0)))
            continue
        g = stream.standard_normal((2, len(x0)))
        fine = euler_step(model, fine, g[0])
        fine = euler_step(model, fine, g[1])
        coarse = euler_step(model, coarse,
                            (g[0] + g[1]) * (1.0 / math.sqrt(2.0)))
    values = np.array(values)
    acc = sde._CompensatedSum(values.shape[1:])
    edges = [*range(0, k1 - 1, chunk), k1 - 1, k1]
    for a, b in zip(edges, edges[1:]):
        if max(a, k0) < b:
            block = values[max(a, k0):b]
            acc.add(np.add.reduce(
                np.ascontiguousarray(np.moveaxis(block, 0, -1)), axis=-1))
    return acc.total() / (k1 - k0)


def check_window_average(kind, d, pair, n_runs, cap, seed, obs):
    model, x0 = make_model(kind, d), start(d, seed)
    gamma, tau, t = 0.25, 1.5, 12.0
    streams = [NoiseStream(seed, 1, run_index=i) for i in range(n_runs)]
    kernel = sde._run_coupled_batch if pair else sde._run_level0_batch
    with chunk_cap(cap):
        avg, _ = kernel(model, x0, gamma, tau, t, obs(), streams)
    for i in range(n_runs):
        # at these sizes the cap binds: a chunk is ``cap`` ticks
        expected = window_reference(model, x0, gamma, tau, t, obs(),
                                    NoiseStream(seed, 1, run_index=i), cap,
                                    pair)
        assert avg[i].tobytes() == expected.tobytes()


@PROPERTY
@given(kinds, dims, st.integers(1, 4), caps, seeds, observables)
def test_coupled_window_average_equals_an_euler_step_loop(
        kind, d, n_runs, cap, seed, obs):
    check_window_average(kind, d, True, n_runs, cap, seed, obs)


@PROPERTY
@given(kinds, dims, st.integers(1, 4), caps, seeds, observables)
def test_level0_window_average_equals_an_euler_step_loop(
        kind, d, n_runs, cap, seed, obs):
    # a chunk of ``cap`` ticks is two blocks of ``cap`` steps of a chain
    check_window_average(kind, d, False, n_runs, cap, seed, obs)


def fused_plan(d, ratios, tau_share):
    """Hand-built plan whose horizons fall from 12 by ``ratios``, so level 0
    or a coupled level may last longest and the levels' tick counts come in
    any order."""
    horizons = [12.0]
    for ratio in ratios:
        horizons.append(horizons[-1] * ratio)
    return TuningPlan(regime="b2", gamma0=0.5, horizons=horizons,
                      tau=horizons[-1] * tau_share, r0=1.0, big_t=12.0, dim=d)


@settings(PROPERTY, max_examples=40)
@given(kinds, dims, st.lists(st.floats(0.45, 0.99), max_size=5),
       st.integers(1, 4), caps, st.sampled_from([1, 16, 256]),
       st.sampled_from([0.0, 0.25, 0.5]), seeds, observables)
def test_fused_levels_equal_their_standalone_runs(
        kind, d, ratios, n_runs, cap, fuse, tau_share, seed, obs):
    # one tick loop runs every level here (at most 44 rows) unless the fuse
    # cap splits them; while the chunk cap binds, grouping changes no bit
    model, x0 = make_model(kind, d), start(d, seed)
    plan = fused_plan(d, ratios, tau_share)
    with chunk_cap(cap), pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_FUSE_ROW_CAP", fuse)
        runs = estimate_repeated(model, plan, x0, obs(), seed, n_runs)
        for r in range(plan.R + 1):
            kernel = run_level0 if r == 0 else run_coupled_level
            for i, out in enumerate(runs):
                alone, steps = kernel(model, x0, plan.gamma[r],
                                      plan.tau_effective, plan.horizons[r],
                                      obs(), NoiseStream(seed, r, i))
                assert np.asarray(alone).tobytes() == np.asarray(
                    out.level_contributions[r]).tobytes()
                assert steps == out.level_iterations[r]


@PROPERTY
@given(kinds, dims, levels, caps, seeds, observables,
       st.sampled_from([0.25, 0.5, 0.75]))
def test_estimate_is_the_left_to_right_sum_of_its_levels(
        kind, d, R, cap, seed, obs, tau_share):
    plan = make_plan(d, R, tau_share=tau_share)
    with chunk_cap(cap):
        out = estimate(make_model(kind, d), plan, start(d, seed), obs(), seed)
    total = out.level_contributions[0]
    for c in out.level_contributions[1:]:
        total = total + c
    assert np.asarray(total).tobytes() == np.asarray(out.estimate).tobytes()
    # a hand-built plan reports the cost and feasibility of what ran
    assert out.total_complexity == plan.predicted_complexity
    assert out.to_dict()["plan_echo"]["predicted_complexity"] \
        == out.total_complexity
    assert plan.feasible == (plan.tau <= plan.horizons[-1] / 2)
    assert bool(out.warnings) == plan.tau_clamped


@PROPERTY
@given(kinds, dims, levels, st.integers(1, 4), caps, seeds)
def test_scalar_and_vector_values_share_one_reduction(
        kind, d, R, n_runs, cap, seed):
    # the scalar x[..., 0] and coordinate 0 of the identity take the same
    # window sums and the same compensated merge, so they agree bit for bit
    model, plan, x0 = make_model(kind, d), make_plan(d, R), start(d, seed)
    with chunk_cap(cap):
        scalar = estimate_repeated(model, plan, x0, lambda x: x[..., 0],
                                   seed, n_runs)
        vector = estimate_repeated(model, plan, x0, identity_observable(),
                                   seed, n_runs)
    for s, v in zip(scalar, vector):
        for cs, cv in zip(s.level_contributions, v.level_contributions):
            assert isinstance(cs, float) and cv.shape == (d,)
            assert np.float64(cs).tobytes() == cv[0].tobytes()


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


class Expanding:
    """Duck-typed model with drift b(x) = x: a step-gamma chain grows like
    (1 + gamma)^n, so a row started near the float limit blows up first."""

    noise_scale = 1.0

    def __init__(self, d):
        self.dim = d

    def advance(self, x, step):
        x += step * x


def raised(run, cap):
    with chunk_cap(cap), pytest.raises(NumericalFailureError) as exc:
        run()
    return str(exc.value), exc.value.step_index, exc.value.run_index


@PROPERTY
@given(dims, st.integers(1, 4), st.data(), st.integers(250, 307),
       st.booleans(), caps, seeds)
def test_failure_location_is_chunk_layout_invariant(
        d, n_rows, data, exponent, pair, cap, seed):
    # the far row needs at most 329 fine steps to pass 1e308; the rows
    # started at ones stay below 1e80 over the horizon
    row = data.draw(st.integers(0, n_rows - 1))
    model, gamma = Expanding(d), 0.5
    x0 = np.ones((n_rows, d))
    x0[row] = 10.0 ** exponent
    kernel = sde._run_coupled_batch if pair else sde._run_level0_batch

    def run():
        streams = [NoiseStream(seed, 1, run_index=i) for i in range(n_rows)]
        kernel(model, x0.copy(), gamma, 1.0, 200.0, identity_observable(),
               streams)

    expected = raised(run, sde._CHUNK_STEP_CAP)
    assert expected[2] == row
    # caps 1 and 2 put the failing step on a chunk's first and last tick
    for c in (1, 2, cap):
        assert raised(run, c) == expected
    if not pair:
        stream = NoiseStream(seed, 1, run_index=row)
        state = PathState(x0[row], 0, gamma)
        with pytest.raises(NumericalFailureError) as exc:
            while True:
                state = euler_step(model, state, stream.standard_normal(d))
        assert exc.value.step_index == expected[1]


class StepGrowth:
    """Duck-typed model whose map x <- (1 + 1/(4 step)) x grows faster at a
    smaller step, so a higher level outgrows level 0 per tick."""

    noise_scale = 1.0

    def __init__(self, d):
        self.dim = d

    def advance(self, x, step):
        x *= 1.0 + 0.25 / step


@pytest.mark.parametrize("cap", [sde._CHUNK_STEP_CAP, 7, 2, 1])
def test_lowest_failing_level_wins_over_an_earlier_tick(cap):
    model, x0 = StepGrowth(2), np.full(2, 1e300)
    plan = TuningPlan(regime="b2", gamma0=4.0, horizons=[2000.0, 1000.0,
                                                         500.0],
                      tau=4.0, r0=1.0, big_t=2000.0, dim=2)
    obs = identity_observable()
    with chunk_cap(cap):
        alone = {}
        for r in range(3):
            kernel = run_level0 if r == 0 else run_coupled_level
            alone[r] = raised(lambda: kernel(
                model, x0, plan.gamma[r], plan.tau_effective,
                plan.horizons[r], obs, NoiseStream(1, r, 7)), cap)
        # level 2 fails first in ticks (two steps of level 0 per tick)
        assert alone[2][1] < alone[1][1] < alone[0][1] / 2
        with pytest.raises(NumericalFailureError) as exc:
            _estimate_batch(model, plan, x0, obs, 1, run_indices=[7, 5])
    message, step, run = alone[0]
    assert exc.value.level_index == 0
    assert (exc.value.step_index, exc.value.run_index) == (step, run) \
        == (step, 7)
    assert str(exc.value) == f"level 0: {message}"
    assert message.startswith(f"non-finite position at step {step} (run 7, "
                              "gamma=4.0)")


OU2 = make_langevin_model(QuadraticPotential(2), "auto")
ENTRY_POINTS = {
    "run_level0": lambda x: run_level0(
        OU2, x, 0.5, 0.0, 2.0, norm_observable(), NoiseStream(0, 0)),
    "run_coupled_level": lambda x: run_coupled_level(
        OU2, x, 0.25, 0.0, 2.0, norm_observable(), NoiseStream(0, 1)),
    "contraction_probe": lambda x: contraction_probe(
        OU2, x, np.zeros(2), 0.25, 5),
    "confluence_probe": lambda x: confluence_probe(
        OU2, 0.25, 1.0, 200, x0=x),
    "estimate": lambda x: estimate(
        OU2, make_plan(2, 1), x, norm_observable(), 0),
    "warm_start": lambda x: warm_start(OU2.potential, x),
}
BAD_STARTS = {"nan": [np.nan, 0.0], "inf": [0.0, np.inf],
              "dim3": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("bad", BAD_STARTS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_bad_start_point_is_a_one_line_value_error(entry, bad):
    with pytest.raises(ValueError, match="start point|x0|x_init") as exc:
        ENTRY_POINTS[entry](np.array(BAD_STARTS[bad]))
    assert type(exc.value) is ValueError
    assert "\n" not in str(exc.value)
