"""Property tests of the Euler engine over random shapes and chunk layouts.

Each property draws the dimension, the level count, the batch width and the
chunk cap (``_CHUNK_STEP_CAP``), so a chunk boundary can fall anywhere in a
level's window or next to a failing step; the estimate-level properties
also draw the horizons, and the budget property draws the chunk's element
budget (``_CHUNK_ELEMENT_TARGET``), so that the level's rows set the chunk.
Every window is summed in grid order, so each of these changes no byte.
Examples are derandomized, so a run is reproducible.  The last test checks
that every entry point rejects a bad start point before any step.
"""

import collections
import contextlib
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mlangevin._kernel as _kernel
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

    def visit(lo, rows):  # a copy: the engine reuses buffers
        states.append(np.array(rows))

    with chunk_cap(cap):
        sde._drive(model, x0, gamma, last, pair, streams,
                   range(len(streams)), visit)
    return np.concatenate(states)


@PROPERTY
@given(kinds, dims, st.booleans(), st.integers(1, 4), caps, caps, seeds)
def test_chunk_layout_changes_no_byte(
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
    assert sums[0].tobytes() == sums[1].tobytes()


class Records:
    """The records the engine's levels visit, each taken as the ``.base``
    of the view that ``visit`` gets: ``last()`` is the calling thread's
    latest, as a level's slices run on threads of their own, and ``reads``
    holds (pair, whether the states were a view) of every visit."""

    def __init__(self):
        self.latest, self.reads = {}, []

    def saw(self, pair, states):
        self.latest[threading.get_ident()] = states.base
        self.reads.append((pair, states.base is not None))

    def last(self):
        return self.latest[threading.get_ident()]


@contextlib.contextmanager
def records():
    """The records the engine's levels visit as they run (``Records``)."""
    seen = Records()
    drive = sde._drive

    def recorded(model, x0, gamma, last, pair, streams, runs, visit,
                 width=None):
        def seen_visit(lo, states):
            seen.saw(pair, states)
            return visit(lo, states)

        return drive(model, x0, gamma, last, pair, streams, runs, seen_visit,
                     width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_drive", recorded)
        yield seen


@pytest.mark.parametrize("pair", [False, True])
@pytest.mark.parametrize("cap", [1, 3, 8, 4096])
def test_a_lone_level_reads_its_states_without_a_copy(pair, cap):
    """A level alone reads its states as views of the engine's record, the
    final one-tick record included: a finite level, the whole record, from
    its start.  The chunks of ticks share one record buffer, which holds
    one state per tick, a chain's B rows or a pair's 2B, whatever the
    parity of the last index."""
    model, x0 = make_model("ou", 3), start(3, 5)

    def visit(lo, states):
        record = seen.last()
        assert states.shape[1] == (4 if pair else 2)
        assert np.shares_memory(states, record)
        assert states.ctypes.data == record.ctypes.data
        reads.append((lo, lo + len(states), record))

    for last in (20, 21):
        reads = []
        streams = [NoiseStream(5, 1, run_index=i) for i in range(2)]
        with chunk_cap(cap), records() as seen:
            sde._drive(model, x0, 0.25, last, pair, streams, range(2), visit)
        # every index once, in order, the last from the final one-tick record
        assert [lo for lo, _, _ in reads] == \
            [0] + [hi for _, hi, _ in reads[:-1]]
        assert [hi - lo for lo, hi, _ in reads[:-1]] == \
            [min(cap, last - lo) for lo, _, _ in reads[:-1]]
        assert reads[-1][:2] == (last, last + 1)
        assert all(record is reads[0][2] for _, _, record in reads[:-1])
        assert reads[-1][2] is not reads[0][2]


@pytest.mark.parametrize("n_streams", [2, 4])
def test_a_level_takes_one_stream_or_one_per_row(n_streams):
    """The engine reads row r's normals at one stride per row, which only
    one stream for all rows or one per row gives; any other count is a
    one-line ValueError before any step."""
    streams = [NoiseStream(5, 1, run_index=i) for i in range(n_streams)]
    with pytest.raises(ValueError, match="one noise stream or one per row"):
        sde._drive(make_model("ou", 3), np.zeros(3), 0.25, 20, False,
                   streams, range(3), lambda lo, states: None)


def test_every_read_of_an_estimate_is_a_view():
    """Each level of an estimate, chains and pairs alike, reads its states
    and hands the observable its points as views of the engine's record."""
    reads = []

    def observable(pts):
        reads.append((None, np.shares_memory(pts, seen.last())))
        return np.linalg.norm(pts, axis=-1)

    model, x0 = make_model("logistic", 3), start(3, 2)
    with chunk_cap(5), records() as seen:
        estimate_repeated(model, make_plan(3, 2), x0, observable, 2, 3)
    reads += seen.reads
    assert {pair for pair, _ in reads} == {False, True, None}
    assert all(view for _, view in reads)


def window_reference(model, x0, gamma, tau, t, f, stream, pair):
    """One run's window average from euler_step loops: a chain at step
    gamma, or fine/coarse chains whose values f(fine) - f(coarse) are read
    on the coarse grid.

    The values are summed one grid index at a time, in order, by a
    Neumaier sum written out here (its branch, where the engine takes the
    same rounding error by TwoSum).
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
    s = c = np.zeros(np.shape(values[0]))
    for v in values[k0:]:
        total = s + v
        c = c + np.where(abs(s) >= abs(v), (s - total) + v, (v - total) + s)
        s = total
    return (s + c) / (k1 - k0)


def check_window_average(kind, d, pair, n_runs, cap, seed, obs):
    model, x0 = make_model(kind, d), start(d, seed)
    gamma, tau, t = 0.25, 1.5, 12.0
    streams = [NoiseStream(seed, 1, run_index=i) for i in range(n_runs)]
    kernel = sde._run_coupled_batch if pair else sde._run_level0_batch
    with chunk_cap(cap):
        avg, _ = kernel(model, x0, gamma, tau, t, obs(), streams)
    for i in range(n_runs):
        expected = window_reference(model, x0, gamma, tau, t, obs(),
                                    NoiseStream(seed, 1, run_index=i), pair)
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
    check_window_average(kind, d, False, n_runs, cap, seed, obs)


def ratio_plan(d, ratios, tau_share):
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
       st.integers(1, 4), caps, st.sampled_from([0.0, 0.25, 0.5]), seeds,
       observables)
def test_fused_levels_equal_their_standalone_runs(
        kind, d, ratios, n_runs, cap, tau_share, seed, obs):
    # every level of an estimate gives the bytes of its standalone call
    model, x0 = make_model(kind, d), start(d, seed)
    plan = ratio_plan(d, ratios, tau_share)
    with chunk_cap(cap):
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


@settings(PROPERTY, max_examples=25)
@given(kinds, dims, st.lists(st.floats(0.45, 0.99), max_size=3),
       st.integers(1, 4), st.integers(1, 3000), seeds, observables)
def test_the_chunk_budget_changes_no_byte(
        kind, d, ratios, n_runs, budget, seed, obs):
    # far below the default budget, the level's rows set the chunk,
    # budget // (3 * rows * d) ticks and at least one (never the 4096-tick
    # cap): a batch and a single run, a chain (B rows) and a pair (2B rows)
    # each tick in chunks of their own length
    model, x0 = make_model(kind, d), start(d, seed)
    plan = ratio_plan(d, ratios, 0.25)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_CHUNK_ELEMENT_TARGET", budget)
        runs = estimate_repeated(model, plan, x0, obs(), seed, n_runs)
        for i, out in enumerate(runs):
            alone = _estimate_batch(model, plan, x0, obs(), seed,
                                    run_indices=[i])[0]
            assert out.to_json() == alone.to_json()
            for r in range(plan.R + 1):
                kernel = run_level0 if r == 0 else run_coupled_level
                level, _ = kernel(model, x0, plan.gamma[r],
                                  plan.tau_effective, plan.horizons[r],
                                  obs(), NoiseStream(seed, r, i))
                assert np.asarray(level).tobytes() == np.asarray(
                    out.level_contributions[r]).tobytes()


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
    # the scalar x[..., 0] and coordinate 0 of the identity add the same
    # values in the same grid order, so they agree bit for bit
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
        # level 2 fails first in ticks (one step of a level's own grid per
        # tick), and level 1 within half of level 0's
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


def test_a_failing_level_0_ends_the_estimate_before_level_1_draws(
        monkeypatch):
    draws = collections.Counter()
    draw = NoiseStream.standard_normal

    def counting_draw(stream, shape=None, out=None):
        draws[stream.level_index] += 1
        return draw(stream, shape, out)

    monkeypatch.setattr(NoiseStream, "standard_normal", counting_draw)
    model, x0 = StepGrowth(2), np.full(2, 1e300)
    plan = TuningPlan(regime="b2", gamma0=4.0, horizons=[2000.0, 1000.0,
                                                         500.0],
                      tau=4.0, r0=1.0, big_t=2000.0, dim=2)
    with pytest.raises(NumericalFailureError) as exc:
        _estimate_batch(model, plan, x0, identity_observable(), 1,
                        run_indices=[7, 5])
    assert exc.value.level_index == 0
    assert list(draws) == [0]


# A quadratic model at sigma0 = 1: a step gamma maps x to (1 - gamma) x and
# adds sqrt(2 gamma) g, in C where the library is built, and the level then
# runs in slices.  At a step of 3 on the level's grid (a chain's 3, a pair's
# coarse 2 * 1.5) a start of 2^e reads exactly -2 times itself per step,
# its noise far below an ulp, so 2^e sets the step at which it overflows;
# a pair's fine rows shrink.  At a step of 1/2 every row stays near zero.
UNIT = make_langevin_model(QuadraticPotential(3), 1.0)


class Tripped(Exception):
    pass


def square_of_second(x):
    """x[:, 1]^2, raising ``Tripped`` once a point's |x[:, 2]| is 2^300."""
    if (np.abs(x[:, 2]) >= 2.0 ** 300).any():
        raise Tripped("a point reached 2^300")
    return x[:, 1] * x[:, 1]


def doubling_starts(positions=(), values=(), trips=()):
    """Seven start rows: each (r, s) turns row r non-finite at step s of
    the level's grid (``positions``), makes ``square_of_second`` non-finite
    on it there (``values``) or makes it raise there (``trips``).  The
    other rows start at zero."""
    x0 = np.zeros((7, 3))
    for col, top, cases in ((0, 1024, positions), (1, 512, values),
                            (2, 300, trips)):
        for row, step in cases:
            x0[row, col] = 2.0 ** (top - step)
    return x0


def doubling_level(pair, x0):
    kernel = sde._run_coupled_batch if pair else sde._run_level0_batch
    # 40 steps of 3 on the level's grid
    return kernel(UNIT, x0, 1.5 if pair else 3.0, 0.0, 120.0,
                  square_of_second, seven_runs())


def on_workers(monkeypatch, n):
    monkeypatch.setattr(sde, "_workers", lambda: n)


def seven_runs():
    # run indices fall as rows rise: a tie goes to the lower row, not run
    return [NoiseStream(3, 1, run_index=20 - row) for row in range(7)]


def raised_on_workers(monkeypatch, level, *args):
    """What ``level(*args)`` raises on one, two and three workers: its type,
    text, step and run, the same on each."""
    seen = []
    for n in (1, 2, 3):
        on_workers(monkeypatch, n)
        with pytest.raises((NumericalFailureError, Tripped)) as exc:
            level(*args)
        seen.append((type(exc.value), str(exc.value),
                     getattr(exc.value, "step_index", None),
                     getattr(exc.value, "run_index", None)))
    assert seen[1] == seen[0] and seen[2] == seen[0]
    return seen[0]


# (positions, values, trips) -> the failing (row, step, kind), kind None
# for f's own error.  One, two and three workers cut the seven rows at [3]
# and [2, 4], so the rows named in each case run in different slices on two
# and three workers.
CROSS_SLICE = {
    "a later slice failing earlier": (([(1, 30), (6, 20)], [], []),
                                      (6, 20, "position")),
    "a position before a value": (([(6, 20)], [(1, 20)], []),
                                  (6, 20, "position")),
    "a value before a position": (([(1, 20)], [(6, 19)], []),
                                  (6, 19, "observable")),
    "the lower row of two positions": (([(2, 20), (5, 20)], [], []),
                                       (2, 20, "position")),
    "the lower row of two values": (([], [(2, 20), (5, 20)], []),
                                    (2, 20, "observable")),
    "an error of f before a later position": (([(6, 20)], [], [(1, 5)]),
                                              (1, 5, None)),
    "an error of f in a later slice": (([(1, 20)], [], [(6, 5)]),
                                       (6, 5, None)),
    "an error of f before a later value": (([], [(1, 20)], [(6, 5)]),
                                           (6, 5, None)),
    "an error of f past a position in its record": (
        ([(1, 20)], [], [(6, 30)]), (1, 20, "position")),
    "an error of f before a position in its record": (
        ([(6, 20)], [], [(1, 10)]), (1, 10, None)),
}


@pytest.mark.parametrize("cap", [sde._CHUNK_STEP_CAP, 4])
@pytest.mark.parametrize("pair", [False, True], ids=["chain", "pair"])
@pytest.mark.parametrize("case", CROSS_SLICE)
def test_a_level_in_slices_raises_its_earliest_failure(
        case, pair, cap, monkeypatch):
    # at a cap of 4 ticks, a slice stops early once another has failed
    starts, (row, step, kind) = CROSS_SLICE[case]
    with chunk_cap(cap):
        error, text, index, run = raised_on_workers(
            monkeypatch, doubling_level, pair, doubling_starts(*starts))
    if kind is None:
        assert error is Tripped
    else:
        assert (error, index, run) == (NumericalFailureError, step, 20 - row)
        assert text.startswith(f"non-finite {kind}")


def test_seven_slices_with_a_short_switch_interval_pick_the_same_failure(
        monkeypatch):
    # every row fails, each in a slice of its own, the earliest in the last
    x0 = doubling_starts(positions=[(row, 30 - row) for row in range(7)],
                         values=[(row, 31 - row) for row in range(7)])
    on_workers(monkeypatch, 1)
    with chunk_cap(4), pytest.raises(NumericalFailureError) as one:
        doubling_level(False, x0)
    on_workers(monkeypatch, 7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            with chunk_cap(4), pytest.raises(NumericalFailureError) as many:
                doubling_level(False, x0)
            assert str(many.value) == str(one.value)
    finally:
        sys.setswitchinterval(interval)
    assert (one.value.step_index, one.value.run_index) == (24, 14)


# up to two (row, step) cases of a kind; a step past the level's 40 never
# comes
failing_rows = st.lists(st.tuples(st.integers(0, 6), st.integers(1, 45)),
                        max_size=2)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(failing_rows, failing_rows, failing_rows, st.booleans(),
       st.sampled_from([4, 7, sde._CHUNK_STEP_CAP]))
def test_a_level_fails_or_succeeds_alike_on_any_core_count(
        positions, values, trips, pair, cap):
    x0 = doubling_starts(positions, values, trips)
    seen = []
    with chunk_cap(cap), pytest.MonkeyPatch.context() as mp:
        for n in (1, 2, 3, 7):
            on_workers(mp, n)
            try:
                seen.append(doubling_level(pair, x0)[0].tobytes())
            except (NumericalFailureError, Tripped) as exc:
                seen.append((type(exc), str(exc)))
    assert seen == [seen[0]] * 4


@pytest.mark.parametrize("pair", [False, True], ids=["chain", "pair"])
def test_a_position_in_a_record_before_fs_error_wins(pair, monkeypatch):
    # records of 4 ticks: the failure at step 5 lies in [4, 8), before the
    # record [20, 24) on which f raises; one engine never evaluates f there
    x0 = doubling_starts(positions=[(6, 5)], trips=[(1, 20)])
    with chunk_cap(4):
        error, _, index, run = raised_on_workers(
            monkeypatch, doubling_level, pair, x0)
    assert (error, index, run) == (NumericalFailureError, 5, 14)


def test_a_numerical_failure_that_f_raises_is_fs_own_error(monkeypatch):
    # a failure that f raises, as a level that f runs would, names a step
    # of its own: a failing sliced level runs again in one engine, whose
    # record [4, 8) raises f's error before the position at step 20
    def f(x):
        try:
            return square_of_second(x)
        except Tripped:
            raise NumericalFailureError("f's own level failed",
                                        10 ** 6) from None

    def level(x0):
        return sde._run_level0_batch(UNIT, x0, 3.0, 0.0, 120.0, f,
                                     seven_runs())

    x0 = doubling_starts(positions=[(1, 20)], trips=[(6, 5)])
    with chunk_cap(4):
        _, text, index, _ = raised_on_workers(monkeypatch, level, x0)
    assert (text, index) == ("f's own level failed", 10 ** 6)


def banded(raise_error):
    """x[:, 1]^2, except on a point with 2^890 <= |x[:, 2]| <= 2^895: there
    it raises ``Tripped``, or gives inf."""
    def f(x):
        size = np.abs(x[:, 2])
        band = (size >= 2.0 ** 890) & (size <= 2.0 ** 895)
        if raise_error and band.any():
            raise Tripped("a point entered the band")
        return np.where(band, np.inf, x[:, 1] * x[:, 1])
    return f


@pytest.mark.parametrize("raise_error", [False, True], ids=["value", "error"])
def test_a_failing_slice_ends_the_others_past_its_step(
        raise_error, monkeypatch):
    draws = collections.Counter()
    draw = NoiseStream.standard_normal

    def counting_draw(stream, shape=None, out=None):
        draws[stream.run_index] += 1
        return draw(stream, shape, out)

    monkeypatch.setattr(NoiseStream, "standard_normal", counting_draw)
    on_workers(monkeypatch, 2)
    # at a step of 1/2, run 19's |x[:, 2]| = 2^(900 - k) enters the band at
    # step 5, in the record [4, 8); every other row stays near zero
    x0 = np.zeros((7, 3))
    x0[1, 2] = 2.0 ** 900
    with chunk_cap(4), pytest.raises(
            Tripped if raise_error else NumericalFailureError):
        sde._run_level0_batch(UNIT, x0, 0.5, 0.0, 20000.0,
                              banded(raise_error), seven_runs())
    # run 19's slice drew two of the level's 10,000 chunks, and the run
    # again in one engine, where the level ticks in C, two more; the other
    # slice, runs 17..14, ends at its next record
    assert draws[19] == (2 + 2 if sde._row_map(UNIT) is not None else 2)
    assert max(draws[run] for run in (17, 16, 15, 14)) < 5000


def trips_above(x):
    """x[:, 0], raising ``Tripped`` with the first point whose x[:, 0]
    passes 3.2, to the last bit: it depends on every normal before it."""
    hit = np.flatnonzero(x[:, 0] > 3.2)
    if len(hit):
        raise Tripped(repr(x[hit[0]].tolist()))
    return x[:, 0]


@pytest.mark.parametrize("before", ["none", "in C", "by numpy"])
def test_a_noise_driven_failure_reads_the_same_on_any_core_count(
        before, monkeypatch):
    # the run again in one engine must draw the normals that the sliced
    # pass drew, from the state each stream held when the level began:
    # fresh, or after a few draws, held in its words or by numpy's
    # Generator
    def level():
        streams = [NoiseStream(0, 0, run_index=run) for run in range(6)]
        if before != "none":
            with monkeypatch.context() as mp:
                if before == "by numpy":
                    mp.setattr(_kernel, "_lib", None)
                for run, stream in enumerate(streams):
                    stream.standard_normal(run + 1)
        return sde._run_level0_batch(UNIT, np.zeros(3), 0.05, 0.0, 400.0,
                                     trips_above, streams)

    error, text, _, _ = raised_on_workers(monkeypatch, level)
    assert error is Tripped and float(text[1:].split(",")[0]) > 3.2


def test_an_f_that_fails_only_in_slices_gets_the_run_in_one_engine(
        monkeypatch):
    # f is impure here: it raises on its first call only, so a sliced
    # level returns the averages of its run again in one engine
    def level(f):
        return sde._run_level0_batch(UNIT, np.zeros(3), 0.5, 0.0, 20.0, f,
                                     seven_runs())[0]

    on_workers(monkeypatch, 1)
    expected = level(square_of_second)
    tripped = threading.Event()

    def once(x):
        if not tripped.is_set():
            tripped.set()
            raise Tripped("the first call")
        return square_of_second(x)

    on_workers(monkeypatch, 3)
    if sde._row_map(UNIT) is None:  # one slice: nothing runs again
        with pytest.raises(Tripped):
            level(once)
    else:
        assert level(once).tobytes() == expected.tobytes()


class OwnAdvance:
    """A model with its own map, as ``UNIT``'s: it ticks in Python."""

    noise_scale, dim = UNIT.noise_scale, UNIT.dim
    advance = UNIT.advance


def test_only_a_level_that_ticks_in_c_runs_in_slices(monkeypatch):
    counts = []
    run_slices = sde._run_slices

    def counted(jobs):
        counts.append(len(jobs))
        return run_slices(jobs)

    monkeypatch.setattr(sde, "_run_slices", counted)
    on_workers(monkeypatch, 3)
    for model in (UNIT, OwnAdvance()):
        sde._run_level0_batch(model, np.zeros(3), 0.5, 0.0, 10.0,
                              norm_observable(), seven_runs())
    # a level of one slice runs its engine without _run_slices
    assert counts == ([3] if _kernel.lib() is not None else [])


@pytest.mark.parametrize("pair", [False, True], ids=["chain", "pair"])
@pytest.mark.parametrize("f", [lambda x: x[0],
                               lambda x: x[..., None] * np.ones(2),
                               lambda x: x.T],
                         ids=["pointwise", "matrix", "transposed"])
def test_an_observables_shape_error_reads_the_same_in_slices(
        f, pair, monkeypatch):
    kernel = sde._run_coupled_batch if pair else sde._run_level0_batch
    messages = []
    for n in (1, 2, 3):
        on_workers(monkeypatch, n)
        with pytest.raises(ValueError, match="returned shape") as exc:
            kernel(UNIT, np.zeros(3), 0.25, 0.0, 10.0, f, seven_runs())
        messages.append(str(exc.value))
    assert messages[1] == messages[0] and messages[2] == messages[0]
    assert "\n" not in messages[0]


def test_numpys_error_state_reaches_every_slice(monkeypatch):
    # run 14, row 6, starts at zero in its first coordinate: 1 / 0 there
    x0 = np.ones((7, 3))
    x0[6, 0] = 0.0
    for n in (1, 2, 3):
        on_workers(monkeypatch, n)
        with np.errstate(divide="raise"), pytest.raises(
                FloatingPointError):
            sde._run_level0_batch(UNIT, x0, 0.5, 0.0, 10.0,
                                  lambda x: 1.0 / x[:, 0], seven_runs())


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
