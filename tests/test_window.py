"""The window pass of every observable (``sde._reduce_window``).

``norm_observable()`` and ``identity_observable()`` return ``sde._norm``
and ``sde._identity``, which the engine knows by identity and does not
call: where the C library loads, one C call per record
(``_kernel.window``) takes their values from the states, a pair's fine
minus coarse, the finite check and the compensated sums.  Any other
observable, a wrapper of a built-in one among them, is called on the
record's points, and the same C call sums its values as the identity's.
Here a built-in observable and its wrapper give the same bytes, a user
observable gives the same bytes with the C pass and the numpy one, and
each gives the same error on an overflow.
"""

import contextlib
import shutil

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
    QuadraticPotential,
    identity_observable,
    logistic_covariate,
    make_langevin_model,
    norm_observable,
    run_coupled_level,
    run_level0,
)
from mlangevin.sde import _CompensatedSum

needs_cc = pytest.mark.skipif(shutil.which(_kernel._CC) is None,
                              reason="no C compiler to build the kernel")

DIMS = [1, 7, 8, 9, 16, 100, 127, 128, 129, 257]
BUILTINS = [norm_observable, identity_observable]


def make_model(kind, d):
    if kind == "ou":
        return make_langevin_model(QuadraticPotential(d), "auto")
    cov = logistic_covariate(d, 2.0, NoiseStream(7, 0))
    return make_langevin_model(LogisticPerturbedPotential(d, 0.25, cov),
                               "auto")


def wide_start(rows, d, seed):
    """Start rows whose coordinates span 2^-20..2^20, so that each order of
    a norm's sum of squares rounds apart."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], (rows, d))
    return signs * 2.0 ** rng.uniform(-20.0, 20.0, (rows, d))


@contextlib.contextmanager
def level_setup(cap, workers):
    """The chunk cap and the worker count of a level, with a count of the
    observable calls that ``_eval_window`` makes."""
    calls = []
    evaluate = sde._eval_window

    def counted(f, hist):
        calls.append(len(hist))
        return evaluate(f, hist)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sde, "_CHUNK_STEP_CAP", cap)
        mp.setattr(sde, "_workers", lambda: workers)
        mp.setattr(sde, "_eval_window", counted)
        yield calls


def level(model, x0, f, pair, n_runs, seed, tau=0.25):
    """One level's averages and step count, a chain at step 1/8 or a pair
    at fine step 1/16, over horizon 2."""
    streams = [NoiseStream(seed, 1, run_index=i) for i in range(n_runs)]
    return sde._run_level(model, x0, 0.0625 if pair else 0.125, tau, 2.0, f,
                          streams, pair)


@needs_cc
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["ou", "logistic"]), st.sampled_from(DIMS),
       st.booleans(), st.integers(1, 5), st.sampled_from([1, 3, 7, 4096]),
       st.integers(1, 3), st.sampled_from(BUILTINS), st.integers(0, 2 ** 31))
def test_a_builtin_observable_sums_the_bytes_of_a_wrapper_of_it(
        kind, d, pair, n_runs, cap, workers, builtin, seed):
    model, f = make_model(kind, d), builtin()
    x0 = wide_start(n_runs, d, seed)
    with level_setup(cap, workers) as calls:
        in_c = level(model, x0, f, pair, n_runs, seed)
        assert calls == []
        by_numpy = level(model, x0, lambda pts: f(pts), pair, n_runs, seed)
        assert calls != []
    assert in_c[1] == by_numpy[1]
    assert in_c[0].shape == by_numpy[0].shape
    assert in_c[0].tobytes() == by_numpy[0].tobytes()


def failure(model, x0, f, pair, tau):
    with pytest.raises(NumericalFailureError) as exc:
        level(model, x0, f, pair, len(x0), 3, tau)
    err = exc.value
    return str(err), err.step_index, err.run_index


@needs_cc
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("tau", [0.0, 1.75])
@pytest.mark.parametrize("pair", [False, True], ids=["chain", "pair"])
def test_an_overflowing_norm_fails_alike_on_both_paths(pair, tau, workers):
    # finite starts whose squared norms overflow: runs 2 and 3 at first,
    # only run 3 by the window at tau = 1.75, as the drift shrinks them
    model = make_model("ou", 4)
    x0 = np.ones((5, 4))
    x0[2] *= 3e154
    x0[3] *= 1e158
    f = norm_observable()
    with level_setup(4096, workers):
        in_c = failure(model, x0, f, pair, tau)
        by_numpy = failure(model, x0, lambda pts: f(pts), pair, tau)
    assert in_c == by_numpy
    assert "non-finite observable value" in in_c[0]
    assert in_c[1:] == ((0, 2) if tau == 0.0 else (14, 3))


@contextlib.contextmanager
def without_library(kind="ou"):
    """The library read as missing; for the logistic model, whose ``tanh``
    rounds apart in C, only in the window pass (``sde._window_library``),
    while the draw and the ticks keep their C calls."""
    with pytest.MonkeyPatch.context() as mp:
        if kind == "ou":
            mp.setattr(_kernel, "_lib", None)
        else:
            mp.setattr(sde, "_window_library", lambda: None)
        yield


def first(pts):
    """A scalar user observable whose values are a strided view."""
    return pts[:, 0]


def squares(pts):
    """A vector user observable, the first two coordinates squared."""
    return pts[:, :2] ** 2


@needs_cc
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(["ou", "logistic"]), st.sampled_from([2, 7, 9, 16]),
       st.booleans(), st.integers(1, 5), st.sampled_from([1, 3, 7, 4096]),
       st.integers(1, 3), st.sampled_from([first, squares]),
       st.integers(0, 2 ** 31))
def test_a_user_observable_sums_the_same_bytes_with_the_library_and_without(
        kind, d, pair, n_runs, cap, workers, f, seed):
    model = make_model(kind, d)
    x0 = wide_start(n_runs, d, seed)
    with level_setup(cap, workers) as calls:
        in_c = level(model, x0, f, pair, n_runs, seed)
        with without_library(kind):
            by_numpy = level(model, x0, f, pair, n_runs, seed)
    assert calls != []
    assert in_c[1] == by_numpy[1]
    assert in_c[0].shape == by_numpy[0].shape == (
        (n_runs,) if f is first else (n_runs, 2))
    assert in_c[0].tobytes() == by_numpy[0].tobytes()


@needs_cc
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("pair", [False, True], ids=["chain", "pair"])
def test_an_overflowing_user_value_fails_alike_on_both_paths(pair, workers):
    # finite starts whose first coordinate's square overflows: runs 2 and 3
    model = make_model("ou", 4)
    x0 = np.ones((5, 4))
    x0[2] *= 3e154
    x0[3] *= 1e158
    with level_setup(4096, workers):
        in_c = failure(model, x0, squares, pair, 0.0)
        with without_library():
            by_numpy = failure(model, x0, squares, pair, 0.0)
    assert in_c == by_numpy
    assert "non-finite observable value" in in_c[0]
    assert in_c[1:] == (0, 2)


def read_only(f):
    """f, its values returned read-only."""
    def g(pts):
        vals = f(pts).view()
        vals.flags.writeable = False
        return vals
    return g


@pytest.mark.parametrize("library", [True, False], ids=["c", "numpy"])
@pytest.mark.parametrize("f", [first, squares])
def test_read_only_values_work_on_a_coupled_level(f, library):
    model, x0 = make_model("ou", 3), wide_start(2, 3, 4)
    with contextlib.nullcontext() if library else without_library():
        got = level(model, x0, read_only(f), True, 2, 5)
        want = level(model, x0, f, True, 2, 5)
    assert got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("library", [True, False], ids=["c", "numpy"])
@pytest.mark.parametrize("run", [run_level0, run_coupled_level])
def test_an_empty_observable_returns_empty_arrays(run, library):
    model = make_model("ou", 3)
    with contextlib.nullcontext() if library else without_library():
        avg, steps = run(model, np.ones(3), 0.125, 0.25, 2.0,
                         lambda pts: pts[:, :0], NoiseStream(1, 1))
    assert isinstance(avg, np.ndarray) and avg.shape == (0,)
    assert steps == (16 if run is run_level0 else 24)


def record(rows, d, ticks=6, seed=1):
    """A record of ``ticks`` ticks of ``rows`` rows, its ticks 2 rows
    apart: a view of a wider buffer, at a tick stride the C pass reads."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((ticks, rows + 2, d))[:, 1:rows + 1]


def numpy_window(f, x, pair):
    """The numpy path's window values of f on the record x."""
    vals = sde._eval_window(f, x)
    if pair:
        half = vals.shape[1] // 2
        vals = vals[:, half:] - vals[:, :half]
    return vals


@needs_cc
@pytest.mark.parametrize("pair", [False, True], ids=["chain", "pair"])
@pytest.mark.parametrize("builtin", BUILTINS, ids=["norm", "identity"])
def test_the_window_pass_adds_numpys_values_and_finds_the_first_bad_one(
        builtin, pair):
    f, obs = builtin(), (_kernel.NORM if builtin is norm_observable
                         else _kernel.IDENTITY)
    bsz, d = 3, 5
    x = record(2 * bsz if pair else bsz, d)
    vals = numpy_window(f, x, pair)
    want = _CompensatedSum(vals.shape[1:])
    want.add(vals.reshape(len(vals), -1))
    got = _CompensatedSum(vals.shape[1:])
    assert _kernel.window(obs, x, pair, got.s.reshape(-1),
                          got.c.reshape(-1)) == -1
    assert got.total().tobytes() == want.total().tobytes()
    # tick 4, run 1: its coarse row on a pair, its row on a chain
    x[4, 1, 2] = np.inf
    x[5, 0, 0] = np.nan
    got = _CompensatedSum(vals.shape[1:])
    assert _kernel.window(obs, x, pair, got.s.reshape(-1),
                          got.c.reshape(-1)) == 4 * bsz + 1


@pytest.mark.parametrize("case", [
    "2-d record", "odd pair rows", "too few slots", "vector slots for norm",
    "strided coordinates", "strided rows", "float32 record", "float32 sums",
    "strided sums", "read-only sums", "unknown observable"])
def test_the_window_pass_rejects_a_wrong_shape_or_stride(case):
    x, s = record(4, 3), np.zeros(4)
    obs, pair = _kernel.NORM, False
    if case == "2-d record":
        x = x[0]
    elif case == "odd pair rows":
        x, pair = record(5, 3), True
    elif case == "too few slots":
        s = np.zeros(3)
    elif case == "vector slots for norm":
        s = np.zeros(12)
    elif case == "strided coordinates":
        x = record(4, 6)[:, :, ::2]
    elif case == "strided rows":
        x = record(8, 3)[:, ::2]
    elif case == "float32 record":
        x = x.astype(np.float32)
    elif case == "float32 sums":
        s = s.astype(np.float32)
    elif case == "strided sums":
        s = np.zeros(8)[::2]
    elif case == "read-only sums":
        s.flags.writeable = False
    else:
        obs = 2
    c = np.zeros(s.shape)
    with pytest.raises(ValueError, match="cannot add observable") as exc:
        _kernel.window(obs, x, pair, s, c)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("builtin", BUILTINS, ids=["norm", "identity"])
def test_a_builtin_observable_is_one_function(builtin):
    assert builtin() is builtin()
    assert builtin() in (sde._norm, sde._identity)


class Unhashable:
    """A callable observable that compares equal to the norm and has no
    hash (``__eq__`` without ``__hash__``)."""

    def __eq__(self, other):
        return other is sde._norm

    def __call__(self, pts):
        return np.linalg.norm(pts, axis=-1)


def test_an_unhashable_observable_runs_on_the_numpy_path():
    f = Unhashable()
    with pytest.raises(TypeError):
        hash(f)
    model, x0 = make_model("ou", 3), wide_start(2, 3, 4)
    for pair in (False, True):
        with level_setup(4096, 2) as calls:
            got = level(model, x0, f, pair, 2, 5)
            assert calls != []
            want = level(model, x0, norm_observable(), pair, 2, 5)
        assert got[0].tobytes() == want[0].tobytes()
