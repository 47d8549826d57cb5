"""The C maps (``mlangevin._kernel``): the same outputs as the numpy path,
taken only for the built-in potentials, and a quiet, clean build.

``test_numpy_path.py`` runs the engine, estimator and probe tests with the
library read as missing; here the two paths' outputs are compared.
"""

import contextlib
import ctypes
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mlangevin
import mlangevin._kernel as _kernel
from mlangevin import (
    LangevinModel,
    LogisticPerturbedPotential,
    NoiseStream,
    QuadraticPotential,
    TuningPlan,
    confluence_probe,
    contraction_probe,
    estimate_repeated,
    identity_observable,
    logistic_covariate,
    make_langevin_model,
    norm_observable,
    run_coupled_level,
    run_level0,
)
from mlangevin.model import _row_map
from mlangevin.sde import _CompensatedSum

needs_cc = pytest.mark.skipif(shutil.which(_kernel._CC) is None,
                              reason="no C compiler to build the kernel")


@contextlib.contextmanager
def numpy_maps():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "_lib", None)
        yield


def both_paths(run):
    """``run()`` with the C maps, then on the numpy path."""
    with_c = run()
    with numpy_maps():
        return with_c, run()


def ou(d):
    return make_langevin_model(QuadraticPotential(d), "auto")


def logistic(d):
    cov = logistic_covariate(d, 2.0, NoiseStream(7, 0))
    return make_langevin_model(LogisticPerturbedPotential(d, 0.25, cov),
                               "auto")


def plan(d, R, t0=40.0):
    return TuningPlan(regime="b2", gamma0=0.5,
                      horizons=[t0 * 2.0 ** -r for r in range(R + 1)],
                      tau=2.0, r0=1.0, big_t=t0, dim=d)


def small_estimate(model, f):
    d = model.dim
    x0 = np.random.default_rng(d).uniform(-1.0, 1.0, d)
    return estimate_repeated(model, plan(d, 3), x0, f, 11, 4)


# ------------------------------------------------------ the two paths agree


@needs_cc
def test_the_builtin_potentials_map_in_c():
    assert _kernel.lib() is not None
    assert _row_map(ou(3))[0] == _kernel.QUADRATIC
    assert _row_map(logistic(3))[0] == _kernel.LOGISTIC


@needs_cc
@pytest.mark.parametrize("f", [norm_observable, identity_observable])
def test_quadratic_estimates_are_the_same_bytes_on_both_paths(f):
    with_c, with_numpy = both_paths(lambda: small_estimate(ou(10), f()))
    assert [o.to_json() for o in with_c] == [o.to_json() for o in with_numpy]


@needs_cc
def test_quadratic_probes_are_the_same_bytes_on_both_paths():
    x, y = np.ones(4), -np.ones(4)
    distances = both_paths(
        lambda: contraction_probe(ou(4), x, y, 0.2, 3000, seed=2))
    assert distances[0] == distances[1]
    gaps = both_paths(lambda: confluence_probe(ou(2), 0.25, 30.0, 300))
    assert gaps[0] == gaps[1]


@needs_cc
@pytest.mark.parametrize("d", [3, 10, 100])
def test_logistic_estimates_agree_to_rounding_on_both_paths(d):
    f = identity_observable()
    with_c, with_numpy = both_paths(lambda: small_estimate(logistic(d), f))
    for a, b in zip(with_c, with_numpy):
        np.testing.assert_allclose(a.estimate, b.estimate, rtol=1e-12,
                                   atol=0.0)
        scale = np.abs(a.level_contributions[0]).max()
        for ca, cb in zip(a.level_contributions, b.level_contributions):
            np.testing.assert_allclose(ca, cb, rtol=0.0, atol=1e-12 * scale)


def descended(pot, x, h):
    y = np.array(x)
    pot.descend(y, h)
    return y


@needs_cc
@pytest.mark.parametrize("d", [3, 8, 10, 17, 100, 129, 300])
def test_the_c_dot_product_sums_in_numpys_order(d):
    # +-2^53 beside a few ones: each summation order loses a different
    # number of the ones, so t = c.x would move by whole units (and the
    # result by ~0.1 h) if the C sum did not follow numpy's pairwise order
    rng = np.random.default_rng(d)
    pot = LogisticPerturbedPotential(d, 0.25, np.ones(d))
    x = np.zeros((40, d))
    for row in x:
        m = (d - 3) // 2
        row[:] = [2.0 ** 53] * m + [-(2.0 ** 53)] * m + [1.0] * (d - 2 * m)
        rng.shuffle(row)
    with_c, with_numpy = both_paths(lambda: descended(pot, x, 0.5))
    np.testing.assert_allclose(with_c, with_numpy, rtol=1e-14, atol=0.0)


def mixed_magnitudes():
    rng = np.random.default_rng(5)
    signs = rng.choice([-1.0, 1.0], (40, 6))
    return signs * 10.0 ** rng.uniform(-300.0, 300.0, (40, 6))


def pair_slice():
    # a pair's fine-minus-coarse values: the right half of (w, 2B) rows
    values = np.random.default_rng(6).standard_normal((17, 8))
    return values[:, 4:]


SUMS = {"mixed": mixed_magnitudes, "cancel": lambda: [[1e16], [1.0], [-1e16]],
        "one": lambda: [[0.1]], "strided": pair_slice}


def compensated(values):
    """(s, c) of a _CompensatedSum after adding ``values`` in two calls of
    its numpy fold."""
    values = np.asarray(values, dtype=float)
    acc = _CompensatedSum(values.shape[1:])
    half = len(values) // 2
    acc.add(values[:half])
    acc.add(values[half:])
    return acc.s, acc.c


def window_sums(values):
    """(s, c) after adding ``values`` in two calls of the C window pass,
    each a record of one-coordinate rows summed as the identity's."""
    values = np.asarray(values, dtype=float)
    s, c = np.zeros(values.shape[1]), np.zeros(values.shape[1])
    half = len(values) // 2
    for part in (values[:half], values[half:]):
        if len(part):
            assert _kernel.window(_kernel.IDENTITY, part[:, :, None], False,
                                  s, c) == -1
    return s, c


def neumaier_loop(values):
    """(s, c) of Neumaier's sum, one value at a time, in Python floats."""
    values = np.asarray(values, dtype=float)
    s, c = [0.0] * values.shape[1], [0.0] * values.shape[1]
    for row in values.tolist():
        for j, v in enumerate(row):
            t = s[j] + v
            c[j] += (s[j] - t) + v if abs(s[j]) >= abs(v) else (v - t) + s[j]
            s[j] = t
    return np.array(s), np.array(c)


@pytest.mark.parametrize("case", SUMS)
def test_compensated_sums_are_the_same_bytes_on_both_paths(case):
    expected = neumaier_loop(SUMS[case]())
    paths = [compensated(SUMS[case]())]
    if _kernel.lib() is not None:  # the C side; none on the numpy path
        paths.append(window_sums(SUMS[case]()))
    for got in paths:
        for a, e in zip(got, expected):
            assert a.tobytes() == e.tobytes()
        if case == "cancel":
            assert got[0] + got[1] == 1.0


# ----------------------------------------------------- the guard of the maps


class _StrongerBowl(QuadraticPotential):
    """The quadratic with its own map, twice the quadratic's step."""

    def descend(self, x, h):
        x *= 1.0 - 2.0 * h


class _Halving:
    """Duck-typed model with only ``advance``: x <- x / 2, no noise."""

    noise_scale = 0.0

    def __init__(self, d):
        self.dim = d

    def advance(self, x, step):
        x *= 0.5


class _OwnAdvance(LangevinModel):
    def advance(self, x, step):
        x *= 0.0


def test_the_kernel_is_never_taken_for_a_map_it_does_not_know():
    assert _row_map(make_langevin_model(_StrongerBowl(3), "auto")) is None
    assert _row_map(_Halving(3)) is None
    assert _row_map(_OwnAdvance(QuadraticPotential(3), 1.0)) is None
    pot = QuadraticPotential(3)
    pot.descend = lambda x, h: None
    assert _row_map(make_langevin_model(pot, "auto")) is None


@pytest.mark.parametrize("run", [run_level0, run_coupled_level])
def test_a_subclass_with_its_own_map_moves_by_it(run):
    x0, f = np.array([1.0, -2.0, 0.5]), identity_observable()
    args = (x0, 0.25, 1.0, 8.0, f)
    own = make_langevin_model(_StrongerBowl(3), "auto")
    got = both_paths(lambda: run(own, *args, NoiseStream(3, 1))[0])
    np.testing.assert_array_equal(got[0], got[1])
    plain = run(ou(3), *args, NoiseStream(3, 1))[0]
    assert not np.array_equal(got[0], plain)


def test_a_duck_typed_model_moves_by_its_own_advance():
    avg, steps = run_level0(_Halving(2), np.array([1.0, -2.0]), 0.5, 0.0,
                            2.0, identity_observable(), NoiseStream(0, 0))
    assert steps == 4
    np.testing.assert_array_equal(avg, np.array([1.0, -2.0]) * 0.46875)


@pytest.mark.parametrize("model", [ou(5), logistic(5)],
                         ids=["quadratic", "logistic"])
def test_descend_gives_the_bits_of_a_contiguous_copy(model):
    pot = model.potential
    x = np.random.default_rng(1).normal(size=(6, 10))
    cases = [(lambda a: a[:, ::2], 0.3), (lambda a: a[:, 1::2], 0.45),
             (lambda a: a[:, :5], 0.6), (lambda a: a[2, ::2], 0.3),
             (lambda a: np.asfortranarray(a[:, 5:]), 0.45)]
    for view_of, h in cases:
        view = view_of(x.copy())
        want = np.array(view, order="C")
        pot.descend(view, h)
        pot.descend(want, h)
        assert np.ascontiguousarray(view).tobytes() == want.tobytes()
    point, rows = x[0, :5].copy(), x[:1, :5].copy()
    pot.descend(point, 0.3)
    pot.descend(rows, 0.3)
    assert point.tobytes() == rows[0].tobytes()
    frozen = x[:, :5].copy()
    frozen.setflags(write=False)
    with pytest.raises(ValueError):
        pot.descend(frozen, 0.3)


# ------------------------------------------------------------------ the build


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory and a library not yet loaded."""
    path = tmp_path / "cache"
    path.mkdir()
    monkeypatch.setattr(_kernel, "_cache_dir", lambda: path)
    monkeypatch.setattr(_kernel, "_lib", _kernel._UNLOADED)
    return path


def noisy_failing_compiler(tmp_path):
    """A compiler command that prints to both streams, leaves a partial
    output file and fails."""
    script = tmp_path / "bad-cc"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        "print('compiler noise on stdout')\n"
        "print('compiler noise on stderr', file=sys.stderr)\n"
        "out = sys.argv[sys.argv.index('-o') + 1]\n"
        "open(out, 'wb').write(b'partial')\n"
        "sys.exit(1)\n")
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("failure", ["missing", "failing", "no-cache"])
def test_a_failed_build_falls_back_quietly_and_leaves_no_file(
        failure, cache, tmp_path, monkeypatch, capfd):
    if failure == "missing":
        monkeypatch.setattr(_kernel, "_CC", str(tmp_path / "no-such-cc"))
    elif failure == "failing":
        monkeypatch.setattr(_kernel, "_CC", noisy_failing_compiler(tmp_path))
    else:  # a cache directory that cannot take the build's file
        monkeypatch.setattr(_kernel, "_cache_dir",
                            lambda: tmp_path / "gone" / "cache")
    model = logistic(4)
    got = small_estimate(model, identity_observable())
    assert _kernel.lib() is None
    assert list(cache.iterdir()) == []
    assert capfd.readouterr() == ("", "")
    with numpy_maps():
        want = small_estimate(model, identity_observable())
    assert [o.to_json() for o in got] == [o.to_json() for o in want]


@needs_cc
def test_a_build_is_published_once_and_then_loaded_from_the_cache(
        cache, monkeypatch, capfd):
    assert _kernel.lib() is not None
    built = list(cache.iterdir())
    assert len(built) == 1 and built[0].name.startswith("kernel-")
    assert capfd.readouterr() == ("", "")
    # a second process finds the file: no compiler is needed any more
    monkeypatch.setattr(_kernel, "_lib", _kernel._UNLOADED)
    monkeypatch.setattr(_kernel, "_build", lambda cmd, target: False)
    assert _kernel.lib() is not None
    assert list(cache.iterdir()) == built


def python_in(cache_home, code, **env):
    """A child process running ``code`` with the cache home ``cache_home``
    and the environment variables ``env`` besides."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_home),
               PYTHONPATH=str(Path(mlangevin.__file__).parents[1]), **env)
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


C_KINDS = {None: "void", ctypes.c_int64: "int64", ctypes.c_int: "int",
           ctypes.c_double: "double", ctypes.c_void_p: "pointer",
           ctypes.POINTER(ctypes.c_double): "pointer"}


def c_prototypes():
    """Each ``mlv_*`` function of the C source: the kind of its result and
    of each argument."""
    scalars = {"int64_t": "int64", "int": "int", "double": "double",
               "void": "void"}
    protos = re.findall(r"^(\w+) (mlv_\w+)\(([^)]*)\)",
                        _kernel._SOURCE.read_text(), re.M)
    return {name: (scalars[result], tuple(
        "pointer" if "*" in arg else scalars[arg.split()[0]]
        for arg in args.split(",") if arg != "void"))
        for result, name, args in protos}


def test_the_ctypes_signatures_match_the_c_prototypes():
    # ctypes passes a mismatched argument as garbage, with no error
    protos = c_prototypes()
    signatures = {**_kernel._SIGNATURES, **_kernel._DRAW_SIGNATURES}
    assert set(protos) == set(signatures)
    for name, (restype, argtypes) in signatures.items():
        kinds = (C_KINDS[restype], tuple(C_KINDS[t] for t in argtypes))
        assert kinds == protos[name], name


@needs_cc
@pytest.mark.parametrize("define", [[], ["-DMLV_NORMALS"]],
                         ids=["ticks", "with the draw"])
def test_the_c_source_compiles_without_a_warning(define):
    done = subprocess.run(
        [_kernel._CC, "-fsyntax-only", "-Wall", "-Wextra", "-Werror",
         *define, str(_kernel._SOURCE)], capture_output=True, text=True,
        timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


def test_importing_the_package_builds_and_loads_nothing(tmp_path):
    code = ("import mlangevin, mlangevin._kernel as k; "
            "print(k._lib is k._UNLOADED)")
    out, err = python_in(tmp_path, code).communicate(timeout=120)
    assert (out, err) == ("True\n", "")
    assert list(tmp_path.iterdir()) == []


@needs_cc
def test_processes_that_build_at_once_share_one_file(tmp_path):
    code = "import mlangevin._kernel as k; print(k.lib() is not None)"
    procs = [python_in(tmp_path, code) for _ in range(2)]
    assert [p.communicate(timeout=300) for p in procs] == [("True\n", "")] * 2
    files = list((tmp_path / "mlangevin").iterdir())
    assert len(files) == 1 and files[0].name.startswith("kernel-")


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="no file owners")
def test_no_private_cache_directory_keeps_numpy_and_writes_nothing(
        tmp_path):
    # both cache candidates exist and others may write to them: the one
    # under the cache home and the one under the temporary directory
    home, tmp = tmp_path / "home", tmp_path / "tmp"
    shared = [(home / "mlangevin", 0o770),
              (tmp / f"mlangevin-{os.getuid()}", 0o777)]
    for path, mode in shared:
        path.mkdir(parents=True)
        path.chmod(mode)
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import mlangevin._kernel as k, test_kernel as t\n"
            "outs = t.small_estimate(t.logistic(4), t.identity_observable())\n"
            "print(k.lib() is None, json.dumps([o.to_json() for o in outs]))")
    out, err = python_in(home, code, TMPDIR=str(tmp)).communicate(
        timeout=120)
    with numpy_maps():
        want = small_estimate(logistic(4), identity_observable())
    assert err == ""
    assert out == f"True {json.dumps([o.to_json() for o in want])}\n"
    assert [list(path.iterdir()) for path, _ in shared] == [[], []]


def test_a_cached_file_that_is_no_library_falls_back_quietly(tmp_path):
    # the first load names the cached file without building it; the
    # second finds a file there that does not load, and builds no other
    code = ("import mlangevin._kernel as k\n"
            "targets, build = [], k._build\n"
            "k._build = lambda cmd, target: targets.append(target)\n"
            "assert k.lib() is None\n"
            "targets[0].write_bytes(b'not a library')\n"
            "k._build, k._lib = build, k._UNLOADED\n"
            "print(k.lib() is None, targets[0].name)")
    out, err = python_in(tmp_path, code).communicate(timeout=120)
    assert err == ""
    loaded, name = out.split()
    assert loaded == "True" and re.fullmatch(r"kernel-\w+\.so", name)
    files = list((tmp_path / "mlangevin").iterdir())
    assert [f.name for f in files] == [name]
    assert files[0].read_bytes() == b"not a library"
