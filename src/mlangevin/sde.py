"""Constant-step Euler-Maruyama engine with synchronously coupled pairs.

One engine function, ``_drive``, holds the only stepping loop, and every
path simulation goes through it:

* ``run_level0``: one chain at step gamma0, returning the occupation
  (pathwise time) average of an observable over a burn-in-trimmed window.
* ``run_coupled_level``: a fine chain (step gamma) and a coarse chain (step
  2*gamma), returning the averaged difference of the observable read at
  coarse grid times only.
* the estimator's levels, one after another.
* the contraction and confluence probes in ``diagnostics``.

The engine runs one level of B runs in one tick loop, one step of the
level's own grid per tick: a chain's step, or a coupled pair's coarse step
and its two fine steps.  A pair's state is one (2B, d) array, its coarse
rows over its fine rows.  Each tick records the state at its start, grid
index t at tick t, so that the level reads its states as views of one
buffer.  The engine checks the start point (shape (d,) or (B, d), finite),
draws the standard normals and turns them into the Euler increments, and
reads the first non-finite step and run of a failure from its record.

The drift enters only through the model's in-place Euler map
``model.advance(x, step)``, x <- x + step * b(x), with ``step`` a float;
with ``dim`` and ``noise_scale`` it is all the engine asks of a model.
``LangevinModel`` maps through ``Potential.descend``, which falls back to
``Potential.grad`` for a user potential.  The two built-in potentials,
``QuadraticPotential`` and ``LogisticPerturbedPotential``, map rows in C
(``_kernel``): for a
``LangevinModel`` whose potential's ``descend`` is one of theirs, the engine
runs each chunk of ticks in one C call, with no ``advance`` call at all.
Any other model -- a user potential, a subclass with its own ``descend``, a
model with its own ``advance`` -- and every model where the C library
cannot be built, ticks in Python with ``advance`` calls, each on rows that
share one float step.  Both paths give each row the bits of a map by its
own float step.

``euler_step`` is the single-step reference the engine matches bit for bit:
it takes the same map (the built-in ``descend`` calls the same C row map as
the engine's C loop), then adds the same scaled increment.

An observable is any function f acting along the last axis, as
``Potential.grad`` does: it maps a batch of path points (N, d) to values of
shape (N,) for a scalar observable or (N, m) for a vector one.  The shape of
its value is the only scalar/vector signal; one reduction path serves both,
and a level returns a float per run for the first and an (m,) array for the
second.  Any other value shape is a ValueError that names it.  The two
built-in observables are this module's ``_norm`` and ``_identity``, which
``norm_observable()`` and ``identity_observable()`` return.  The engine
knows them by identity (``f is _norm``), as ``model._row_map`` knows the
built-in potentials, and takes their values from the record itself.  Any
other f, a wrapper of a built-in one among them, is called on the
record's points, and its values, (w, B[, m]) per record, are summed as
the identity's record.  Either way one window pass per record
(``_reduce_window``) takes each run's value, a pair's fine minus coarse,
the finite check and the sums: one C call (``_kernel.window``) where the
C library loads, with no array of a built-in's values, else numpy, with
the same bytes.  f's values are only read, never written.

Sampling windows use the grid-index rule ``n_gamma(t) = max{k : k*gamma <= t}``
with the average taken over indices ``k in [n_gamma(tau), n_gamma(T) - 1]``;
no interpolation or border-weight modification is applied at window edges.

Randomness comes from ``NoiseStream``, a counter-based (Philox) generator keyed
by ``(master_seed, level_index, run_index)`` through a fixed, documented mixing
rule, so every trajectory is bit-reproducible across platforms, chunk sizes,
batch layouts and core counts.  Its standard normals are numpy's
``Generator.standard_normal`` on that Philox stream, byte for byte: drawn in
C (``_kernel.normals``, numpy's own tail code and tables, checked against
numpy's bytes at load) where the library has the draw, else by numpy's
``Generator``.  A level takes one stream per row (a run's
own, in the estimator) or one stream for all rows (the confluence probe).
Each stream draws raw standard normals straight into its level's buffer, a
contiguous slice per chunk (``standard_normal(out=...)``), and the C tick
loop scales them as it adds them (``_drive``).  Batches of independent
runs advance together as rows; every per-run operation acts elementwise or
along the last axis only, so batched trajectories are bit-identical to
one-run-at-a-time execution.

The runs of a level share nothing, so where the level ticks in C,
``_run_level`` cuts them into contiguous slices, one per core the process
may run on (``_workers``), and runs each slice on a thread of its own
through ``_drive``: it draws its runs' normals, ticks them, evaluates f and
sums its runs' windows.  numpy's draw and the C tick loop run without the
GIL.  Each run reads only its own stream and rows and adds to its own sums,
and the level's result is the slices' concatenated in row order, so no
byte depends on the core count.  There is no setting.  One runner,
``_run_slices``, starts the slices' threads and owns the failure policy:
no job runs once the call returns or raises, even after an interrupt, and
a failing concurrent run is run again in one engine.  Within one level, f
may therefore be called from several threads at once, each call on rows of
its own, in a copy of the calling thread's context (numpy's error state
among it): it must be safe to call concurrently, as the built-in
observables are.  f may itself run a level, on any of those threads.  A
failing sliced level is run again in one engine over all its rows, on the
calling thread, from its streams' states at its start, and raises what
that run raises: so no error depends on the core count, and f must be a
pure function of its points, as it is called again on states it has seen.
An interrupt or an exit goes on as it is.  A level that ticks in Python (a
user potential, a model with its own ``advance``, no C library) runs in
one engine on the calling thread, as does the contraction probe: the
Python tick loop's many small calls hold the GIL, so its slices would only
take turns (``_slices``).  The confluence probe runs each of its two
coupled pairs in one engine, by the same rule: where they tick in C and
the process may run on two or more cores, the gamma pair runs on a thread
of its own while the gamma/2 pair runs on the calling thread, and if
either fails, both run again one after the other on the calling thread.

Each window is summed in grid order, compensated: every run and value
coordinate adds its window values one grid index at a time to a Neumaier
sum (``_CompensatedSum``), so averages over 10^7+ terms keep near-full
precision and neither the chunk nor the batch width changes a bit: every
level of an estimate equals its standalone ``run_level0`` /
``run_coupled_level`` call byte for byte.  The engine advances c ticks per
chunk, with c sized from the whole level's rows, whatever its slices, to
bound its buffers' memory (``_CHUNK_ELEMENT_TARGET``, at most
``_CHUNK_STEP_CAP`` ticks).
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .model import _integer, _row_map

__all__ = [
    "NoiseStream",
    "NumericalFailureError",
    "PathState",
    "euler_step",
    "n_gamma",
    "run_level0",
    "run_coupled_level",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_FLOAT, _DOUBLE = np.dtype(float), ctypes.c_double

# A chunk's buffers hold about this many elements, in at most this many
# ticks: a memory setting only, as no output depends on the chunk.  A tick
# of a level counts three states of its rows (B for a chain, 2B for a
# pair): its record, its raw normals (a chain's step or a pair's two fine
# steps) and the values of a user observable, up to a state of them (a
# built-in observable's come from the record); the numpy path's
# out-of-place pair difference adds half a values array.  Each run draws
# once per chunk, so a shorter chunk costs calls.
_CHUNK_ELEMENT_TARGET = 2_000_000
_CHUNK_STEP_CAP = 4096

_MAX_LEVEL_INDEX = 1 << 20
_MAX_RUN_INDEX = 1 << 44


class NumericalFailureError(RuntimeError):
    """A trajectory produced a non-finite position (step too large / blow-up).

    Attributes:
        step_index: Grid index k of the first non-finite state.
        run_index: Run index of the failing trajectory (its stream's
            ``run_index`` in the estimator, else its batch row).
        level_index: Estimator level, when known (set by callers).
    """

    def __init__(self, message: str, step_index: int, run_index: int = 0,
                 level_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.run_index = run_index
        self.level_index = level_index


class NoiseStream:
    """Reproducible i.i.d. standard-normal stream for one (seed, level, run).

    The stream is a Philox counter-based generator whose 128-bit key packs
    the three coordinates through a fixed, documented one-way mixing rule:

        key = (master_seed mod 2**64,  run_index * 2**20 + level_index)

    Distinct ``(level_index, run_index)`` pairs therefore map to distinct
    keys, i.e. to statistically independent streams, provided
    ``level_index < 2**20`` and ``run_index < 2**44`` (both enforced).  For a
    fixed triple the draw sequence is identical across runs, platforms, and
    degrees of parallelism, and drawing in chunks of any size yields the same
    sequence as one large draw.

    The sequence is ``numpy.random.Generator(numpy.random.Philox(key=key))
    .standard_normal``'s, byte for byte.  The stream holds numpy's Philox
    state as 11 words (``_kernel.philox_words``) and draws each call in one
    C call (``_kernel.normals``) where the library has the draw; else, or
    while the library reads as missing, a numpy ``Generator`` built from
    the words continues the same sequence.  A lock makes calls on one
    stream from several threads take turns; the C call runs without the
    GIL, so different streams draw in parallel.

    Args:
        master_seed: 64-bit master seed (wider ints are reduced mod 2**64).
        level_index: Estimator level this stream drives (0 = base level).
        run_index: Replication index for repeated-run harnesses.
    """

    def __init__(self, master_seed: int, level_index: int, run_index: int = 0):
        master_seed = _integer(master_seed, "master_seed")
        level_index = _integer(level_index, "level_index")
        run_index = _integer(run_index, "run_index")
        if level_index < 0 or level_index >= _MAX_LEVEL_INDEX:
            raise ValueError(
                f"level_index must be in [0, 2**20), got {level_index}")
        if run_index < 0 or run_index >= _MAX_RUN_INDEX:
            raise ValueError(
                f"run_index must be in [0, 2**44), got {run_index}")
        self.master_seed = master_seed % (1 << 64)
        self.level_index = level_index
        self.run_index = run_index
        # numpy's Philox state, field for field, in explicit uint64 words:
        # a python-int key would be routed through float64 above 2**63 and
        # lose low bits (adjacent keys collide)
        self._words = _kernel.philox_start(
            (self.master_seed,
             self.run_index * _MAX_LEVEL_INDEX + self.level_index))
        self._at = self._words.ctypes.data
        self._gen = None  # numpy's Generator, which holds the state if set
        self._lock = threading.Lock()

    # every draw goes through here, one C call (or one numpy call) each:
    # the benchmark tracer counts it, and the engine calls it once per
    # stream and chunk
    def standard_normal(self, shape=None, out=None):
        """Draw standard normals; mirrors ``numpy.random.Generator``.

        Returns a new array of ``shape`` (a float when both are None), or
        fills ``out`` and returns it.  ``out`` must be a C-contiguous,
        writable float64 array, of shape ``shape`` when both are given;
        otherwise it is a ValueError (a TypeError for another dtype).  The
        stream advances the same way either way, so draws into consecutive
        slices equal one shaped draw.  Calls on one stream from several
        threads take turns.
        """
        if out is not None and not (isinstance(out, np.ndarray)
                                    and out.flags.carray):
            raise ValueError(
                "out must be a C-contiguous, writable and aligned array")
        draw = _kernel.normals()
        if draw is None:
            with self._lock:
                if self._gen is None:
                    bitgen = np.random.Philox()
                    bitgen.state = _kernel.philox_state(self._words)
                    self._gen = np.random.Generator(bitgen)
                return self._gen.standard_normal(shape, out=out)
        if out is None:
            values = np.empty(1 if shape is None else shape)
        elif out.dtype != _FLOAT:
            raise TypeError(f"out must be a float64 array in machine byte "
                            f"order, got {out.dtype}")
        elif shape is not None and out.shape != (
                tuple(shape) if np.iterable(shape) else (shape,)):
            raise ValueError(f"out has shape {out.shape}, not the shape "
                             f"asked for, {shape}")
        else:
            values = out
        if values.size:
            with self._lock:
                if self._gen is not None:  # it drew without the C draw
                    self._words[:] = _kernel.philox_words(
                        self._gen.bit_generator.state)
                    self._gen = None
                draw(self._at, values.size, _DOUBLE.from_buffer(values))
        return float(values[0]) if shape is None and out is None else values

    def _state(self) -> np.ndarray:
        """A copy of the stream's 11 words now, wherever they are held."""
        with self._lock:
            return (self._words.copy() if self._gen is None else
                    _kernel.philox_words(self._gen.bit_generator.state))

    def _set_state(self, words) -> None:
        """Continue the stream from ``words``, as ``_state`` returned them."""
        with self._lock:
            self._words[:] = words
            self._gen = None


@dataclass
class PathState:
    """State of one Euler-Maruyama chain.

    Attributes:
        position: Current point, shape (d,), finite.
        steps_taken: Number of completed steps; current time is
            ``steps_taken * step_size``.
        step_size: Constant step gamma > 0.
    """

    position: np.ndarray
    steps_taken: int
    step_size: float


def euler_step(model, state: PathState, gaussian: np.ndarray) -> PathState:
    """Advance one Euler-Maruyama step.

    position <- position + gamma * b(position) + noise_scale * sqrt(gamma) * g
    with drift b(x) = -sigma0^2 grad U(x).  A copy of the position takes the
    model's in-place map ``model.advance(x, gamma)``, then the scaled draw
    is added.

    This is the reference single-step operation; the batched engine performs
    the identical arithmetic (the same map and the same addition, hence
    bit-identical trajectories for the same draws).

    Args:
        model: LangevinModel (or any model with ``advance`` and
            ``noise_scale``).
        state: Current PathState.
        gaussian: Standard-normal draw of shape (d,).

    Returns:
        New PathState with steps_taken incremented.

    Raises:
        ValueError: On dimension mismatch, or a step size that is not finite
            and positive.
        NumericalFailureError: If the new position is non-finite.
    """
    pos = np.asarray(state.position, dtype=float)
    g = np.asarray(gaussian, dtype=float)
    if g.shape != pos.shape:
        raise ValueError(
            f"gaussian shape {g.shape} does not match position shape {pos.shape}")
    gamma = float(state.step_size)
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"step_size must be finite and positive, got {gamma}")
    cn = model.noise_scale * math.sqrt(gamma)
    new_pos = pos.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        model.advance(new_pos, gamma)
        new_pos += cn * g
    if not np.isfinite(new_pos).all():
        raise NumericalFailureError(
            f"non-finite position after step {state.steps_taken + 1} "
            f"(gamma={gamma}); the step size is likely too large for this model",
            step_index=state.steps_taken + 1,
        )
    return PathState(position=new_pos, steps_taken=state.steps_taken + 1,
                     step_size=gamma)


def n_gamma(t: float, gamma: float) -> int:
    """Largest k with k*gamma <= t (number of grid points in (0, t]).

    The one check of a time grid: t must be finite and nonnegative, gamma
    finite and positive, and t/gamma finite.  A guard of four ulps of the
    quotient absorbs float-division noise when t is an exact multiple of
    gamma (e.g. horizons built from eps**-2).
    """
    if not 0.0 < gamma < math.inf:
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    q = t / gamma
    q += 4.0 * 2.0 ** -52 * (q + 1.0)
    if q == math.inf:
        raise ValueError(
            f"t/gamma must be finite, got t={t} and gamma={gamma}")
    return math.floor(q)


class _CompensatedSum:
    """Compensated sums over the slots of an array of ``shape``: each slot
    adds its values one at a time, in the order they come (Neumaier's sum,
    each rounding error taken exactly by TwoSum).  A slot's total therefore
    depends on its own values and their order alone, not on how they are
    split into calls or which slots sit beside it.  The C window pass
    (``_kernel.window``) and the numpy fold below do the same arithmetic,
    bit for bit."""

    def __init__(self, shape):
        self.s = np.zeros(shape)
        self.c = np.zeros(shape)

    # a benchmark tracer target, as are _eval_window and _reduce_window
    def add(self, v) -> None:
        """Add rows ``v`` (w, n), n the slot count, one row at a time."""
        v = np.asarray(v, dtype=float)
        s, c = self.s.reshape(-1), self.c.reshape(-1)
        # the running sums in order, then each step's exact error (TwoSum)
        part = np.add.accumulate(np.concatenate((s[None], v)), axis=0)
        prev, t = part[:-1], part[1:]
        back = t - prev
        err = prev - (t - back)
        err += v - back
        s[:] = part[-1]
        c[:] = np.add.accumulate(np.concatenate((c[None], err)), axis=0)[-1]

    def total(self) -> np.ndarray:
        return self.s + self.c


def _norm(pts):
    """The built-in observable f(x) = |x|, the Euclidean norm along the
    last axis (``norm_observable()``)."""
    return np.linalg.norm(pts, axis=-1)


def _identity(pts):
    """The built-in observable f(x) = x, a fresh float copy
    (``identity_observable()``)."""
    return np.array(pts, dtype=float, copy=True)


def _eval_window(f, hist: np.ndarray) -> np.ndarray:
    """Apply an observable to history (w, B, d) -> (w, B) + value shape.

    f maps the (N, d) points to (N,) for a scalar observable or to (N, m)
    for a vector one; any other shape is a ValueError naming it.
    """
    w, bsz, d = hist.shape
    n = w * bsz
    vals = np.asarray(f(hist.reshape(n, d)), dtype=float)
    if vals.shape[:1] != (n,) or vals.ndim > 2:
        raise ValueError(
            f"an observable must map points (N, d) to (N,) or (N, m); on "
            f"N={n} points it returned shape {vals.shape}")
    return vals.reshape((w, bsz) + vals.shape[1:])


def _window_library():
    """The C library for the window pass, or None for the numpy fold; the
    one place that chooses, so that replacing it with ``lambda: None``
    runs the window pass in numpy while the draw and the ticks keep C."""
    return _kernel.lib()


def _reduce_window(acc: _CompensatedSum, obs: int, record: np.ndarray,
                   pair: bool) -> int:
    """Add the window values of the built-in observable ``obs`` on the
    record (w, rows, d) to ``acc``, index by index in grid order, as
    ``_kernel.window`` takes them: a run's norm, or its row, which is also
    how a user f's values (w, rows, m) are added.  Returns i * B + b of the
    first non-finite value, at tick i of run b, or -1; the sums are then
    partial.

    Where the C library loads, one C call takes it all, on a C-ordered
    copy of the record if it is not one.  Otherwise numpy takes the values,
    a pair's fine minus coarse, the finite check and ``acc.add``: the same
    bytes and the same index."""
    if _window_library() is not None:
        return _kernel.window(obs, np.ascontiguousarray(record), pair,
                              acc.s.reshape(-1), acc.c.reshape(-1))
    vals = _norm(record)[..., None] if obs == _kernel.NORM else record
    if pair:
        half = vals.shape[1] // 2
        vals = vals[:, half:] - vals[:, :half]
    bad = np.flatnonzero(~np.isfinite(vals).all(axis=2))  # i * B + b
    if bad.size:
        return int(bad[0])
    acc.add(vals.reshape(len(vals), acc.s.size))
    return -1


def _value_failure(step: int, run: int) -> NumericalFailureError:
    """The error of a non-finite observable value at grid index ``step``
    of run ``run``."""
    return NumericalFailureError(
        f"non-finite observable value at step {step} (run {run}); the "
        f"trajectory left the observable's finite range", step_index=step,
        run_index=run)


def _workers() -> int:
    """The slice count of a level of many runs: the cores this process may
    run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _slices(model, n):
    """The slice count of n independent runs: one per core the process may
    run on (``_workers``) where the model ticks in C (``model._row_map``),
    else 1, since the Python tick loop's many small calls hold the GIL."""
    return min(_workers(), n) if _row_map(model) is not None else 1


def _run_slices(jobs):
    """Run each job as ``job(stopped)``, the first on this thread and each
    other on a thread started for it, in a copy of this thread's context
    (numpy's error state among it), and return the jobs' values in order,
    or None if a job raised an ``Exception``.

    ``stopped`` is a list, non-empty once a job raises or an interrupt
    lands in this call; a job checks it at its records and ends early
    (``_Stopped``).  An interrupt or an exit that a job raised goes on, the
    lowest job's first, then one that landed in this call's own start or
    wait.  No job runs once the call returns or raises: a thread begins
    its job only while ``stopped`` is empty, and the call waits, again
    after an interrupt, until no job runs (on Python < 3.13 a
    ``Thread.join`` broken off by an interrupt no longer waits)."""
    n = len(jobs)
    values, errors, stopped = [None] * n, [None] * n, []
    cond = threading.Condition()
    running = 0  # the jobs that began on a started thread and have not ended

    def run(i):
        try:
            values[i] = jobs[i](stopped)
        except BaseException as exc:  # _Stopped once another has failed
            errors[i] = exc
            stopped.append(i)

    def run_thread(i):
        nonlocal running
        with cond:
            begins = not stopped
            running += begins
        try:
            if begins:
                run(i)
        finally:
            with cond:
                running -= begins
                cond.notify()

    threads, own = [], None  # own: an error in this call's start or wait
    try:
        for i in range(1, n):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(run_thread, i),
                                      name="mlangevin-slice")
            thread.start()
            threads.append(thread)
        run(0)
    except BaseException as exc:  # a thread that cannot start, or Ctrl-C
        own = exc
        stopped.append(n)
    while True:
        try:
            with cond:
                cond.wait_for(lambda: not running)
            for thread in threads:
                thread.join()
            break
        except BaseException as exc:
            own = own or exc
            stopped.append(n)
    for exc in errors + [own]:
        if exc is not None and not isinstance(exc, Exception):
            raise exc  # an interrupt or an exit
    return None if stopped else values


class _Stopped(Exception):
    """A slice ended early: another one's failure ends the level."""


def _start_point(x0, d, bsz):
    """``x0`` as a float array, (d,) or (bsz, d) and finite; anything else
    is a ValueError."""
    shape = f"({d},) or ({bsz}, {d})"
    try:
        x = np.array(x0, dtype=float)
    except ValueError:
        raise ValueError(f"the start point must have shape {shape}") from None
    if x.shape not in ((d,), (bsz, d)):
        raise ValueError(
            f"the start point must have shape {shape}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("the start point must be finite")
    return x


def _loop(advance, x, hist, gamma, pair, g, scale, coarse):
    """The Euler tick loop in Python: ``len(hist)`` ticks of the state
    ``x`` as ``_kernel.ticks`` runs them, each row mapped in place by
    ``advance(rows, step)`` and then moved by its increment.  The fine
    increments are the normals ``g`` scaled in place; a pair's coarse
    increments, formed from the normals first, go to ``coarse``."""
    n = len(hist)
    bsz = len(x) // 2 if pair else len(x)
    g = g[:2 * n if pair else n]
    if pair:
        coarse = coarse[:n]
        np.add(g[0::2], g[1::2], out=coarse)
        coarse *= _INV_SQRT2
        coarse *= scale[1]
    g *= scale[0]
    fine = x[bsz:] if pair else x
    for j in range(n):
        hist[j] = x
        if pair:
            advance(fine, gamma)
            fine += g[2 * j]
            advance(x[:bsz], 2.0 * gamma)
            x[:bsz] += coarse[j]
        advance(fine, gamma)
        fine += g[2 * j + 1 if pair else j]


def _drive(model, x0, gamma, last, pair, streams, runs, visit, width=None):
    """The Euler engine: one level of B = len(runs) rows, a chain at step
    ``gamma`` or, with ``pair``, a synchronously coupled fine (step
    ``gamma``) / coarse (``2 * gamma``) pair, through grid indices
    0..``last`` of its grid (steps of a chain, coarse steps of a pair).

    The state is a chain's (B, d) rows or a pair's (2B, d) rows, its coarse
    rows over its fine rows.  Every row starts at ``x0``, (d,) or (B, d);
    any other shape, or a non-finite value, is a ValueError raised before
    any step.  A tick is one step of the level's grid: the chain maps its
    rows and adds their increments, or the pair's fine rows take their
    first step, its coarse rows the coarse step and its fine rows their
    second step.  For the built-in potentials (see ``model._row_map``) one
    C call (``_kernel.ticks``) runs a chunk's ticks.  Otherwise ``_loop``
    ticks in Python with ``model.advance`` calls, each on rows with one
    float step.  The model needs only ``dim``, ``noise_scale`` and
    ``advance``.

    The standard normals, one per fine step, come from ``streams``: one
    stream per row, in row order (the estimator's runs), or one stream for
    all B rows (the confluence probe); any other count is a ValueError.
    Each chunk's draw fills one raw buffer, (streams, steps, B // streams,
    d), a contiguous slice per stream, and both tick loops read it through
    one tick-major view (steps, B, d): fine step s of the chunk (a chain's
    tick j at s = j, a pair's at s = 2j and 2j + 1) at index s, row r at
    one stride per row.  Fine steps take noise_scale * sqrt(gamma) * g,
    the coarse step noise_scale * sqrt(2 gamma) * ((g1 + g2) * (1 /
    sqrt(2))) of the two fine normals it spans, so both ride one Brownian
    path; euler_step's arithmetic, bit for bit.  The C loop scales the
    normals as it adds them; ``_loop`` scales them in place.

    The level advances ``c`` ticks per chunk, ``c`` sized from ``width``
    rows, the rows whose chunks share memory (the whole level's run count
    when this one is a slice of it, ``_run_level``; both pairs' paths for
    the confluence probe, whose two pairs may run at once; else B), three
    states of them per tick, to about
    ``_CHUNK_ELEMENT_TARGET`` elements and never above ``_CHUNK_STEP_CAP``
    ticks.  Each chunk records the state at each tick's start, grid index
    k at tick k, in one buffer.  The level runs on the calling thread,
    draws included.

    ``visit(lo, states)`` sees the level's finite states once, in grid
    order, record by record: the states at grid indices lo, lo + 1, ...,
    as a view of the record, and last the final state, at index ``last``,
    as a one-tick record.  A non-finite state at index i is a
    NumericalFailureError naming step i and its run, ``runs[row]``, raised
    once the states before it have been visited; an error that ``visit``
    raises ends the level first.  So the earliest failure wins whatever
    the chunk layout.  Overflow warnings are silenced, in the ticks and
    the visits alike: a blow-up surfaces from these explicit finiteness
    checks instead.
    """
    bsz, d, gamma = len(runs), model.dim, float(gamma)
    x = _start_point(x0, d, bsz)
    if len(streams) not in (1, bsz):
        raise ValueError(f"a level of {bsz} rows takes one noise stream "
                         f"or one per row, got {len(streams)}")
    blocks = 2 if pair else 1  # rows per run, and fine steps per tick
    # C order: a sum along the last axis of F-ordered rows rounds otherwise
    x = np.array(np.broadcast_to(x, (blocks, bsz, d)),
                 order="C").reshape(blocks * bsz, d)
    # of the fine (or chain's) and the coarse standard normals
    scale = (model.noise_scale * math.sqrt(gamma),
             model.noise_scale * math.sqrt(2.0 * gamma))
    # the record, the normals and the values of the whole level's rows
    c = max(1, min(_CHUNK_STEP_CAP, _CHUNK_ELEMENT_TARGET
                   // (3 * blocks * (width or bsz) * d)))
    size = min(c, last)
    hist = np.empty((size,) + x.shape)
    raw = np.empty((len(streams), blocks * size, bsz // len(streams), d))
    # views, never copies: the draws must land where the ticks read
    g = raw[0] if len(streams) == 1 else raw[:, :, 0].transpose(1, 0, 2)
    row_map = _row_map(model)
    coarse = np.empty((size, bsz, d)) if row_map is None and pair else None
    ok = True  # every state so far is finite; a non-finite one stays so
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in [*range(0, last, c), last]:
            if lo < last:
                n = min(c, last - lo)
                for i, st in enumerate(streams):
                    st.standard_normal(out=raw[i, :blocks * n])
                if row_map is not None:
                    _kernel.ticks(row_map, x, hist[:n], gamma, pair, g,
                                  scale)
                else:
                    _loop(model.advance, x, hist[:n], gamma, pair, g, scale,
                          coarse)
                ok = ok and bool(np.isfinite(x).all())
                states = hist[:n]
            else:  # the final state
                states = x[None]
            err = None
            if not ok:
                finite = np.isfinite(states).all(-1)
                if pair:  # a run fails with either of its rows
                    finite = finite[:, :bsz] & finite[:, bsz:]
                if not finite.all():
                    j, row = np.argwhere(~finite)[0].tolist()
                    states = states[:j]
                    kind, name = (("coarse ", "gamma_fine") if pair
                                  else ("", "gamma"))
                    err = NumericalFailureError(
                        f"non-finite position at {kind}step {lo + j} (run "
                        f"{runs[row]}, {name}={gamma}); the step size is "
                        f"likely too large for this model",
                        step_index=lo + j, run_index=runs[row])
            if len(states):
                visit(lo, states)
            if err is not None:
                raise err


def _window(gamma, tau, t, pair):
    """A level's averaging window, grid indices [k0, k1) with k0 = n(tau)
    and k1 = n(T), and its step count: n_gamma(T) for a chain at step
    gamma, both chains' for a pair, whose grid is the coarse one, 2 gamma.
    """
    fine = n_gamma(t, gamma)  # checks t and gamma
    grid = 2.0 * float(gamma) if pair else gamma
    if not 0.0 <= tau < t:
        raise ValueError(f"need 0 <= tau < T, got tau={tau}, T={t}")
    k0, k1 = n_gamma(tau, grid), n_gamma(t, grid)
    if k1 - k0 < 1:
        raise ValueError(
            f"empty averaging window: n({t})={k1}, n({tau})={k0} at gamma={grid}")
    return k0, k1, fine + k1 if pair else k1


def _run_level(model, x0, gamma, tau, t, f, streams, pair):
    """One level's compensated window average of f per run, and its step
    count.

    A pair averages f(fine) - f(coarse).  The window is summed in grid
    order, compensated (``_CompensatedSum``), so neither the chunk nor the
    batch width changes a bit.  f sees one record's part of the window at
    a time, at most a chunk of indices: a memory bound.  Averages are (B,)
    for a scalar observable, (B, m) for a vector one.  A built-in
    observable (``f is _norm`` or ``f is _identity``) is not called: its
    values come from the record.  Each record's window then takes one
    ``_reduce_window`` call: the values, a pair's difference, the finite
    check and the sums, in one C call where the library loads, with the
    same bytes and the same error either way.

    Where the level ticks in C (``model._row_map``), its B runs are cut
    into min(``_workers()``, B) contiguous slices, each run by ``_drive``
    on a thread of its own (``_run_slices``) with its own sums; the
    averages are theirs in row order.  A level of one slice (it ticks in
    Python, whose many small numpy calls hold the GIL, or has one core or
    one run) runs its one engine on the calling thread.

    No slice runs once the level returns or raises (``_run_slices``), so
    f may itself run a level.  Once a slice fails, the others end at their
    next record.  An interrupt or an exit then goes on as it is, the
    lowest slice's first.  Any other error sends each ``NoiseStream`` back
    to its state when the level began, and the level runs again as one
    engine over all B rows, on the calling thread: it raises what that run
    raises, or returns its averages.
    """
    k0, k1, steps = _window(gamma, tau, t, pair)
    bsz = len(streams)
    x = _start_point(x0, model.dim, bsz)
    n = _slices(model, bsz)
    builtin = (_kernel.NORM if f is _norm
               else _kernel.IDENTITY if f is _identity else None)

    def engine(lo, hi, stopped=()):
        """The window sums of rows lo..hi-1 of the level, in one engine
        that ends at its next record once ``stopped`` is non-empty."""
        runs = [st.run_index for st in streams[lo:hi]]
        acc = None

        def visit(first, states):
            nonlocal acc
            if stopped:
                raise _Stopped
            skip = max(k0 - first, 0)
            if skip >= len(states):
                return
            record, obs, shape = states[skip:], builtin, (hi - lo,)
            if builtin is None:  # f's values, summed as the identity's
                vals = _eval_window(f, record)
                shape += vals.shape[2:]
                record = vals.reshape(vals.shape[:2] + (-1,))
                obs = _kernel.IDENTITY
            elif builtin == _kernel.IDENTITY:
                shape += (model.dim,)
            if acc is None:
                acc = _CompensatedSum(shape)
            bad = _reduce_window(acc, obs, record, pair)
            if bad >= 0:
                step, row = divmod(bad, hi - lo)
                raise _value_failure(first + skip + step, runs[row])

        _drive(model, x if x.ndim == 1 else x[lo:hi], gamma, k1 - 1, pair,
               streams[lo:hi], runs, visit, width=bsz)
        return acc.total()

    if n == 1:
        return engine(0, bsz) / (k1 - k0), steps
    cuts = [bsz * i // n for i in range(n + 1)]
    start = [(st, st._state()) for st in streams
             if isinstance(st, NoiseStream)]
    totals = _run_slices([functools.partial(engine, cuts[i], cuts[i + 1])
                          for i in range(n)])
    if totals is None:  # one engine raises the level's error
        for st, words in start:
            st._set_state(words)
        totals = [engine(0, bsz)]
    return np.concatenate(totals) / (k1 - k0), steps


def _run_value(row):
    """One run's average: a float for a scalar observable, else an array."""
    return float(row) if np.ndim(row) == 0 else np.array(row, dtype=float)


def _run_level0_batch(model, x0, gamma0, tau, t0, f, streams):
    """Level 0 for a batch of runs: a single chain at step gamma0."""
    return _run_level(model, x0, gamma0, tau, t0, f, streams, pair=False)


def _run_coupled_batch(model, x0, gamma_fine, tau, t, f, streams):
    """Level r >= 1 for a batch of runs: a coupled pair, fine step gamma_fine."""
    return _run_level(model, x0, gamma_fine, tau, t, f, streams, pair=True)


def run_level0(model, x0: np.ndarray, gamma0: float, tau: float, t0: float,
               f, stream: NoiseStream):
    """Occupation average of f along one Euler chain.

    Simulates from time 0 to T0 at step gamma0 starting from x0 and returns
    the uniform average of f over grid indices k in
    [n_gamma(tau), n_gamma(T0) - 1] together with the iteration count
    n_gamma(T0).

    Args:
        model: LangevinModel.
        x0: Starting point, shape (d,).
        gamma0: Step size.
        tau: Burn-in time (0 <= tau < T0).
        t0: Horizon.
        f: The observable, a function mapping points (N, d) to values (N,)
            (scalar) or (N, m) (vector).
        stream: NoiseStream driving this chain.

    Returns:
        (average, iterations); average is a float for scalar observables or
        an ndarray for vector ones.
    """
    avg, iterations = _run_level0_batch(model, x0, gamma0, tau, t0, f,
                                        [stream])
    return _run_value(avg[0]), iterations


def run_coupled_level(model, x0: np.ndarray, gamma_fine: float, tau: float,
                      t: float, f, stream: NoiseStream):
    """Averaged fine-minus-coarse observable difference on the coarse grid.

    Advances a fine chain (step gamma_fine) and a coarse chain (step
    2*gamma_fine) from the same x0 and the same Brownian increments, and
    returns the uniform average of f(fine) - f(coarse) over coarse grid
    indices k in [n(tau), n(T) - 1], together with the reported iteration
    count n_{gamma_fine}(T) + n_{2 gamma_fine}(T).

    Args follow run_level0 with gamma_fine the fine step.
    """
    avg, iterations = _run_coupled_batch(model, x0, gamma_fine, tau, t, f,
                                         [stream])
    return _run_value(avg[0]), iterations
