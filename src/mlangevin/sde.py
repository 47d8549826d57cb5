"""Constant-step Euler-Maruyama engine with synchronously coupled pairs.

One engine, ``_Engine``, is the only stepping loop, and every path
simulation goes through it (``_drive``):

* ``run_level0``: one chain at step gamma0, returning the occupation
  (pathwise time) average of an observable over a burn-in-trimmed window.
* ``run_coupled_level``: a fine chain (step gamma) and a coarse chain (step
  2*gamma), returning the averaged difference of the observable read at
  coarse grid times only.
* the estimator's levels, run together (below).
* the contraction and confluence probes in ``diagnostics``.

The engine runs a group of levels of B runs each in one tick loop.  A tick
is one coarse step of every coupled level and two steps of the level-0
chain.  The state is one (rows, d) array laid out ``[C_m .. C_1 | L0 | F_1
.. F_m]``: the pairs' coarse rows, the chain, the pairs' fine rows, with the
pairs sorted by tick count so that the longest sit next to the chain.  Each
tick maps and moves two contiguous slices, each row by its own step: A the
chain and the active fine rows (their first step), B the active coarse
rows, the chain and the active fine rows.  A level retires by leaving both
slices.  Each tick is recorded in level order, so that every level reads
its states as one slice of one buffer: the chain at the tick's start and
after call A (its grid indices 2t and 2t + 1), then each pair's coarse rows
over its fine rows (coarse index t).  The engine checks the start point
(shape (d,) or (B, d), finite), draws the standard normals and turns them
into the Euler increments, and reads the first non-finite step and run of
a failure from its record; the lowest failing level's earliest failure
wins.

The drift enters only through the model's in-place Euler map
``model.advance(x, step)``, x <- x + step * b(x), with ``step`` a float or
a (rows, 1) column; with ``dim`` and ``noise_scale`` it is all the engine
asks of a model.  ``LangevinModel`` maps through ``Potential.descend``,
which falls back to ``Potential.grad`` for a user potential.  The two
built-in potentials, ``QuadraticPotential`` and
``LogisticPerturbedPotential``, map rows in C (``_kernel``): for a
``LangevinModel`` whose potential's ``descend`` is one of theirs, the engine
runs each span of ticks between level events in one C call, with no
``advance`` call at all.  Any other model -- a user potential, a subclass
with its own ``descend``, a model with its own ``advance`` -- and every
model where the C library cannot be built, ticks in Python with two
``advance`` calls per tick.  Both paths give each row the bits of a map by
its own float step.

``euler_step`` is the single-step reference the engine matches bit for bit:
it takes the same map (the built-in ``descend`` calls the same C row map as
the engine's C loop), then adds the same scaled increment.

Grouping: levels share a tick loop while the group's rows stay within
``_FUSE_ROW_CAP`` (256) rows; wider levels run alone.  A chunk's buffers
hold all of a group's rows, so a wider group takes fewer ticks per chunk,
and each run draws its noise once per level and chunk: the cap bounds the
chunk's shrinkage and the count of noise calls.  On the Python path fusion
also saves ``advance`` calls, each with a fixed cost, where a step column
costs more than a scalar step on many rows (a slice wider than the cap is
mapped per run of rows with one step).  So 20 runs of R = 5 (220 rows)
share one loop, while 200 runs run level by level.

An observable is any function f acting along the last axis, as
``Potential.grad`` does: it maps a batch of path points (N, d) to values of
shape (N,) for a scalar observable or (N, m) for a vector one.  The shape of
its value is the only scalar/vector signal; one reduction path serves both,
and a level returns a float per run for the first and an (m,) array for the
second.  Any other value shape is a ValueError that names it.  A coupled
level takes the fine-minus-coarse difference in place, in the array f
returns, so f must return a writable array that it does not keep: a fresh
one, as both built-in observables do, or a view of its input.

Sampling windows use the grid-index rule ``n_gamma(t) = max{k : k*gamma <= t}``
with the average taken over indices ``k in [n_gamma(tau), n_gamma(T) - 1]``;
no interpolation or border-weight modification is applied at window edges.

Randomness comes from ``NoiseStream``, a counter-based (Philox) generator keyed
by ``(master_seed, level_index, run_index)`` through a fixed, documented mixing
rule, so every trajectory is bit-reproducible across platforms, chunk sizes,
groupings, batch layouts and core counts.  Each stream draws raw standard
normals straight into its level's buffer, a contiguous slice per chunk
(``standard_normal(out=...)``), and the C tick loop scales them as it adds them
(``_Engine``).  A chunk's draws, one job per run's stream (or per shared
stream), run on the process's cores (``_run_draws``): numpy fills an array
without the GIL, and each job fills its own slice from its own stream, so no
byte depends on the core count.  There is no setting.  Batches of independent
runs advance together as rows; every per-run operation acts elementwise or
along the last axis only, so batched trajectories are bit-identical to
one-run-at-a-time execution.

Each window is summed in grid order, compensated: every run and value
coordinate adds its window values one grid index at a time to a Neumaier
sum (``_CompensatedSum``), so averages over 10^7+ terms keep near-full
precision and the chunk, the grouping and the batch width change no bit.
Every level of an estimate equals its standalone ``run_level0`` /
``run_coupled_level`` call byte for byte.  The engine advances c ticks per
chunk, with c sized from the group's rows to bound its buffers' memory
(``_CHUNK_ELEMENT_TARGET``, at most ``_CHUNK_STEP_CAP`` ticks).
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

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

# A chunk's buffers hold about this many elements, in at most this many
# ticks: a memory setting only, as no output depends on the chunk.  The
# count is the record (every row, and the chain's rows a second time, per
# tick) and two increment buffers of all rows, more than the raw normals
# that the C path keeps (one fine row per run and step, none for coarse
# rows); the number is unchanged from when that was the layout, so memory
# and speed stay where they were.
# Each run draws once per level and chunk, so a shorter chunk costs calls.
_CHUNK_ELEMENT_TARGET = 4_000_000
_CHUNK_STEP_CAP = 4096
# Levels share one tick loop while their rows stay this narrow; see _groups.
_FUSE_ROW_CAP = 256

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
        # explicit uint64 words: a python-int key would be routed through
        # float64 above 2**63 and lose low bits (adjacent keys collide)
        key = np.array(
            [self.master_seed,
             self.run_index * _MAX_LEVEL_INDEX + self.level_index],
            dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    # every draw goes through here: the benchmark tracer counts it
    def standard_normal(self, shape=None, out=None):
        """Draw standard normals; mirrors ``numpy.random.Generator``.

        Returns a new array of ``shape`` (a float when both are None), or
        fills ``out`` and returns it.  ``out`` must be a C-contiguous,
        writable float64 array, of shape ``shape`` when both are given;
        otherwise it is a ValueError (a TypeError for another dtype).  The
        stream advances the same way either way, so draws into consecutive
        slices equal one shaped draw.
        """
        # numpy fills an F-ordered out in memory order: not a shaped draw
        if isinstance(out, np.ndarray) and not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous array")
        return self._gen.standard_normal(shape, out=out)


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
    split into calls or which slots sit beside it.  The C loop
    (``_kernel.csum``) and the numpy fold below do the same arithmetic, bit
    for bit."""

    def __init__(self, shape):
        self.s = np.zeros(shape)
        self.c = np.zeros(shape)

    # a benchmark tracer target, as are _eval_window and _reduce_window
    def add(self, v) -> None:
        """Add rows ``v`` (w, n), n the slot count, one row at a time."""
        v = np.asarray(v, dtype=float)
        s, c = self.s.reshape(-1), self.c.reshape(-1)
        if _kernel.csum(v, s, c):
            return
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


def _eval_window(f, hist: np.ndarray) -> np.ndarray:
    """Apply an observable to history (w, B, d) -> (w, B) + value shape.

    f maps the (N, d) points to (N,) for a scalar observable or to (N, m)
    for a vector one; any other shape is a ValueError naming it.
    """
    w, bsz, d = hist.shape
    vals = np.asarray(f(hist.reshape(w * bsz, d)), dtype=float)
    if vals.shape[:1] != (w * bsz,) or vals.ndim > 2:
        raise ValueError(
            f"an observable must map points (N, d) to (N,) or (N, m); on "
            f"N={w * bsz} points it returned shape {vals.shape}")
    return vals.reshape((w, bsz) + vals.shape[1:])


def _reduce_window(acc: _CompensatedSum, vals: np.ndarray) -> None:
    """Add window values (w, B[, m]) to ``acc``, index by index in grid
    order."""
    acc.add(vals.reshape(len(vals), -1))


def _check_values_finite(vals: np.ndarray, first_index: int,
                         runs: Sequence[int]) -> None:
    """Raise with the offending grid index and run (``runs[row]``) when
    observable values blow up."""
    finite = np.isfinite(vals).all(axis=tuple(range(2, vals.ndim)))
    if not finite.all():
        j, row = np.argwhere(~finite)[0]
        run = runs[row]
        raise NumericalFailureError(
            f"non-finite observable value at step {first_index + int(j)} "
            f"(run {run}); the trajectory left the observable's finite "
            f"range", step_index=first_index + int(j), run_index=run)


def _quiet_overflow(fn):
    """Silence intermediate overflow warnings; blow-ups surface as
    NumericalFailureError from the explicit finiteness checks instead."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return wrapper


# The draw's threads, as (count, executor), made at the first draw that
# spreads (_run_draws) and forgotten in a forked child, which has none.
_pool = None


def _forget_pool():
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _workers() -> int:
    """The draw's worker count: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _run_all(jobs):
    """Run ``jobs`` in order, then drop them: a pool thread holds its last
    task until it takes the next one, and the jobs hold their buffers."""
    try:
        for job in jobs:
            job()
    finally:
        jobs.clear()


def _run_draws(jobs):
    """Run a chunk's draw jobs on up to ``_workers()`` threads, this one
    among them, one share of every n-th job each.  numpy fills an array
    from a Philox stream without the GIL, and each job fills its own slice
    from its own stream, so the bits depend neither on the worker count nor
    on the schedule.  With one worker or one job the draws run here.  Once
    every share has ended, the first exception raised is raised again."""
    global _pool
    n = min(_workers(), len(jobs))
    if n <= 1:
        _run_all(jobs)
        return
    size, pool = _pool or (0, None)
    if size < n - 1:
        # imported here: the package starts no thread and imports no pool.
        # A smaller pool is dropped, not shut down: a caller on another
        # thread may still hold it, and its threads end once it is freed.
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(n - 1, thread_name_prefix="mlangevin-draw")
        _pool = (n - 1, pool)
    futures = [pool.submit(_run_all, jobs[w::n]) for w in range(1, n)]
    try:
        _run_all(jobs[0::n])
    finally:
        errors = [f.exception() for f in futures]  # waits for every share
    for exc in errors:
        if exc is not None:
            raise exc


class _Level:
    """One level of a group: a chain at step ``gamma`` or, with ``pair``, a
    synchronously coupled fine (step ``gamma``) / coarse (``2 * gamma``)
    pair, visiting grid indices 0..``last`` of its grid (steps of a chain,
    coarse steps of a pair).

    Its standard normals, two fine steps per tick, come from ``streams``:
    one ``NoiseStream`` per run, run b drawing (steps, d) from
    ``streams[b]``; or, with ``width``, one stream that all runs share,
    drawing (steps, width, d), run b reading column b % width.  ``k0`` is
    the first index of its averaging window, ``acc`` its window sum (one
    ``_CompensatedSum`` slot per run and coordinate, added in grid order),
    and ``label`` the estimator level that a failure names
    (None elsewhere).  In a group, ``rows`` (and a pair's ``coarse``) are
    its state rows and ``block`` its 2B rows of each tick's record.
    """

    def __init__(self, gamma, last, pair, streams, k0=0, label=None,
                 width=None):
        self.gamma, self.last, self.pair = float(gamma), last, pair
        self.streams, self.width = list(streams), width
        self.k0, self.label = k0, label
        # a tick is two steps of a chain and one coarse step of a pair
        self.ticks = last if pair else (last + 1) // 2
        self.rows = self.coarse = self.block = self.acc = None


def _groups(levels, bsz):
    """Split ``levels``, in order, into groups that one tick loop runs: a
    pair joins the group before it while the group's rows stay within
    ``_FUSE_ROW_CAP`` (B rows per chain, 2B per pair).  Fusing saves
    calls, each with a fixed cost, but a wider group takes shorter chunks
    and so more noise calls; wide levels run alone."""
    groups, rows = [], 0
    for lvl in levels:
        width = (2 if lvl.pair else 1) * bsz
        if groups and lvl.pair and rows + width <= _FUSE_ROW_CAP:
            groups[-1].append(lvl)
            rows += width
        else:
            groups.append([lvl])
            rows = width
    return groups


class _Engine:
    """The Euler engine: one tick loop for a group of levels of B runs each.

    The state is one (rows, d) array laid out ``[C_m .. C_1 | L0 | F_1 ..
    F_m]``: the coarse rows of the pairs, the chain (at most one), the fine
    rows of the pairs, B rows per block, with the pairs sorted by tick
    count so that the longest sit next to the chain.  Every block starts at
    ``x0``, (d,) or (B, d); any other shape, or a non-finite value, is a
    ValueError raised before any step.  A tick maps two contiguous slices,
    each row by its own step, and adds their increments:

    * A: the chain and the active fine rows, their first step;
    * B: the active coarse rows, the chain and the active fine rows (the
      coarse step, the chain's second step, the fine second step).

    For the built-in potentials (see ``model._row_map``) one C call
    (``_kernel.ticks``) runs a whole span of ticks between level events.
    Otherwise ``_loop`` ticks in Python with two ``model.advance`` calls,
    each on one slice with a per-row step column (a float where the slice
    has one step; a slice of more than ``_FUSE_ROW_CAP`` rows is mapped per
    run of rows with one step).

    A pair retires after ``ticks`` by leaving both slices, so its rows hold
    its last state.  A chain that ends before a pair rides along in call B
    with zero increments, its states unread.  The model needs only
    ``dim``, ``noise_scale`` and ``advance``.

    The engine draws standard normals and turns them into the Euler
    increments.  Each level draws into its own raw buffer for the group,
    fine step 2j + s of tick j at index 2j + s, in its stream's own order:
    run-major (B, 2c, d) for one stream per run, so that each run's draw
    is one contiguous slice, tick-major (2c, width, d) for a shared one.
    Fine steps take noise_scale * sqrt(gamma) * g, the coarse step
    noise_scale * sqrt(2 gamma) * ((g1 + g2) * (1 / sqrt(2))) of the two
    fine normals it spans, so both ride one Brownian path; euler_step's
    arithmetic, bit for bit.  The C loop reads each row's normals through
    a per-row table (``_table``) and scales them as it adds them, storing
    no increment; ``_loop`` reads the same scaled increments, which
    ``_increments`` builds from the raw buffers per chunk.  The buffers
    are freed when the group ends.

    ``chunks`` advances ``chunk`` ticks at a time and, after each chunk,
    holds its first tick in ``k`` and its record in ``hist``, (n, rows +
    b0, d) for n ticks (b0 = B with a chain, 0 without), then a last
    one-tick record of the final state.  A tick's record lies in level
    order, in blocks of B rows: the chain at the tick's start, the chain
    after call A, then each pair's coarse rows and fine rows, in ``pairs``
    order.  Each level owns the 2B rows ``block`` of every tick, copied
    from the state's blocks of B rows that ``src`` lists, and ``states``
    reads them by grid index: a pair's (n, 2B, d) block as is, a chain's as
    (2n, B, d) in grid order, a view when the chain is alone.  ``chunk`` is
    sized from the group's rows: the record and two increment buffers of
    all rows would hold about ``budget`` elements (the raw normals hold
    fewer), and never above ``_CHUNK_STEP_CAP`` ticks.
    """

    def __init__(self, model, x0, levels, bsz, budget):
        d = model.dim
        shape = f"({d},) or ({bsz}, {d})"
        try:
            x = np.array(x0, dtype=float)
        except ValueError:
            raise ValueError(
                f"the start point must have shape {shape}") from None
        if x.shape not in ((d,), (bsz, d)):
            raise ValueError(
                f"the start point must have shape {shape}, got {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("the start point must be finite")
        self.levels, self.bsz = levels, bsz
        self.chain = next((lvl for lvl in levels if not lvl.pair), None)
        self.pairs = sorted((lvl for lvl in levels if lvl.pair),
                            key=lambda lvl: -lvl.ticks)
        self.lo = lo = len(self.pairs) * bsz  # first row of L0, or of F_1
        self.b0 = b0 = bsz if self.chain else 0
        rows = 2 * lo + b0
        if self.chain:
            self.chain.rows = slice(lo, lo + b0)
        for i, lvl in enumerate(self.pairs):
            lvl.rows = slice(lo + b0 + i * bsz, lo + b0 + (i + 1) * bsz)
            lvl.coarse = slice(lo - (i + 1) * bsz, lo - i * bsz)
        # block i of a tick's record copies the state's block src[i] of B
        # rows: the chain twice (at the tick's start, after call A), then
        # each pair's coarse rows and fine rows
        src = []
        for lvl in ([self.chain] if self.chain else []) + self.pairs:
            lvl.block = slice(len(src) * bsz, (len(src) + 2) * bsz)
            src += [(lvl.coarse if lvl.pair else lvl.rows).start // bsz,
                    lvl.rows.start // bsz]
        self.src = np.array(src, dtype=np.int64)
        # C order: a sum along the last axis of F-ordered rows rounds otherwise
        self.x = np.array(np.broadcast_to(x, (rows // bsz, bsz, d)),
                          order="C").reshape(rows, d)
        self.col = np.empty((rows, 1))
        self.scale = np.empty(rows)  # of each row's standard normals
        for lvl in levels:
            self.col[lvl.rows] = lvl.gamma
            self.scale[lvl.rows] = model.noise_scale * math.sqrt(lvl.gamma)
            if lvl.pair:
                self.col[lvl.coarse] = 2.0 * lvl.gamma
                self.scale[lvl.coarse] = model.noise_scale * math.sqrt(
                    2.0 * lvl.gamma)
        units = rows + b0 + 2 * rows  # the record and the increments
        self.chunk = max(1, min(_CHUNK_STEP_CAP, budget // (units * d)))

    def _maps(self, rows):
        """The ``advance`` calls of one tick on ``rows``, as (view, step)
        pairs: one with the per-row step column, or a float where the rows
        share one step; on more than ``_FUSE_ROW_CAP`` rows, one per run of
        rows with one step, as a column multiply costs more there."""
        col = self.col[rows, 0]
        edges = [0, *(np.flatnonzero(col[1:] != col[:-1]) + 1), len(col)]
        if len(edges) > 2 and len(col) <= _FUSE_ROW_CAP:
            return [(self.x[rows], self.col[rows])]
        return [(self.x[rows.start + a:rows.start + b], float(col[a]))
                for a, b in zip(edges, edges[1:])]

    def _calls(self, t):
        """The rows of calls A and B at tick t (B None when empty)."""
        active = sum(lvl.ticks > t for lvl in self.pairs)
        chain, lo, b0 = self.chain, self.lo, self.b0
        hi = lo + b0 + active * self.bsz
        running = chain is not None and t < chain.ticks
        call_a = slice(lo if running else lo + b0, hi)
        call_b = None
        if active:
            call_b = slice(lo - active * self.bsz, hi)
        elif chain is not None and t < chain.last // 2:
            call_b = slice(lo, hi)
        return call_a, call_b

    def _buffer(self, lvl, steps):
        """A raw buffer of ``steps`` fine steps of ``lvl``'s normals, as a
        tick-major view (steps, width, d): one stream per run lies
        run-major, so that each run's draw is one contiguous slice."""
        d = self.x.shape[1]
        if lvl.width is None:
            return np.empty((self.bsz, steps, d)).transpose(1, 0, 2)
        return np.empty((steps, lvl.width, d))

    def _table(self, raw):
        """The per-row noise table of ``_kernel.ticks``: each row's first
        normal in ``raw`` (a coarse row's is its fine row's), its stride
        per fine step, its scale, and the first row that is not coarse."""
        g = np.empty(len(self.x), dtype=np.uintp)
        g_step = np.empty(len(self.x), dtype=np.int64)
        for lvl, buf in zip(self.levels, raw):
            first = buf.ctypes.data + np.arange(self.bsz) % buf.shape[1] \
                * buf.strides[1]
            for rows in (lvl.rows, lvl.coarse) if lvl.pair else (lvl.rows,):
                g[rows], g_step[rows] = first, buf.strides[0] // buf.itemsize
        return g, g_step, self.scale, self.lo

    def _draw(self, k, n, raw):
        """Draw the standard normals of ticks [k, k + n) into each level's
        raw buffer, fine step s of the chunk at ``raw[s]``: one job per
        run's stream, or one per shared stream (``_run_draws``).  Return
        each level's count of fine steps; past them a chain reads zeros."""
        jobs, drawn = [], []
        for lvl, buf in zip(self.levels, raw):
            if lvl.pair:
                steps = 2 * min(max(lvl.last - k, 0), n)
            else:
                steps = min(max(lvl.last - 2 * k, 0), 2 * n)
                buf[steps:2 * n] = 0.0  # call B may carry it past its end
            drawn.append(steps)
            if not steps:
                continue
            if lvl.width is not None:
                jobs.append(functools.partial(lvl.streams[0].standard_normal,
                                              out=buf[:steps]))
                continue
            jobs += [functools.partial(st.standard_normal, out=buf[:steps, b])
                     for b, st in enumerate(lvl.streams)]
        _run_draws(jobs)
        return drawn

    def _increments(self, n, raw, drawn, inc):
        """The scaled increments of the chunk's n ticks, as the C loop forms
        them, for ``_loop``: those of call A at ``inc[2j]``, of call B at
        ``inc[2j + 1]``.  Fine steps take noise_scale * sqrt(gamma) * g,
        the coarse step noise_scale * sqrt(2 gamma) * (g1 + g2) / sqrt(2)."""
        for lvl, buf, steps in zip(self.levels, raw, drawn):
            scale = self.scale[lvl.rows, None]
            if not lvl.pair:  # with its zeros
                np.multiply(buf[:2 * n], scale, out=inc[:2 * n, lvl.rows])
                continue
            np.multiply(buf[:steps], scale, out=inc[:steps, lvl.rows])
            coarse = inc[1:steps:2, lvl.coarse]
            np.add(buf[0:steps:2], buf[1:steps:2], out=coarse)
            coarse *= _INV_SQRT2
            coarse *= self.scale[lvl.coarse, None]

    @staticmethod
    def _loop(advance, blocks, src, hist, call_a, call_b, chain):
        """The Euler tick loop: ``len(hist)`` ticks of the state, whose
        blocks of B rows are ``blocks``.

        Per tick j the state's blocks ``src`` on entry go to ``hist[j]``,
        (len(src), B, d); call A maps each of its (view, step) pieces in
        place with ``advance(view, step)`` and adds its increment ``inc[j]``
        to its rows; with ``chain``, (rows, record), the chain's rows then
        go to ``record[j]``; then call B does as call A.
        """
        maps_a, rows_a, inc_a = call_a
        maps_b, rows_b, inc_b = call_b or ((), None, None)
        chain, second = chain or (None, None)
        for j in range(len(hist)):
            # mode="raise" would buffer out: clip writes hist[j] in place
            np.take(blocks, src, axis=0, out=hist[j], mode="clip")
            for rows, step in maps_a:
                advance(rows, step)
            rows_a += inc_a[j]
            if chain is not None:
                second[j] = chain
            if rows_b is not None:
                for rows, step in maps_b:
                    advance(rows, step)
                rows_b += inc_b[j]

    def chunks(self, model):
        """Advance the group to its end; after each chunk yield whether
        every state so far is finite (a non-finite one stays so)."""
        x, c = self.x, self.chunk
        total = max(lvl.ticks for lvl in self.levels)
        size = min(c, total)
        bsz, d = self.bsz, x.shape[1]
        blocks = x.reshape(-1, bsz, d)  # the state's blocks of B rows
        record = np.empty((size, len(self.src), bsz, d))
        hist = record.reshape(size, len(self.src) * bsz, d)
        # a pair draws no more than its ticks; a chain reads zeros past its
        # end, while call B carries it
        raw = [self._buffer(lvl, 2 * (min(size, lvl.ticks) if lvl.pair
                                      else size)) for lvl in self.levels]
        events = {lvl.ticks for lvl in self.pairs}
        if self.chain is not None:
            events |= {self.chain.last // 2, self.chain.ticks}
        row_map = _row_map(model)
        if row_map is not None:
            noise, inc = self._table(raw), None
        else:
            inc = np.empty((2 * size,) + x.shape)
        ok = True
        for k in range(0, total, c):
            n = min(c, total - k)
            drawn = self._draw(k, n, raw)
            if inc is not None:
                self._increments(n, raw, drawn, inc)
            edges = sorted({k, k + n} | {e for e in events if k < e < k + n})
            for t0, t1 in zip(edges, edges[1:]):
                a, b = self._calls(t0)
                j0, j1 = t0 - k, t1 - k
                if row_map is not None:
                    _kernel.ticks(row_map, x, self.col, hist[j0:j1], self.src,
                                  self.chain is not None, a, b, noise, j0)
                    continue
                # the chain's second block, its state after call A
                chain = self.chain and (x[self.chain.rows], record[j0:j1, 1])
                self._loop(model.advance, blocks, self.src, record[j0:j1],
                           (self._maps(a), x[a], inc[2 * j0:2 * j1:2, a]),
                           b and (self._maps(b), x[b],
                                  inc[2 * j0 + 1:2 * j1:2, b]), chain)
            ok = ok and bool(np.isfinite(x).all())
            self.k, self.hist = k, hist[:n]
            yield ok
        raw = noise = inc = None  # the group's noise is spent: free it
        self.k, self.hist = total, blocks[self.src].reshape(1, -1, d)
        yield ok

    def span(self, lvl):
        """The grid indices [lo, hi) of ``lvl`` in the current record: one
        per tick of a pair, two per tick of a chain."""
        per = 1 if lvl.pair else 2
        first = per * self.k
        return first, min(first + per * len(self.hist), lvl.last + 1)

    def states(self, lvl, lo, hi):
        """The states of ``lvl`` at grid indices [lo, hi), in index order:
        (w, 2B, d) for a pair, its coarse rows over its fine rows, and
        (w, B, d) for a chain, its (n, 2B, d) block read as (2n, B, d).  A
        view of the record, but for a chain in a group, whose ticks lie
        apart: that reshape copies."""
        k, hist = self.k, self.hist
        if lvl.pair:
            return hist[lo - k:hi - k, lvl.block]
        ticks = hist[lo // 2 - k:(hi + 1) // 2 - k, lvl.block]
        grid = ticks.reshape((2 * len(ticks), self.bsz) + hist.shape[2:])
        return grid[lo % 2:lo % 2 + hi - lo]


@_quiet_overflow
def _drive(model, x0, levels, runs, visit, budget=None):
    """Run ``levels`` of B = len(runs) rows each, a group at a time, with
    chunk buffers of about ``budget`` elements (``_CHUNK_ELEMENT_TARGET``).

    ``visit(engine, lvl, lo, hi)`` sees the finite states of each level,
    once, chunk by chunk: the grid indices [lo, hi) that the engine's
    current records hold, read by ``engine.states``.  A non-finite state
    at index i of a level is a NumericalFailureError naming step i and its
    run, ``runs[row]``, once the states before it have been visited; an
    error that ``visit`` raises stops its level too.  The lowest failing
    level's error is raised, so the earliest failure of the first failing
    level wins whatever the chunk layout and grouping; ``label`` annotates
    it.
    """
    for group in _groups(levels, len(runs)):
        engine = _Engine(model, x0, group, len(runs),
                         budget or _CHUNK_ELEMENT_TARGET)
        failed, done = {}, [False] * len(group)
        for ok in engine.chunks(model):
            for pos, lvl in enumerate(group):
                lo, hi = engine.span(lvl)
                if pos in failed or lo >= hi:
                    continue
                done[pos] = hi == lvl.last + 1
                err = None
                if not ok:
                    finite = np.isfinite(engine.states(lvl, lo, hi)).all(-1)
                    if lvl.pair:  # a run fails with either of its rows
                        half = finite.shape[1] // 2
                        finite = finite[:, :half] & finite[:, half:]
                    if not finite.all():
                        j, row = np.argwhere(~finite)[0].tolist()
                        hi = lo + j
                        err = _position_error(lvl, hi, runs[row])
                try:
                    if lo < hi:
                        visit(engine, lvl, lo, hi)
                except NumericalFailureError as exc:
                    err = exc
                if err is not None:
                    if lvl.label is not None:
                        err.level_index = lvl.label
                        err.args = (f"level {lvl.label}: {err}",)
                    failed[pos] = err
            if failed and all(done[:min(failed)]):
                break
        if failed:
            raise failed[min(failed)]


def _position_error(lvl, step, run):
    kind, name = ("coarse ", "gamma_fine") if lvl.pair else ("", "gamma")
    return NumericalFailureError(
        f"non-finite position at {kind}step {step} (run {run}, "
        f"{name}={lvl.gamma}); the step size is likely too large for this "
        f"model", step_index=step, run_index=run)


def _window_level(gamma, tau, t, pair, streams, label=None):
    """A level averaging over grid indices [n(tau), n(T) - 1], and its step
    count: n_gamma(T) for a chain at step gamma, both chains' for a pair,
    whose grid is the coarse one, 2 gamma.  Row b runs on ``streams[b]``.
    """
    fine = n_gamma(t, gamma)  # checks t and gamma
    grid = 2.0 * float(gamma) if pair else gamma
    if not 0.0 <= tau < t:
        raise ValueError(f"need 0 <= tau < T, got tau={tau}, T={t}")
    k0, k1 = n_gamma(tau, grid), n_gamma(t, grid)
    if k1 - k0 < 1:
        raise ValueError(
            f"empty averaging window: n({t})={k1}, n({tau})={k0} at gamma={grid}")
    level = _Level(gamma, k1 - 1, pair, streams, k0, label)
    return level, fine + k1 if pair else k1


def _run_levels(model, x0, levels, f, runs):
    """Each level's compensated window average of f per run, in order.

    A pair averages f(fine) - f(coarse).  Each window is summed in grid
    order, compensated (``_CompensatedSum``), so the chunk, the grouping and
    the batch width change no bit: a level gives the same bits in any group
    as alone.  Averages are (B,) for a scalar observable, (B, m) for a
    vector one.
    """

    def visit(engine, lvl, lo, hi):
        # f sees at most a chunk's count of indices at once: a memory bound
        for a in range(max(lo, lvl.k0), hi, engine.chunk):
            b = min(a + engine.chunk, hi)
            vals = _eval_window(f, engine.states(lvl, a, b))
            if lvl.pair:  # fine minus coarse, in place: no third array
                half = vals.shape[1] // 2
                vals[:, half:] -= vals[:, :half]
                vals = vals[:, half:]
            _check_values_finite(vals, a, runs)
            if lvl.acc is None:
                lvl.acc = _CompensatedSum(vals.shape[1:])
            _reduce_window(lvl.acc, vals)
            del vals  # free the window values before the next piece

    _drive(model, x0, levels, runs, visit)
    return [lvl.acc.total() / (lvl.last + 1 - lvl.k0) for lvl in levels]


def _run_level(model, x0, gamma, tau, t, f, streams, pair):
    """One level alone: its window average per row, and its step count."""
    level, steps = _window_level(gamma, tau, t, pair, streams)
    runs = [st.run_index for st in streams]
    return _run_levels(model, x0, [level], f, runs)[0], steps


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
