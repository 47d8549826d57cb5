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
tick makes two ``model.advance`` calls, each on one contiguous slice with a
(rows, 1) column of per-row steps: A on the chain and the active fine rows
(their first step), B on the active coarse rows, the chain and the active
fine rows.  A level retires by leaving both slices.  The engine checks the
start point (shape (d,) or (B, d), finite), turns standard normals into the
Euler increments, and reads the first non-finite step and run of a failure
from its records; the lowest failing level's earliest failure wins.

Grouping: levels share a tick loop while the group's rows stay within
``_FUSE_ROW_CAP`` (256) rows; wider levels run alone.  Fusion saves map
calls, each with a fixed cost, and a step column costs more than a scalar
step on many rows (a slice wider than the cap is mapped per run of rows
with one step).  So 20 runs of R = 5 (220 rows) share one loop, while 200
runs run level by level.

The drift enters only through the model's in-place Euler map
``model.advance(x, step)``, x <- x + step * b(x), with ``step`` a float or
a (rows, 1) column; with ``dim`` and ``noise_scale`` it is all the engine
asks of a model.  ``LangevinModel`` maps through ``Potential.descend``,
which each built-in potential overrides with a few row-wise numpy calls and
which falls back to ``Potential.grad`` for a user potential.  A column
multiply gives each row the bits of a multiply by its own float step.

``euler_step`` is the single-step reference the engine matches bit for bit:
it takes the same map, then adds the same scaled increment.

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

Randomness comes from ``NoiseStream``, a counter-based (Philox) generator
keyed by ``(master_seed, level_index, run_index)`` through a fixed, documented
mixing rule, so every trajectory is bit-reproducible across platforms, chunk
sizes, groupings and batch layouts.  Batches of independent runs advance
together as rows; every per-run operation acts elementwise or along the last
axis only, so batched trajectories are bit-identical to one-run-at-a-time
execution.

Window sums are accumulated chunkwise, with a contiguous per-run pairwise
reduction per block and a Neumaier-compensated merge across blocks, so
averages over 10^7+ terms keep near-full precision.  The engine advances
c ticks per chunk, with c sized from the group's rows: the history, the
chain's mid-tick states and both increment buffers hold about
``_CHUNK_ELEMENT_TARGET`` elements, at most ``_CHUNK_STEP_CAP`` (4096)
ticks.  Each level keeps its own grid of blocks of c indices (level 0 two
blocks of c steps per chunk), its last index alone, so its contribution
depends on c alone.  The cap binds while (3 rows + B0) * d <= 976 (B0 = B
with the chain, else 0): a group of rows * d up to about 320, for instance
a single estimate with up to fifteen correcting levels in d = 10.
There every level of an estimate equals its standalone ``run_level0`` /
``run_coupled_level`` call byte for byte; otherwise they agree to
accumulated rounding (~1e-15 relative).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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

# A chunk's buffers (history, the chain's mid-tick states and both
# increment buffers) hold about this many elements, in at most this many
# ticks; while the cap binds, the chunk layout -- and therefore the
# floating-point grouping of window sums -- is the same for every group.
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
        if level_index < 0 or level_index >= _MAX_LEVEL_INDEX:
            raise ValueError(
                f"level_index must be in [0, 2**20), got {level_index}")
        if run_index < 0 or run_index >= _MAX_RUN_INDEX:
            raise ValueError(
                f"run_index must be in [0, 2**44), got {run_index}")
        self.master_seed = int(master_seed) % (1 << 64)
        self.level_index = int(level_index)
        self.run_index = int(run_index)
        # explicit uint64 words: a python-int key would be routed through
        # float64 above 2**63 and lose low bits (adjacent keys collide)
        key = np.array(
            [self.master_seed,
             self.run_index * _MAX_LEVEL_INDEX + self.level_index],
            dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    # every draw goes through here: the benchmark tracer counts it
    def standard_normal(self, shape) -> np.ndarray:
        """Draw standard normals; mirrors ``numpy.random.Generator``."""
        return self._gen.standard_normal(shape)


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
    """Neumaier (Kahan-Babuska) compensated accumulator over ndarray slots."""

    def __init__(self, shape):
        self.s = np.zeros(shape)
        self.c = np.zeros(shape)

    # a benchmark tracer target, as are _eval_window and _reduce_window
    def add(self, v: np.ndarray) -> None:
        t = self.s + v
        big = np.abs(self.s) >= np.abs(v)
        self.c += np.where(big, (self.s - t) + v, (v - t) + self.s)
        self.s = t

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


def _reduce_window(vals: np.ndarray) -> np.ndarray:
    """Sum observable values over the window axis, (w, B[, m]) -> (B[, m]).

    The reduction runs along a contiguous per-run axis so each run gets the
    same pairwise summation tree regardless of the batch width, keeping
    batched window sums bit-identical to single-run execution.
    """
    return np.add.reduce(np.ascontiguousarray(np.moveaxis(vals, 0, -1)),
                         axis=-1)


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


class _Level:
    """One level of a group: a chain at step ``gamma`` or, with ``pair``, a
    synchronously coupled fine (step ``gamma``) / coarse (``2 * gamma``)
    pair, visiting grid indices 0..``last`` of its grid (steps of a chain,
    coarse steps of a pair).

    ``normals(out, steps)`` writes the standard normals of the next
    ``steps`` fine steps (two per tick) into ``out[:steps]``, each (B, d).
    ``k0`` is the first index of its averaging window, ``acc`` its
    compensated window sum, and ``label`` the estimator level that a
    failure names (None elsewhere).
    """

    def __init__(self, gamma, last, pair, normals, k0=0, label=None):
        self.gamma, self.last, self.pair = float(gamma), last, pair
        self.normals, self.k0, self.label = normals, k0, label
        # a tick is two steps of a chain and one coarse step of a pair
        self.ticks = last if pair else (last + 1) // 2
        self.rows = self.coarse = self.acc = None


def _groups(levels, bsz):
    """Split ``levels``, in order, into groups that one tick loop runs: a
    pair joins the group before it while the group's rows stay within
    ``_FUSE_ROW_CAP`` (B rows per chain, 2B per pair).  Fusing saves map
    calls, each with a fixed cost, but a step column costs more than a
    scalar step on many rows, so wide levels run alone."""
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
    ValueError raised before any step.  A tick is two ``model.advance``
    calls, each on one contiguous slice with a per-row step column (a float
    where the slice has one step; a slice of more than ``_FUSE_ROW_CAP``
    rows is mapped per run of rows with one step):

    * A: the chain and the active fine rows, their first step;
    * B: the active coarse rows, the chain and the active fine rows (the
      coarse step, the chain's second step, the fine second step).

    A pair retires after ``ticks`` by leaving both slices, so its rows hold
    its last state.  A chain that ends before a pair rides along in call B
    with zero increments, its states unread.  The model needs only
    ``dim``, ``noise_scale`` and ``advance``.  Fine steps take
    noise_scale * sqrt(gamma) * g[:, s], the coarse step noise_scale *
    sqrt(2 gamma) * (g[:, 0] + g[:, 1]) / sqrt(2), so both ride one
    Brownian path; euler_step's arithmetic, bit for bit.  The increments
    of call A and call B sit in one buffer, fine step 2j + s of tick j at
    row 2j + s, so a level's draws land in order.

    ``chunks`` advances ``chunk`` ticks at a time and, after each chunk,
    holds its records in ``k`` (first tick), ``hist`` (the state at the
    start of each tick) and ``mid`` (the chain after call A), then a last
    one-tick record of the final state.  ``states`` reads one level's states
    from them by grid index.  ``chunk`` is sized from the group's rows: the
    history, ``mid`` and both increment buffers stay near ``budget``
    elements, and never above ``_CHUNK_STEP_CAP`` ticks.
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
        # C order: a sum along the last axis of F-ordered rows rounds otherwise
        self.x = np.array(np.broadcast_to(x, (rows // bsz, bsz, d)),
                          order="C").reshape(rows, d)
        self.col = np.empty((rows, 1))
        for lvl in levels:
            self.col[lvl.rows] = lvl.gamma
            if lvl.pair:
                self.col[lvl.coarse] = 2.0 * lvl.gamma
        units = rows + b0 + 2 * rows  # hist, mid and the increments
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
        """The rows of calls A and B at tick t (B None when empty), and
        whether the chain records its mid-tick state."""
        active = sum(lvl.ticks > t for lvl in self.pairs)
        chain, lo, b0 = self.chain, self.lo, self.b0
        hi = lo + b0 + active * self.bsz
        record = chain is not None and t < chain.ticks
        call_a = slice(lo if record else lo + b0, hi)
        call_b = None
        if active:
            call_b = slice(lo - active * self.bsz, hi)
        elif chain is not None and t < chain.last // 2:
            call_b = slice(lo, hi)
        return call_a, call_b, record

    def _draw(self, model, k, n, inc):
        """Fill the scaled increments of ticks [k, k + n): those of call A
        at ``inc[2j]``, of call B at ``inc[2j + 1]``."""
        chain = self.chain
        if chain is not None:
            s = min(max(chain.last - 2 * k, 0), 2 * n)  # its steps here
            steps = inc[:2 * n, chain.rows]
            steps[s:] = 0.0  # call B may carry it past its end
            if s:
                chain.normals(steps, s)
                steps *= model.noise_scale * math.sqrt(chain.gamma)
        for lvl in self.pairs:
            u = min(max(lvl.last - k, 0), n)
            if not u:
                continue
            fine, coarse = inc[:2 * u, lvl.rows], inc[1:2 * u:2, lvl.coarse]
            lvl.normals(fine, 2 * u)
            np.add(fine[0::2], fine[1::2], out=coarse)
            coarse *= _INV_SQRT2
            coarse *= model.noise_scale * math.sqrt(2.0 * lvl.gamma)
            fine *= model.noise_scale * math.sqrt(lvl.gamma)

    @staticmethod
    def _loop(advance, x, hist, call_a, call_b, mid):
        """The Euler tick loop: ``len(hist)`` ticks of the state rows ``x``.

        Per tick j the state on entry goes to ``hist[j]``; call A maps each
        of its (view, step) pieces in place with ``advance(view, step)`` and
        adds its increment ``inc[j]`` to its rows; the chain's rows then go
        to ``mid[j]``; then call B does as call A.
        """
        maps_a, rows_a, inc_a = call_a
        maps_b, rows_b, inc_b = call_b or ((), None, None)
        chain, mid = mid or (None, None)
        for j in range(len(hist)):
            hist[j] = x
            for rows, step in maps_a:
                advance(rows, step)
            rows_a += inc_a[j]
            if mid is not None:
                mid[j] = chain
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
        # a lone chain records its states in grid order in one buffer
        if self.b0 == len(x):
            both = np.empty((size, 2) + x.shape)
            hist, mid = both[:, 0], both[:, 1]
        else:
            both, hist = None, np.empty((size,) + x.shape)
            mid = np.empty((size, self.b0, x.shape[1]))
        inc = np.empty((2 * size,) + x.shape)
        events = {lvl.ticks for lvl in self.pairs}
        if self.chain is not None:
            events |= {self.chain.last // 2, self.chain.ticks}
        ok = True
        for k in range(0, total, c):
            n = min(c, total - k)
            self._draw(model, k, n, inc)
            edges = sorted({k, k + n} | {e for e in events if k < e < k + n})
            for t0, t1 in zip(edges, edges[1:]):
                a, b, record = self._calls(t0)
                j0, j1 = t0 - k, t1 - k
                self._loop(model.advance, x, hist[j0:j1],
                           (self._maps(a), x[a], inc[2 * j0:2 * j1:2, a]),
                           b and (self._maps(b), x[b],
                                  inc[2 * j0 + 1:2 * j1:2, b]),
                           record and (x[self.chain.rows], mid[j0:j1]))
            ok = ok and bool(np.isfinite(x).all())
            self.k, self.hist, self.mid = k, hist[:n], mid[:n]
            self.flat = None if both is None else both[:n].reshape(
                (2 * n,) + x.shape)
            yield ok
        self.k, self.hist, self.mid, self.flat = total, x[None], mid[:0], None
        yield ok

    def span(self, lvl):
        """The grid indices [lo, hi) of ``lvl`` in the current records."""
        if lvl.pair:
            first, count = self.k, len(self.hist)
        else:
            first, count = 2 * self.k, len(self.hist) + len(self.mid)
        return first, min(first + count, lvl.last + 1)

    def states(self, lvl, lo, hi):
        """The states of ``lvl`` at grid indices [lo, hi), in index order:
        (w, B, d) for a chain, (w, 2B, d) for a pair, its coarse rows over
        its fine rows.  A view of the records where they lie so, else a
        copy."""
        k, hist = self.k, self.hist
        if lvl.pair:
            if lvl.coarse.stop == lvl.rows.start:
                return hist[lo - k:hi - k, lvl.coarse.start:lvl.rows.stop]
            return np.concatenate((hist[lo - k:hi - k, lvl.coarse],
                                   hist[lo - k:hi - k, lvl.rows]), axis=1)
        if self.flat is not None:
            return self.flat[lo - 2 * k:hi - 2 * k]
        # index 2t is tick t's record, 2t + 1 the chain's state after call A
        even = hist[(lo + 1) // 2 - k:(hi + 1) // 2 - k, lvl.rows]
        odd = self.mid[lo // 2 - k:hi // 2 - k]
        if not len(odd) or not len(even):
            return even if len(even) else odd
        states = np.empty((hi - lo,) + odd.shape[1:])
        states[lo % 2::2] = even
        states[1 - lo % 2::2] = odd
        return states


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


def _stream_normals(streams, d):
    """``normals`` of a level whose row b draws from ``streams[b]``."""

    def normals(out, steps):
        for b, st in enumerate(streams):
            out[:steps, b] = st.standard_normal((steps, d))

    return normals


def _window_level(d, gamma, tau, t, pair, streams, label=None):
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
    level = _Level(gamma, k1 - 1, pair, _stream_normals(streams, d), k0,
                   label)
    return level, fine + k1 if pair else k1


def _run_levels(model, x0, levels, f, runs):
    """Each level's compensated window average of f per run, in order.

    A pair averages f(fine) - f(coarse).  A level's window sum is a
    pairwise sum per block of its grid, the blocks ending at multiples of
    the engine's chunk and its last index standing alone, merged by a
    compensated sum; the chunk alone fixes it, so levels in any group give
    the same bits as alone at the same chunk.  Averages are (B,) for a
    scalar observable, (B, m) for a vector one.
    """

    def visit(engine, lvl, lo, hi):
        c, lo = engine.chunk, max(lo, lvl.k0)
        while lo < hi:
            end = min(hi, (lo // c + 1) * c, lvl.last) if lo < lvl.last \
                else lo + 1
            vals = _eval_window(f, engine.states(lvl, lo, end))
            if lvl.pair:  # fine minus coarse, in place: no third array
                half = vals.shape[1] // 2
                vals[:, half:] -= vals[:, :half]
                vals = vals[:, half:]
            _check_values_finite(vals, lo, runs)
            if lvl.acc is None:
                lvl.acc = _CompensatedSum(vals.shape[1:])
            lvl.acc.add(_reduce_window(vals))
            del vals  # free the window values before the next block
            lo = end

    _drive(model, x0, levels, runs, visit)
    return [lvl.acc.total() / (lvl.last + 1 - lvl.k0) for lvl in levels]


def _run_level(model, x0, gamma, tau, t, f, streams, pair):
    """One level alone: its window average per row, and its step count."""
    level, steps = _window_level(model.dim, gamma, tau, t, pair, streams)
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
