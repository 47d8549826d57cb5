"""Constant-step Euler-Maruyama engine with synchronously coupled pairs.

One chunked engine, ``_chains``, is the only stepping loop.  It
checks the start point (shape (d,) or (batch, d), finite) and builds the
state array itself: (batch, d) rows for a single chain, and for a
synchronously coupled fine/coarse pair one (2 batch, d) array, the fine rows
over the coarse rows, with one history buffer.  It turns standard normals
into the Euler increments, and reads the first non-finite step and run of a
failure from its chunk histories, which every path simulation reads:

* ``run_level0``: one chain at step gamma0, returning the occupation
  (pathwise time) average of an observable over a burn-in-trimmed window.
* ``run_coupled_level``: a fine chain (step gamma) and a coarse chain (step
  2*gamma), returning the averaged difference of the observable read at
  coarse grid times only.
* the contraction and confluence probes in ``diagnostics``.

The drift enters only through the model's in-place Euler map
``model.advance(x, step)``, x <- x + step * b(x); with ``dim`` and
``noise_scale`` it is all the engine asks of a model.  ``LangevinModel``
maps through ``Potential.descend``, which each built-in potential
overrides with a few row-wise numpy calls and which falls back to
``Potential.grad`` for a user potential.

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
sizes, and batch layouts.  Internally, batches of independent runs advance
together as rows of ``(batch, d)`` arrays; every per-run operation acts
elementwise or along the last axis only, so batched trajectories are
bit-identical to one-run-at-a-time execution.

Window sums are accumulated chunkwise, with a contiguous per-run pairwise
reduction inside each chunk and a Neumaier-compensated merge across chunks,
so averages over 10^7+ terms keep near-full precision.  The chunk layout is a
fixed function of (batch, d); whenever two executions share it (in particular
any batch with batch*d <= ~500, and always for equal batch sizes) their
window sums are bit-identical too, and otherwise they agree to accumulated
rounding (~1e-15 relative).
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

# Per-chunk step budget: bounded both by an element count (keeps noise and
# history buffers ~tens of MB) and by a hard cap so the chunk layout -- and
# therefore the floating-point grouping of chunk sums -- is identical for
# every batch size up to ~500 paths in d=10.
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
        ValueError: On dimension mismatch.
        NumericalFailureError: If the new position is non-finite.
    """
    pos = np.asarray(state.position, dtype=float)
    g = np.asarray(gaussian, dtype=float)
    if g.shape != pos.shape:
        raise ValueError(
            f"gaussian shape {g.shape} does not match position shape {pos.shape}")
    gamma = float(state.step_size)
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


def _chunk_steps(batch: int, dim: int) -> int:
    return max(1, min(_CHUNK_STEP_CAP, _CHUNK_ELEMENT_TARGET // (batch * dim)))


def _quiet_overflow(fn):
    """Silence intermediate overflow warnings; blow-ups surface as
    NumericalFailureError from the explicit finiteness checks instead."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return wrapper


@_quiet_overflow
def _ticks(model, x, hist, steps):
    """The Euler tick loop: advance the state rows ``x`` in place.

    Per tick j, the state on entry goes to ``hist[j]``; then each
    ``(rows, step, inc)`` in ``steps``, in order, takes euler_step's
    arithmetic on its view ``rows`` of ``x``: the in-place map
    ``model.advance(rows, step)``, then the increment ``inc[j]`` added.
    """
    advance = model.advance
    for j in range(len(hist)):
        hist[j] = x
        for rows, step, inc in steps:
            advance(rows, step)
            rows += inc[j]


def _chains(model, x0, gamma, n_ticks, normals, chunk, pair, runs):
    """The Euler engine: advance a batch of B = len(runs) rows for ``n_ticks``.

    The start point ``x0`` is (d,), shared by every row, or (B, d); any other
    shape, or a non-finite value, is a ValueError, raised before any step.
    A single chain is one (B, d) state array taking one step of ``gamma``
    per tick.  A coupled pair is one (2B, d) array, the B fine rows over the
    B coarse rows, both started at ``x0``; per tick the fine rows take two
    steps of ``gamma`` and the coarse rows one of ``2 * gamma``, each a
    ``model.advance`` call on its B-row view.  The model needs only
    ``dim``, ``noise_scale`` and ``advance``.  ``normals(n)`` returns a
    fresh array g of the standard normals of n ticks, (n, 1 or 2, B, d) or
    broadcastable to it, which the engine scales in place to
    noise_scale * sqrt(gamma) * g[:, s] per fine step; the coarse step
    takes noise_scale * sqrt(2 gamma) * (g[:, 0] + g[:, 1]) / sqrt(2), so
    both halves ride one Brownian path.

    Yields ``(k, hist)`` per chunk of at most ``chunk`` ticks, with
    ``hist[j]`` the state rows at grid index k + j, then ``(n_ticks,
    final)``, the final state as a one-tick history.  The history buffer is
    reused, so a chunk's history is valid until the next one is requested.
    A non-finite state raises NumericalFailureError naming the first bad
    step and its run, ``runs[row mod B]``, once the finite states of its
    chunk before that step have been yielded; so the earliest failure wins
    whatever the chunk layout.
    """
    d, bsz = model.dim, len(runs)
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
    # C order: a sum along the last axis of F-ordered rows rounds otherwise
    x = np.array(np.broadcast_to(x, (2 if pair else 1, bsz, d)),
                 order="C").reshape(-1, d)
    cn = model.noise_scale * math.sqrt(gamma)
    cn_c = model.noise_scale * math.sqrt(2.0 * gamma)
    buf = np.empty((min(chunk, n_ticks),) + x.shape)
    for k in range(0, n_ticks, chunk):
        n = min(chunk, n_ticks - k)
        hist = buf[:n]
        fine = normals(n)
        steps = [(x[:bsz], gamma, fine[:, s]) for s in range(fine.shape[1])]
        coarse = None
        if pair:
            coarse = fine[:, 0] + fine[:, 1]
            coarse *= _INV_SQRT2
            coarse *= cn_c
            steps.append((x[bsz:], 2.0 * gamma, coarse))
        fine *= cn
        _ticks(model, x, hist, steps)
        del fine, coarse, steps  # free the increments before the next draw
        if not np.isfinite(x).all():
            # the state after tick j is hist[j + 1] (x after the last tick),
            # and x += ... keeps a non-finite coordinate non-finite
            finite = np.isfinite(np.concatenate((hist[1:], x[None])))
            finite = finite.all(axis=-1).reshape(n, -1, bsz).all(axis=1)
            j, row = np.argwhere(~finite)[0].tolist()
            step = k + j + 1
            err = NumericalFailureError(
                f"non-finite position at {'coarse ' if pair else ''}step "
                f"{step} (run {runs[row]}, "
                f"{'gamma_fine' if pair else 'gamma'}={gamma}); the step "
                f"size is likely too large for this model",
                step_index=step, run_index=runs[row])
            # the states before the failed step are finite: hand them over
            # first, so a failure the caller finds there wins
            yield k, hist[:j + 1]
            raise err
        yield k, hist
    yield n_ticks, x[None]


def _stream_normals(streams, d, pair):
    """``normals`` for ``_chains`` with row b drawn from ``streams[b]``."""
    k = 2 if pair else 1

    def normals(n):
        g = np.empty((n, k, len(streams), d))
        for b, st in enumerate(streams):
            g[:, :, b, :] = st.standard_normal((n, k, d))
        return g

    return normals


@_quiet_overflow
def _run_level(model, x0, gamma, tau, t, f, streams, pair):
    """One level's compensated window average per row, and its step count.

    Row b runs on ``streams[b]``; a failure names that stream's run_index.
    The start point ``x0`` is (d,) or (B, d), which ``_chains`` checks.
    A single chain averages f over grid indices [n(tau), n(T) - 1] at step
    gamma and counts n_gamma(T) steps; a pair averages f(fine) - f(coarse)
    over that window on the coarse grid 2 gamma and counts both chains'.
    Averages are (B,) for a scalar observable, (B, m) for a vector one.
    """
    fine = n_gamma(t, gamma)  # checks t and gamma
    grid = 2.0 * float(gamma) if pair else gamma
    if not 0.0 <= tau < t:
        raise ValueError(f"need 0 <= tau < T, got tau={tau}, T={t}")
    k0, k1 = n_gamma(tau, grid), n_gamma(t, grid)
    if k1 - k0 < 1:
        raise ValueError(
            f"empty averaging window: n({t})={k1}, n({tau})={k0} at gamma={grid}")
    bsz, d = len(streams), model.dim
    runs = [st.run_index for st in streams]
    acc = None
    for first, hist in _chains(model, x0, float(gamma), k1 - 1,
                               _stream_normals(streams, d, pair),
                               _chunk_steps(bsz, d), pair, runs):
        lo = max(k0 - first, 0)
        if lo >= len(hist):
            continue
        vals = _eval_window(f, hist[lo:])
        if pair:
            vals[:, :bsz] -= vals[:, bsz:]  # in place: no third array
        vals = vals[:, :bsz]
        _check_values_finite(vals, first + lo, runs)
        if acc is None:
            acc = _CompensatedSum(vals.shape[1:])
        acc.add(_reduce_window(vals))
        del vals  # free the window values before the next chunk's draw
    steps = fine + k1 if pair else k1
    return acc.total() / (k1 - k0), steps


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
