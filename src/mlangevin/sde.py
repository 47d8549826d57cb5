"""Constant-step Euler-Maruyama engine with synchronously coupled pairs.

One chunked engine, ``_chains``, advances a (batch, d) array as a single
chain or as a synchronously coupled fine/coarse pair; its tick loop also
replays a failed chunk to name the first non-finite step and row.  Every
path simulation reads the engine's chunk histories:

* ``run_level0``: one chain at step gamma0, returning the occupation
  (pathwise time) average of an observable over a burn-in-trimmed window.
* ``run_coupled_level``: a fine chain (step gamma) and a coarse chain (step
  2*gamma), returning the averaged difference of the observable read at
  coarse grid times only.
* the contraction and confluence probes in ``diagnostics``.

``euler_step`` is the single-step reference the engine matches bit for bit.

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
from typing import Callable, Sequence

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
        run_index: Batch row of the failing trajectory.
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
    with drift b(x) = -sigma0^2 grad U(x).

    This is the reference single-step operation; the batched engine performs
    the identical arithmetic (same operation order, hence bit-identical
    trajectories for the same draws).

    Args:
        model: LangevinModel supplying drift and noise scale.
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
    with np.errstate(over="ignore", invalid="ignore"):
        new_pos = pos + gamma * model.drift(pos)
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

    A relative guard absorbs float-division noise when t is an exact multiple
    of gamma (e.g. horizons built from eps**-2).
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    q = t / gamma
    return int(math.floor(q + 1e-9 * (q + 1.0)))


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


def _batch_apply_fn(f) -> Callable[[np.ndarray], np.ndarray]:
    """Adapt an observable to a (N, d) -> (N,) or (N, m) batch function."""
    fb = getattr(f, "apply_batch", None)
    if fb is not None:
        return fb
    apply = getattr(f, "apply", None)
    if apply is None and callable(f):
        apply = f
    if apply is None:
        raise TypeError(f"cannot interpret {f!r} as an observable")

    def rowwise(points: np.ndarray) -> np.ndarray:
        return np.asarray([apply(p) for p in points], dtype=float)

    return rowwise


def _eval_window(fb, hist: np.ndarray) -> np.ndarray:
    """Apply a batch observable to history (w, B, d) -> (w, B) or (w, B, m)."""
    w, bsz, d = hist.shape
    vals = np.asarray(fb(hist.reshape(w * bsz, d)), dtype=float)
    if vals.ndim == 1:
        return vals.reshape(w, bsz)
    return vals.reshape(w, bsz, vals.shape[-1])


def _reduce_window(vals: np.ndarray) -> np.ndarray:
    """Sum observable values over the window axis, (w, B[, m]) -> (B[, m]).

    The reduction runs along a contiguous per-run axis so each run gets the
    same pairwise summation tree regardless of the batch width, keeping
    batched window sums bit-identical to single-run execution.
    """
    if vals.ndim == 2:
        return np.add.reduce(np.ascontiguousarray(vals.T), axis=-1)
    return np.add.reduce(np.ascontiguousarray(vals.transpose(1, 2, 0)), axis=-1)


def _check_values_finite(vals: np.ndarray, first_index: int) -> None:
    """Raise with the offending grid index when observable values blow up."""
    finite = np.isfinite(vals)
    if vals.ndim == 3:
        finite = finite.all(axis=-1)
    if not finite.all():
        j, run = np.argwhere(~finite)[0]
        raise NumericalFailureError(
            f"non-finite observable value at step {first_index + int(j)} "
            f"(run {int(run)}); the trajectory left the observable's finite "
            f"range", step_index=first_index + int(j), run_index=int(run))


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


def _check_window(tau: float, t: float, gamma: float) -> tuple[int, int]:
    if not 0.0 <= tau < t:
        raise ValueError(f"need 0 <= tau < T, got tau={tau}, T={t}")
    k0 = n_gamma(tau, gamma)
    k1 = n_gamma(t, gamma)
    if k1 - k0 < 1:
        raise ValueError(
            f"empty averaging window: n({t})={k1}, n({tau})={k0} at gamma={gamma}")
    return k0, k1


@_quiet_overflow
def _ticks(model, xs, gamma, fine, coarse, hists=None):
    """The Euler tick loop: advance the chains ``xs`` in place.

    Per tick j, ``xs[0]`` takes a step of ``gamma`` per increment in
    ``fine[j]``, and ``xs[1]``, if ``coarse`` is given, one step of
    ``2 * gamma`` with ``coarse[j]``; each is euler_step's arithmetic.  With
    ``hists``, chain c's state on entry to tick j goes to ``hists[c][j]``.
    Without, this is the failure replay: it returns ``(j, row)`` for the
    first tick that leaves a non-finite row.
    """
    drift = model.drift
    steps = [(xs[0], gamma, fine[:, s]) for s in range(fine.shape[1])]
    if coarse is not None:
        steps.append((xs[1], 2.0 * gamma, coarse))
    record = [] if hists is None else list(zip(hists, xs))
    for j in range(len(fine)):
        for hist, x in record:
            hist[j] = x
        for x, step, inc in steps:
            x += step * drift(x)
            x += inc[j]
        if hists is None:
            finite = np.logical_and.reduce(
                [np.isfinite(x).all(axis=-1) for x in xs])
            if not finite.all():
                return j, int(np.argmin(finite))
    return None


def _chains(model, x, gamma, n_ticks, draw, chunk, pair):
    """The Euler engine: advance a (B, d) batch in place for ``n_ticks``.

    A single chain takes one step of ``gamma`` per tick; a coupled pair
    starts both chains at ``x`` and per tick takes two fine steps of
    ``gamma`` and one coarse step of ``2 * gamma``.  ``draw(n)`` returns the
    scaled increments of n ticks as ``(fine, coarse)``: fine is
    (n, 1 or 2, B, d) or broadcastable to it, coarse (n, B, d) or None.

    Yields ``(k, hists)`` per chunk of at most ``chunk`` ticks, with
    ``hists[c][j]`` chain c at grid index k + j, then ``(n_ticks, finals)``,
    the final states as one-row histories.  The history buffers are reused,
    so a chunk's histories are valid until the next one is requested.  A
    non-finite state raises NumericalFailureError naming the first bad step
    and row.
    """
    xs = [x, x.copy()] if pair else [x]
    bufs = [np.empty((min(chunk, n_ticks),) + x.shape) for x in xs]
    for k in range(0, n_ticks, chunk):
        n = min(chunk, n_ticks - k)
        hists = [buf[:n] for buf in bufs]
        fine, coarse = draw(n)
        _ticks(model, xs, gamma, fine, coarse, hists)
        if not all(np.isfinite(x).all() for x in xs):
            entry = [hist[0].copy() for hist in hists]
            j, row = _ticks(model, entry, gamma, fine, coarse)
            step = k + j + 1
            raise NumericalFailureError(
                f"non-finite position at {'coarse ' if pair else ''}step "
                f"{step} (run {row}, {'gamma_fine' if pair else 'gamma'}="
                f"{gamma}); the step size is likely too large for this model",
                step_index=step, run_index=row)
        del fine, coarse  # free the increments before the next draw
        yield k, hists
    yield n_ticks, [x[None] for x in xs]


def _stream_draw(model, streams, gamma, d, pair):
    """``draw`` for ``_chains`` with row b on ``streams[b]``; per tick a pair
    draws g1, g2 and gives the coarse chain (g1 + g2)/sqrt(2)."""
    k = 2 if pair else 1
    cn = model.noise_scale * math.sqrt(gamma)
    cn_c = model.noise_scale * math.sqrt(2.0 * gamma)

    def draw(n):
        noise = np.empty((n, k, len(streams), d))
        for b, st in enumerate(streams):
            noise[:, :, b, :] = st.standard_normal((n, k, d))
        coarse = None
        if pair:
            coarse = noise[:, 0] + noise[:, 1]
            coarse *= _INV_SQRT2
            coarse *= cn_c
        noise *= cn
        return noise, coarse

    return draw


@_quiet_overflow
def _window_average(model, x0, gamma, k0, k1, f, streams, pair):
    """Compensated mean over grid indices [k0, k1 - 1], one value per row.

    Row b runs on ``streams[b]``.  The averaged value is f of the chain for
    a single chain, and f(fine) - f(coarse) on the coarse grid for a pair.
    """
    bsz = len(streams)
    x = np.array(x0, dtype=float).reshape(bsz, -1)
    d = x.shape[1]
    if d != model.dim:
        raise ValueError(f"x0 dimension {d} does not match model dim {model.dim}")
    fb = _batch_apply_fn(f)
    draw = _stream_draw(model, streams, gamma, d, pair)
    acc = None
    for first, hists in _chains(model, x, gamma, k1 - 1, draw,
                                _chunk_steps(bsz, d), pair):
        lo = max(k0 - first, 0)
        if lo >= len(hists[0]):
            continue
        vals = _eval_window(fb, hists[0][lo:])
        if pair:
            vals = vals - _eval_window(fb, hists[1][lo:])
        _check_values_finite(vals, first + lo)
        if acc is None:
            acc = _CompensatedSum(vals.shape[1:])
        acc.add(_reduce_window(vals))
    return acc.total() / (k1 - k0)


def _run_level0_batch(
    model,
    x0: np.ndarray,
    gamma0: float,
    tau: float,
    t0: float,
    f,
    streams: Sequence[NoiseStream],
) -> tuple[np.ndarray, int]:
    """Batched occupation average at step gamma0; rows are independent runs.

    Returns (averages, iterations): averages has shape (B,) for scalar
    observables or (B, m) for vector ones; iterations is n_gamma(T0).
    """
    if gamma0 <= 0:
        raise ValueError(f"gamma0 must be positive, got {gamma0}")
    k0, k1 = _check_window(tau, t0, gamma0)
    avg = _window_average(model, x0, float(gamma0), k0, k1, f, streams,
                          pair=False)
    return avg, k1


def _run_coupled_batch(
    model,
    x0: np.ndarray,
    gamma_fine: float,
    tau: float,
    t: float,
    f,
    streams: Sequence[NoiseStream],
) -> tuple[np.ndarray, int]:
    """Batched averaged fine-minus-coarse difference on the coarse grid.

    The fine chain (step gamma_fine) takes two sub-steps per coarse step of
    the coarse chain (step 2*gamma_fine); the coarse Gaussian increment is
    synthesized from the two fine draws as (g1 + g2)/sqrt(2), so both chains
    ride the same Brownian path.  The observable difference is read at coarse
    grid indices k in [n(tau), n(T)-1] only.

    Returns (avg_differences, iterations) with iterations the reported
    complexity n_{gamma_fine}(T) + n_{gamma_coarse}(T).
    """
    if gamma_fine <= 0:
        raise ValueError(f"gamma_fine must be positive, got {gamma_fine}")
    gamma_f = float(gamma_fine)
    gamma_c = 2.0 * gamma_f
    k0, k1 = _check_window(tau, t, gamma_c)
    avg = _window_average(model, x0, gamma_f, k0, k1, f, streams, pair=True)
    return avg, n_gamma(t, gamma_f) + n_gamma(t, gamma_c)


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
        f: Observable (or bare callable point -> value).
        stream: NoiseStream driving this chain.

    Returns:
        (average, iterations); average is a float for scalar observables or
        an ndarray for vector ones.
    """
    avg, iterations = _run_level0_batch(
        model, np.asarray(x0, dtype=float).reshape(1, -1), gamma0, tau, t0, f,
        [stream])
    out = avg[0]
    return (float(out) if np.ndim(out) == 0 else out), iterations


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
    avg, iterations = _run_coupled_batch(
        model, np.asarray(x0, dtype=float).reshape(1, -1), gamma_fine, tau, t,
        f, [stream])
    out = avg[0]
    return (float(out) if np.ndim(out) == 0 else out), iterations
