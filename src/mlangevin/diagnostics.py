"""Benchmark harness and assumption probes.

``bench(model, plan, x0, n_runs)`` reruns the estimator n_runs times and
reports the empirical RMSE against the reference its potential determines:
the exact Gaussian-norm expectation of |x| for the quadratic
(Ornstein-Uhlenbeck) potential, and the exact quadrature posterior mean for
the logistic potential.

Probes check the structural assumptions the tuning rules rest on:

* ``contraction_probe`` -- synchronous-coupling contraction: two chains
  sharing the same noise approach each other at the deterministic drift rate
  (exactly (1 - gamma)^n per step on the quadratic model).
* ``confluence_probe`` -- second-order step confluence: the sup over coarse
  grid times of E|fine - coarse|^2 scales as O(gamma^2), i.e. halving gamma
  divides the gap by ~4.
* ``euler_invariant_moment_oracle`` -- closed-form per-coordinate second
  moment 2/(2 - gamma) of the quadratic-model Euler chain, the
  discretization bias that the correcting levels remove.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from .estimator import (
    EstimatorOutput,
    _plain,
    estimate_repeated,
    identity_observable,
    norm_observable,
)
from .model import (
    LangevinModel,
    LogisticPerturbedPotential,
    QuadraticPotential,
    _sigmoid,
    ou_reference_value,
)
from .sde import _CHUNK_ELEMENT_TARGET, NoiseStream, _drive, _Level, n_gamma
from .tuning import TuningPlan

__all__ = [
    "BenchReport",
    "ConfluenceProbeResult",
    "DEFAULT_COVARIATE_SEED",
    "bench",
    "confluence_probe",
    "contraction_probe",
    "euler_invariant_moment_oracle",
    "logistic_posterior_mean",
]

# Covariate seed of the shipped logistic benchmark configuration (the CLI
# default of --covariate-seed).
DEFAULT_COVARIATE_SEED = 7


@dataclass
class BenchReport:
    """RMSE summary of repeated estimator runs against a reference.

    The error metric is the absolute difference for scalar observables and
    the normalized Euclidean distance d^(-1/2) |a - b|_2 for vector ones;
    rmse^2 is the mean of squared per-run errors.

    It holds the runs and the reference; read-only and derived from the
    runs are ``plan_echo``, ``seed`` (their master seed), ``n_runs``,
    ``per_run_estimates``, ``mean_complexity`` (the mean total step count,
    rounded) and ``rmse``.

    Attributes:
        model_label: Short description of the benchmark model.
        runs: The estimator outputs, one per run, in run order (>= 1).
        reference_value: Reference (float or coordinate array).
        reference_source: Provenance of the reference value.
        wall_clock_seconds: Wall time of the replication loop.
    """

    model_label: str
    runs: List[EstimatorOutput]
    reference_value: object
    reference_source: str
    wall_clock_seconds: float

    @property
    def plan_echo(self) -> TuningPlan:
        return self.runs[0].plan_echo

    @property
    def seed(self) -> int:
        return self.runs[0].master_seed

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def per_run_estimates(self) -> List[object]:
        return [o.estimate for o in self.runs]

    @property
    def mean_complexity(self) -> int:
        return int(round(
            sum(o.total_complexity for o in self.runs) / len(self.runs)))

    @property
    def rmse(self) -> float:
        return _rmse(self.per_run_estimates, self.reference_value)

    def to_dict(self) -> dict:
        return {
            "model_label": self.model_label,
            "plan_echo": self.plan_echo.to_dict(),
            "n_runs": self.n_runs,
            "reference_value": _plain(self.reference_value),
            "rmse": self.rmse,
            "per_run_estimates": [_plain(e) for e in self.per_run_estimates],
            "mean_complexity": self.mean_complexity,
            "wall_clock_seconds": float(self.wall_clock_seconds),
            "seed": int(self.seed),
            "reference_source": self.reference_source,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def csv_rows(self) -> List[dict]:
        """One row per run: run, estimate[, coord...], complexity.

        Vector estimates expand into one ``estimate_i`` column per
        coordinate.  The runs execute as one batch, so there is no per-run
        wall time; ``to_dict`` holds the total.
        """
        rows = []
        for i, est in enumerate(self.per_run_estimates):
            row = {"run": i}
            if isinstance(est, (np.ndarray, list, tuple)):
                for j, c in enumerate(est):
                    row[f"estimate_{j}"] = float(c)
            else:
                row["estimate"] = float(est)
            row["complexity"] = int(self.mean_complexity)
            rows.append(row)
        return rows


class ConfluenceProbeResult(NamedTuple):
    """Sup-gap estimates at two step sizes and the implied order."""

    sup_gap_sq: dict
    order_estimate: float


def _rmse(estimates: List[object], reference) -> float:
    ref = np.asarray(reference, dtype=float)
    sq = 0.0
    for est in estimates:
        e = np.asarray(est, dtype=float)
        if e.ndim == 0:
            err = abs(float(e) - float(ref))
        else:
            err = float(np.linalg.norm(e - ref)) / math.sqrt(ref.size)
        sq += err * err
    return math.sqrt(sq / len(estimates))


def bench(
    model: LangevinModel,
    plan: TuningPlan,
    x0: np.ndarray,
    n_runs: int,
    seed: int = 0,
) -> BenchReport:
    """RMSE of n_runs repeated estimator runs against the model's reference.

    The observable and the reference follow from ``model.potential``:

    * ``QuadraticPotential``: f(x) = |x| against the exact Gaussian-norm
      expectation ``ou_reference_value(d)``.
    * ``LogisticPerturbedPotential``: the identity (posterior mean) against
      the exact posterior mean ``logistic_posterior_mean``, by
      one-dimensional quadrature (the posterior factorizes along the
      covariate direction).

    Args:
        model: LangevinModel over one of the two built-in potentials.
        plan: Tuning plan of every run.
        x0: Starting point of every run, shape (d,).
        n_runs: Replications (>= 1).
        seed: Master seed for the replication harness.

    Returns:
        BenchReport (bit-reproducible given identical inputs, apart from
        wall_clock_seconds).

    Raises:
        ValueError: for any other potential, which has no known reference.
    """
    potential = model.potential
    d = potential.dim
    if isinstance(potential, QuadraticPotential):
        label = f"ou(d={d})"
        observable = norm_observable()
        reference = ou_reference_value(d)
        reference_source = "exact Gaussian-norm expectation"
    elif isinstance(potential, LogisticPerturbedPotential):
        label = f"logistic(d={d}, lam={potential.lam})"
        observable = identity_observable()
        reference = logistic_posterior_mean(potential.lam, potential.covariate)
        reference_source = "exact quadrature posterior mean"
    else:
        raise ValueError(
            f"bench has no reference for {type(potential).__name__}; use "
            "QuadraticPotential or LogisticPerturbedPotential")

    t0 = time.perf_counter()
    outs = estimate_repeated(model, plan, x0, observable, seed, n_runs)
    wall = time.perf_counter() - t0
    return BenchReport(label, outs, reference, reference_source, wall)


def logistic_posterior_mean(lam: float, covariate: np.ndarray) -> np.ndarray:
    """Exact posterior mean of the logistic-perturbed Gibbs law by quadrature.

    The density exp(-lam|b|^2/2) / (1 + exp(x . b)) factorizes over the
    orthogonal decomposition along u = x/|x|: components orthogonal to u are
    centered Gaussians, so the mean is m * u with

        m = E[t],   t ~ density proportional to exp(-lam t^2/2) sigma(-s t),

    s = |x|.  After t = z / sqrt(lam) the integrand is analytic in the strip
    |Im z| < pi sqrt(lam) / s, where the trapezoid rule converges
    geometrically in 1/h, so a step below ~0.53 / (s / sqrt(lam)) already
    reaches machine precision (cross-checked against 50-digit arithmetic).

    Args:
        lam: Ridge weight (finite, > 0).
        covariate: Covariate vector x (nonzero).

    Returns:
        Posterior mean vector, shape like ``covariate``.
    """
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be finite and positive, got {lam}")
    covariate = np.asarray(covariate, dtype=float)
    s = float(np.linalg.norm(covariate))
    if s == 0:
        raise ValueError("covariate must be nonzero")
    slope = s / math.sqrt(lam)
    h = min(0.05, 0.53 / slope)
    z_max = 9.0
    n = int(math.ceil(2.0 * z_max / h)) + 1
    z = np.linspace(-z_max, z_max, n)
    w = np.exp(-0.5 * z * z) * _sigmoid(-slope * z)
    m = float(np.sum(w * z) / np.sum(w)) / math.sqrt(lam)
    return (m / s) * covariate


def _check_probe_step(model: LangevinModel, gamma: float) -> None:
    """Both probes need 0 < gamma <= alpha_eff / (2 l_eff^2)."""
    bound = model.alpha_eff / (2.0 * model.l_eff ** 2)
    if not 0.0 < gamma <= bound:
        raise ValueError(
            f"gamma must satisfy 0 < gamma <= alpha_eff/(2 l_eff^2) = "
            f"{bound}, got {gamma}")


def contraction_probe(
    model: LangevinModel,
    x: np.ndarray,
    y: np.ndarray,
    gamma: float,
    n_steps: int,
    seed: int = 0,
) -> List[float]:
    """Distance trajectory of two chains driven by the same noise.

    Both chains take the identical Gaussian increments, so their distance
    evolves under the drift alone; on the quadratic model it equals
    |x - y| (1 - gamma)^n exactly (up to float rounding), and for any
    strongly convex potential it contracts at least geometrically.

    Args:
        model: LangevinModel with 0 < gamma <= alpha_eff / (2 l_eff^2).
        x, y: Starting points, shape (d,).
        gamma: Step size.
        n_steps: Number of steps.
        seed: Noise seed.

    Returns:
        List of length n_steps + 1: |x_n - y_n| for n = 0..n_steps.
    """
    _check_probe_step(model, gamma)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    d = model.dim
    stream = NoiseStream(seed, 0)
    distances = []

    def visit(engine, level, lo, hi):
        rows = engine.states(level, lo, hi)
        distances.extend(float(np.linalg.norm(v))
                         for v in rows[:, 0] - rows[:, 1])

    # rows x and y (at least 1-d, so two numbers are never read as one
    # (d,) point for both rows); one draw per step, shared by both rows
    rows = (np.atleast_1d(x), np.atleast_1d(y))

    def normals(out, steps):
        out[:steps] = stream.standard_normal((steps, 1, d))

    chain = _Level(gamma, n_steps, False, normals)
    _drive(model, rows, [chain], range(2), visit)
    return distances


def _sup_gap_sq(model: LangevinModel, gamma_coarse: float, horizon: float,
                n_paths: int, stream: NoiseStream, x0) -> float:
    """Monte-Carlo sup over coarse grid times of E|fine - coarse|^2."""
    d, p = model.dim, n_paths
    sup = 0.0

    def visit(engine, level, lo, hi):
        nonlocal sup
        rows = engine.states(level, lo, hi)  # the coarse rows, then the fine
        gap = rows[:, p:] - rows[:, :p]
        gap *= gap
        sup = max(sup, float(np.mean(np.sum(gap, axis=-1), axis=-1).max()))

    def normals(out, steps):
        out[:steps] = stream.standard_normal((steps, p, d))

    pair = _Level(gamma_coarse / 2.0, n_gamma(horizon, gamma_coarse), True,
                  normals)
    # one draw per chunk, so a short chunk costs no calls: half the
    # estimator's budget keeps the 2 n_paths rows' buffers near 16 MB
    _drive(model, x0, [pair], range(p), visit, _CHUNK_ELEMENT_TARGET // 2)
    return sup


def confluence_probe(
    model: LangevinModel,
    gamma: float,
    horizon: float,
    n_paths: int,
    seed: int = 0,
    x0=None,
) -> ConfluenceProbeResult:
    """Estimate the step-confluence order of coupled fine/coarse chains.

    For step gamma and for gamma/2, estimates the sup over coarse grid times
    of E|X_fine - X_coarse|^2 by Monte Carlo over n_paths coupled pairs
    started at x0, and reports

        order_estimate = log2( gap(gamma) / gap(gamma / 2) ),

    which is ~2 in the second-order (additive noise, smooth drift) regime:
    halving the step divides the squared gap by ~4.  A zero gap (e.g. no
    noise and a start at the fixed point) gives an undefined order (nan).

    Args:
        model: LangevinModel with 0 < gamma <= alpha_eff / (2 l_eff^2).
        gamma: Coarse step of the first pair.
        horizon: Time horizon of each pair (>= gamma).
        n_paths: Monte-Carlo paths (a few thousand for a stable order).
        seed: Noise seed (the two pairs use independent child streams).
        x0: Shared starting point (default: the origin).

    Returns:
        ConfluenceProbeResult(sup_gap_sq={gamma: ..., gamma/2: ...},
        order_estimate).
    """
    _check_probe_step(model, gamma)
    if horizon < gamma:
        raise ValueError(
            f"horizon={horizon} is shorter than one coarse step gamma={gamma}")
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    if n_paths < 100:
        warnings.warn(
            "confluence_probe with fewer than 100 paths is noise-dominated",
            RuntimeWarning)
    x0 = np.zeros(model.dim) if x0 is None else x0
    gap1 = _sup_gap_sq(model, gamma, horizon, n_paths, NoiseStream(seed, 0),
                       x0)
    gap2 = _sup_gap_sq(model, gamma / 2.0, horizon, n_paths,
                       NoiseStream(seed, 1), x0)
    if gap1 <= 0.0 or gap2 <= 0.0:
        order = float("nan")
    else:
        order = math.log2(gap1 / gap2)
    return ConfluenceProbeResult(
        sup_gap_sq={gamma: gap1, gamma / 2.0: gap2},
        order_estimate=order,
    )


def euler_invariant_moment_oracle(gamma: float) -> float:
    """Per-coordinate stationary second moment of the quadratic Euler chain.

    The chain x <- (1 - gamma) x + sqrt(2 gamma) g has stationary variance v
    solving v = (1 - gamma)^2 v + 2 gamma, i.e. v = 2 / (2 - gamma): the
    step-gamma discretization bias of the unit target variance.  Valid for
    gamma in (0, 2) (the chain is unstable beyond).
    """
    if not 0.0 < gamma < 2.0:
        raise ValueError(f"gamma must lie in (0, 2), got {gamma}")
    return 2.0 / (2.0 - gamma)
