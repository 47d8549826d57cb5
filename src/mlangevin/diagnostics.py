"""Benchmark harness and assumption probes.

Benchmarks rerun the estimator N times and report the empirical RMSE against
a reference value: the exact Gaussian-norm expectation for the quadratic
(Ornstein-Uhlenbeck) benchmark, and a high-precision in-repo reference (or
the exact quadrature posterior mean) for the logistic benchmark.

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

import importlib.resources
import json
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np

from .estimator import (
    EstimatorOutput,
    estimate,
    estimate_repeated,
    identity_observable,
    norm_observable,
)
from .model import (
    LangevinModel,
    LogisticPerturbedPotential,
    QuadraticPotential,
    logistic_covariate,
    make_langevin_model,
    ou_reference_value,
)
from .sde import _INV_SQRT2, NoiseStream, _chains, _chunk_steps, n_gamma
from .tuning import TuningPlan, plan_aggressive, plan_b2
from .warmstart import warm_start

__all__ = [
    "BenchReport",
    "ConfluenceProbeResult",
    "DEFAULT_COVARIATE_SEED",
    "REFERENCE_MASTER_SEED",
    "bench_logistic",
    "bench_ou",
    "confluence_probe",
    "contraction_probe",
    "euler_invariant_moment_oracle",
    "logistic_posterior_mean",
    "logistic_reference_run",
]

# Pinned seeds for the shipped logistic benchmark configuration.  The
# covariate draw and the high-precision reference run are both deterministic
# functions of these, so the frozen reference in data/ can be regenerated
# exactly (see scripts/make_logistic_reference.py).
DEFAULT_COVARIATE_SEED = 7
REFERENCE_MASTER_SEED = 990001

_REFERENCE_DATA = "logistic_reference_d10.json"


@dataclass
class BenchReport:
    """RMSE summary of repeated estimator runs against a reference.

    The error metric is the absolute difference for scalar observables and
    the normalized Euclidean distance d^(-1/2) |a - b|_2 for vector ones;
    rmse^2 is the mean of squared per-run errors.

    Attributes:
        model_label: Short description of the benchmark model.
        plan_echo: TuningPlan used for the runs.
        n_runs: Number of replications.
        reference_value: Reference (float or coordinate list).
        rmse: Empirical root-mean-squared error.
        per_run_estimates: Estimates per run (floats or coordinate lists).
        mean_complexity: Mean total step count per run.
        wall_clock_seconds: Wall time of the replication loop.
        seed: Master seed of the replication harness.
        reference_source: Provenance of the reference value.
    """

    model_label: str
    plan_echo: TuningPlan
    n_runs: int
    reference_value: object
    rmse: float
    per_run_estimates: List[object]
    mean_complexity: int
    wall_clock_seconds: float
    seed: int = 0
    reference_source: str = ""

    def to_dict(self) -> dict:
        def _plain(v):
            if isinstance(v, np.ndarray):
                return [float(c) for c in v]
            if isinstance(v, (list, tuple)):
                return [float(c) for c in v]
            return float(v)

        return {
            "model_label": self.model_label,
            "plan_echo": self.plan_echo.to_dict(),
            "n_runs": int(self.n_runs),
            "reference_value": _plain(self.reference_value),
            "rmse": float(self.rmse),
            "per_run_estimates": [_plain(e) for e in self.per_run_estimates],
            "mean_complexity": int(self.mean_complexity),
            "wall_clock_seconds": float(self.wall_clock_seconds),
            "seed": int(self.seed),
            "reference_source": self.reference_source,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def csv_rows(self) -> List[dict]:
        """One row per run: run, estimate[, coord...], complexity, seconds.

        Vector estimates expand into one ``estimate_i`` column per
        coordinate.  The seconds column is the amortized wall time
        (total / n_runs); replications execute as one batch.
        """
        rows = []
        per_run_seconds = self.wall_clock_seconds / max(1, self.n_runs)
        for i, est in enumerate(self.per_run_estimates):
            row = {"run": i}
            if isinstance(est, (np.ndarray, list, tuple)):
                for j, c in enumerate(est):
                    row[f"estimate_{j}"] = float(c)
            else:
                row["estimate"] = float(est)
            row["complexity"] = int(self.mean_complexity)
            row["seconds"] = per_run_seconds
            rows.append(row)
        return rows


class ConfluenceProbeResult(NamedTuple):
    """Sup-gap estimates at two step sizes and the implied order."""

    sup_gap_sq: dict
    order_estimate: float


def _rmse(estimates: List[object], reference, dim: int) -> tuple[float, list]:
    errs = []
    ref = np.asarray(reference, dtype=float)
    for est in estimates:
        e = np.asarray(est, dtype=float)
        if e.ndim == 0:
            errs.append(abs(float(e) - float(ref)))
        else:
            errs.append(float(np.linalg.norm(e - ref)) / math.sqrt(dim))
    return math.sqrt(sum(x * x for x in errs) / len(errs)), errs


def bench_ou(
    d: int,
    eps: float,
    n_runs: int,
    x0_mode: str = "zero",
    seed: int = 0,
) -> BenchReport:
    """RMSE benchmark of f(x) = |x| under the quadratic potential.

    Builds the quadratic model with the auto noise scale, tunes a b2 plan at
    accuracy eps, runs the estimator n_runs times, and compares against the
    exact Gaussian-norm expectation.

    Args:
        d: Even dimension.
        eps: Target accuracy in (0, 1).
        n_runs: Replications (>= 1).
        x0_mode: Starting point: ``"zero"``, ``"ones"``, or ``"warmstart"``
            (descent from the ones vector; a no-op region check for this
            model).
        seed: Master seed for the replication harness.

    Returns:
        BenchReport (bit-reproducible given identical inputs, apart from
        wall_clock_seconds).
    """
    potential = QuadraticPotential(d)
    model = make_langevin_model(potential, "auto")
    plan = plan_b2(model, eps, include_log2=False)
    x0 = _resolve_x0(potential, x0_mode)
    reference = ou_reference_value(d)
    t0 = time.perf_counter()
    outs = estimate_repeated(model, plan, x0, norm_observable(), seed, n_runs)
    wall = time.perf_counter() - t0
    estimates = [o.estimate for o in outs]
    rmse, _ = _rmse(estimates, reference, d)
    return BenchReport(
        model_label=f"ou(d={d})",
        plan_echo=plan,
        n_runs=n_runs,
        reference_value=reference,
        rmse=rmse,
        per_run_estimates=estimates,
        mean_complexity=int(round(
            sum(o.total_complexity for o in outs) / len(outs))),
        wall_clock_seconds=wall,
        seed=seed,
        reference_source="exact Gaussian-norm expectation",
    )


def _resolve_x0(potential, x0_mode: str) -> np.ndarray:
    d = potential.dim
    if x0_mode == "zero":
        return np.zeros(d)
    if x0_mode == "ones":
        return np.ones(d)
    if x0_mode == "warmstart":
        return warm_start(potential, np.ones(d)).x0
    raise ValueError(f"unknown x0_mode {x0_mode!r}")


def _load_pinned_reference(d, lam, a, covariate_seed, covariate) -> dict | None:
    if (d, float(lam), float(a), covariate_seed) != (
            10, 0.25, 2.0, DEFAULT_COVARIATE_SEED):
        return None
    try:
        path = importlib.resources.files("mlangevin").joinpath(
            "data", _REFERENCE_DATA)
        data = json.loads(path.read_text())
    except (FileNotFoundError, OSError):
        return None
    stored_cov = np.asarray(data["covariate"], dtype=float)
    if stored_cov.shape != covariate.shape or not np.allclose(
            stored_cov, covariate, rtol=0.0, atol=1e-12):
        warnings.warn(
            "frozen logistic reference does not match the requested "
            "covariate; ignoring it", RuntimeWarning)
        return None
    return data


def logistic_reference_run(
    d: int,
    lam: float,
    a: float,
    eps_ref: float = 0.01,
    covariate_seed: int = DEFAULT_COVARIATE_SEED,
    master_seed: int = REFERENCE_MASTER_SEED,
) -> EstimatorOutput:
    """High-precision posterior-mean run used to produce reference values.

    Deterministic given its arguments: the covariate comes from
    ``NoiseStream(covariate_seed, 0)``, the start from the zero-initialized
    warm start, and the run from ``master_seed``.  Expensive (complexity
    scales as eps_ref^-2); the packaged d=10 result is frozen under data/.
    """
    covariate = logistic_covariate(d, a, NoiseStream(covariate_seed, 0))
    potential = LogisticPerturbedPotential(d, lam, covariate)
    model = make_langevin_model(potential, "auto")
    plan = plan_b2(model, eps_ref, include_log2=False)
    x0 = warm_start(potential, np.zeros(d)).x0
    return estimate(model, plan, x0, identity_observable(), master_seed)


def bench_logistic(
    d: int,
    lam: float,
    a: float,
    eps: float,
    n_runs: int,
    seed: int = 0,
    covariate_seed: int = DEFAULT_COVARIATE_SEED,
    regime: str = "b2",
    reference_mode: str = "auto",
) -> BenchReport:
    """Posterior-mean benchmark for the logistic-perturbed potential.

    Runs the vector (identity) observable n_runs times from a warm start and
    reports the normalized L2 RMSE d^(-1/2)|est - ref|_2 against a reference
    posterior mean.

    Reference policy (``reference_mode="auto"``): the shipped configuration
    (d=10, lam=1/4, a=2, default covariate seed) loads the frozen in-repo
    high-precision run (eps = 0.01, pinned seed); any other configuration
    uses the exact posterior mean from one-dimensional quadrature (the
    posterior factorizes along the covariate direction, so this is the same
    quantity the expensive run approximates).  ``reference_mode="live"``
    forces a fresh eps=0.01 estimator run (slow).

    Args:
        d: Dimension.
        lam: Ridge weight of the quadratic part.
        a: Covariate scale (|covariate|^2 = 5a).
        eps: Target accuracy of the benchmarked runs.
        n_runs: Replications (>= 1).
        seed: Master seed for the replication harness.
        covariate_seed: Seed of the covariate draw.
        regime: ``"b2"`` (tuned plan) or ``"aggressive"`` (enlarged base
            step).
        reference_mode: ``"auto"`` or ``"live"`` (see above).

    Returns:
        BenchReport.
    """
    covariate = logistic_covariate(d, a, NoiseStream(covariate_seed, 0))
    potential = LogisticPerturbedPotential(d, lam, covariate)
    model = make_langevin_model(potential, "auto")
    if regime == "b2":
        plan = plan_b2(model, eps, include_log2=False)
    elif regime == "aggressive":
        plan = plan_aggressive(model, eps)
    else:
        raise ValueError(f"unknown regime {regime!r} (use 'b2' or 'aggressive')")
    x0 = warm_start(potential, np.zeros(d)).x0

    if reference_mode == "live":
        ref_out = logistic_reference_run(
            d, lam, a, covariate_seed=covariate_seed)
        reference = np.asarray(ref_out.estimate, dtype=float)
        reference_source = "live estimate(eps=0.01)"
    elif reference_mode == "auto":
        data = _load_pinned_reference(d, lam, a, covariate_seed, covariate)
        if data is not None:
            reference = np.asarray(data["estimate"], dtype=float)
            reference_source = (
                f"frozen estimate(eps={data['eps_ref']}, "
                f"master_seed={data['master_seed']})")
        else:
            reference = logistic_posterior_mean(lam, covariate)
            reference_source = "exact quadrature posterior mean"
    else:
        raise ValueError(
            f"unknown reference_mode {reference_mode!r} (use 'auto' or 'live')")

    t0 = time.perf_counter()
    outs = estimate_repeated(model, plan, x0, identity_observable(), seed,
                             n_runs)
    wall = time.perf_counter() - t0
    estimates = [o.estimate for o in outs]
    rmse, _ = _rmse(estimates, reference, d)
    return BenchReport(
        model_label=f"logistic(d={d}, lam={lam}, a={a})",
        plan_echo=plan,
        n_runs=n_runs,
        reference_value=reference,
        rmse=rmse,
        per_run_estimates=estimates,
        mean_complexity=int(round(
            sum(o.total_complexity for o in outs) / len(outs))),
        wall_clock_seconds=wall,
        seed=seed,
        reference_source=reference_source,
    )


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
        lam: Ridge weight (> 0).
        covariate: Covariate vector x (nonzero).

    Returns:
        Posterior mean vector, shape like ``covariate``.
    """
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    covariate = np.asarray(covariate, dtype=float)
    s = float(np.linalg.norm(covariate))
    if s == 0:
        raise ValueError("covariate must be nonzero")
    slope = s / math.sqrt(lam)
    h = min(0.05, 0.53 / slope)
    z_max = 9.0
    n = int(math.ceil(2.0 * z_max / h)) + 1
    z = np.linspace(-z_max, z_max, n)
    arg = -slope * z
    e = np.exp(-np.abs(arg))
    sig = np.where(arg >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    w = np.exp(-0.5 * z * z) * sig
    m = float(np.sum(w * z) / np.sum(w)) / math.sqrt(lam)
    return (m / s) * covariate


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
        model: LangevinModel with gamma <= alpha_eff / (2 l_eff^2).
        x, y: Starting points, shape (d,).
        gamma: Step size.
        n_steps: Number of steps.
        seed: Noise seed.

    Returns:
        List of length n_steps + 1: |x_n - y_n| for n = 0..n_steps.
    """
    if gamma > model.alpha_eff / (2.0 * model.l_eff ** 2):
        raise ValueError(
            f"gamma={gamma} exceeds the contraction step bound "
            f"alpha_eff/(2 l_eff^2) = {model.alpha_eff / (2.0 * model.l_eff ** 2)}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rows = np.array([x, y], dtype=float)
    d = model.dim
    if rows.shape != (2, d):
        raise ValueError(f"x and y must have shape ({d},), got {rows.shape[1:]}")
    stream = NoiseStream(seed, 0)
    cn = model.noise_scale * math.sqrt(gamma)

    def draw(n):
        # one draw per step, shared by both rows
        g = stream.standard_normal((n, 1, 1, d))
        g *= cn
        return g, None

    distances = []
    for _, (hist,) in _chains(model, rows, float(gamma), n_steps, draw,
                              _chunk_steps(2, d), pair=False):
        gaps = hist[:, 0] - hist[:, 1]
        distances.extend(float(np.linalg.norm(v)) for v in gaps)
    return distances


def _sup_gap_sq(model: LangevinModel, gamma_coarse: float, horizon: float,
                n_paths: int, stream: NoiseStream, x0=None) -> float:
    """Monte-Carlo sup over coarse grid times of E|fine - coarse|^2."""
    gamma_f = gamma_coarse / 2.0
    d = model.dim
    cn_f = model.noise_scale * math.sqrt(gamma_f)
    cn_c = model.noise_scale * math.sqrt(gamma_coarse)
    if x0 is None:
        start = np.zeros((n_paths, d))
    else:
        start = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))

    def draw(n):
        noise = stream.standard_normal((n, 2, n_paths, d))
        coarse = noise[:, 0] + noise[:, 1]
        coarse *= _INV_SQRT2 * cn_c
        noise *= cn_f
        return noise, coarse

    # besides the three increment arrays a chunk holds both histories; a
    # quarter of the estimator's chunk keeps that below 3 (n, n_paths, d)
    # arrays at the full chunk, what drawing alone would take
    chunk = _chunk_steps(4 * n_paths, d)
    sup = 0.0
    for _, (fine, coarse) in _chains(model, start, gamma_f,
                                     n_gamma(horizon, gamma_coarse), draw,
                                     chunk, pair=True):
        gap = fine - coarse
        gap *= gap
        sup = max(sup, float(np.mean(np.sum(gap, axis=-1), axis=-1).max()))
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
    started at the origin, and reports

        order_estimate = log2( gap(gamma) / gap(gamma / 2) ),

    which is ~2 in the second-order (additive noise, smooth drift) regime:
    halving the step divides the squared gap by ~4.  A zero gap (e.g. no
    noise and a start at the fixed point) gives an undefined order (nan).

    Args:
        model: LangevinModel with gamma <= alpha_eff / (2 l_eff^2).
        gamma: Coarse step of the first pair.
        horizon: Time horizon of each pair.
        n_paths: Monte-Carlo paths (a few thousand for a stable order).
        seed: Noise seed (the two pairs use independent child streams).
        x0: Shared starting point (default: the origin).

    Returns:
        ConfluenceProbeResult(sup_gap_sq={gamma: ..., gamma/2: ...},
        order_estimate).
    """
    if gamma > model.alpha_eff / (2.0 * model.l_eff ** 2):
        raise ValueError(
            f"gamma={gamma} exceeds the step bound alpha_eff/(2 l_eff^2) = "
            f"{model.alpha_eff / (2.0 * model.l_eff ** 2)}")
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    if n_paths < 100:
        warnings.warn(
            "confluence_probe with fewer than 100 paths is noise-dominated",
            RuntimeWarning)
    gap1 = _sup_gap_sq(model, gamma, horizon, n_paths, NoiseStream(seed, 0),
                       x0=x0)
    gap2 = _sup_gap_sq(model, gamma / 2.0, horizon, n_paths,
                       NoiseStream(seed, 1), x0=x0)
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
