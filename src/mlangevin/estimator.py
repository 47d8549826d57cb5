"""Multilevel pathwise-average estimator assembly and complexity accounting.

The estimator combines the level-0 occupation average at step gamma0 with R
correcting levels, each the averaged difference between a fine (gamma_r) and
coarse (gamma_{r-1} = 2 gamma_r) Euler chain driven by the same Brownian
increments.  The levels go through the Euler engine of ``sde`` together:
level 0 is a single chain and level r >= 1 a coupled fine/coarse pair, and
levels whose rows stay narrow share one tick loop.  The R + 1 levels share
no state: level r reads only ``NoiseStream(seed, r, run)`` and the starting
point, so no order, schedule or grouping of the levels changes a state, and
its contribution equals the standalone ``run_level0`` / ``run_coupled_level``
call on that stream byte for byte while both use one chunk size (see
``sde``).

An observable is a plain function along the last axis, points (N, d) to
values (N,) or (N, m); ``norm_observable`` and ``identity_observable`` build
the two the package uses.  A scalar observable gives float contributions and
estimates, a vector one (m,) arrays.

Repeated runs for RMSE harnesses advance as rows of one batched simulation
(bit-identical to running them one at a time) with the run index mixed into
the child seeds, so the outputs are independent across runs and reproducible.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .model import LangevinModel
from .sde import (
    NoiseStream,
    _run_levels,
    _run_value,
    _window_level,
)
# not called here: the benchmark tracer's TARGETS look them up in this module
from .sde import _run_coupled_batch, _run_level0_batch  # noqa: F401
from .tuning import TuningPlan

__all__ = [
    "EstimatorOutput",
    "estimate",
    "estimate_repeated",
    "identity_observable",
    "norm_observable",
]


def norm_observable() -> Callable[[np.ndarray], np.ndarray]:
    """f(x) = |x| (Euclidean norm), Lipschitz constant 1."""
    return lambda pts: np.linalg.norm(pts, axis=-1)


def identity_observable() -> Callable[[np.ndarray], np.ndarray]:
    """f(x) = x, coordinatewise 1-Lipschitz."""
    return lambda pts: np.array(pts, dtype=float, copy=True)


def _plain(v):
    """A float, or a list of floats for an array or a sequence."""
    if isinstance(v, (np.ndarray, list, tuple)):
        return [float(c) for c in v]
    return float(v)


@dataclass
class EstimatorOutput:
    """Result of one multilevel run.

    It holds the per-level results and where they came from; ``estimate``,
    ``total_complexity`` and ``warnings`` are derived from them.  The
    estimate is computed on first read and kept, so one assignment can
    replace it (the benchmark's checks fake a broken sum that way); the
    other two are read-only.

    Attributes:
        level_contributions: Per-level averages, length R + 1 (index 0 is the
            base occupation average; r >= 1 are correcting differences),
            floats (scalar observable) or ndarrays (vector).
        level_iterations: Reported per-level step counts.
        plan_echo: The TuningPlan that produced this run.
        master_seed: Master seed of the noise-stream tree.
        run_index: Replication index (0 for single runs).
    """

    level_contributions: List[object]
    level_iterations: List[int]
    plan_echo: TuningPlan
    master_seed: int
    run_index: int = 0

    @functools.cached_property
    def estimate(self):
        """The left-to-right sum of ``level_contributions``; fixed order, so
        additivity is exact by construction."""
        total = self.level_contributions[0]
        for c in self.level_contributions[1:]:
            total = total + c
        return total

    @property
    def total_complexity(self) -> int:
        """Sum of ``level_iterations``."""
        return int(sum(self.level_iterations))

    @property
    def warnings(self) -> List[str]:
        """Run warnings: a note when the plan's burn-in is clamped."""
        plan = self.plan_echo
        if not plan.tau_clamped:
            return []
        return [f"burn-in clamped: tau={plan.tau:.6g} exceeds T_R/2="
                f"{plan.horizons[-1] / 2.0:.6g}; using "
                f"tau={plan.tau_effective:.6g}"]

    def to_dict(self) -> dict:
        return {
            "estimate": _plain(self.estimate),
            "level_contributions": [_plain(c) for c in self.level_contributions],
            "level_iterations": [int(n) for n in self.level_iterations],
            "total_complexity": self.total_complexity,
            "plan_echo": self.plan_echo.to_dict(),
            "master_seed": int(self.master_seed),
            "run_index": int(self.run_index),
            "warnings": self.warnings,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def csv_rows(self) -> List[dict]:
        """One row per level: level, gamma, T, contribution, iterations.

        Vector contributions are serialized as a semicolon-joined coordinate
        list in the ``contribution`` column.
        """
        rows = []
        for r, contrib in enumerate(self.level_contributions):
            if isinstance(contrib, np.ndarray):
                text = ";".join(repr(float(c)) for c in contrib)
            else:
                text = repr(float(contrib))
            rows.append({
                "level": r,
                "gamma": self.plan_echo.gamma[r],
                "T": self.plan_echo.horizons[r],
                "contribution": text,
                "iterations": int(self.level_iterations[r]),
            })
        return rows


def _estimate_batch(
    model: LangevinModel,
    plan: TuningPlan,
    x0: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    master_seed: int,
    run_indices: Sequence[int],
) -> List[EstimatorOutput]:
    """Run all levels for a batch of replications and split per-run outputs."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise ValueError(
            f"x0 must have shape ({model.dim},), got {x0.shape}")
    if plan.dim and plan.dim != model.dim:
        raise ValueError(
            f"plan dimension {plan.dim} does not match model dimension {model.dim}")

    levels, steps = zip(*(
        _window_level(model.dim, plan.gamma[r], plan.tau_effective,
                      plan.horizons[r], r > 0,
                      [NoiseStream(master_seed, r, run_index=idx)
                       for idx in run_indices], label=r)
        for r in range(plan.R + 1)))
    averages = _run_levels(model, x0, levels, f, list(run_indices))
    return [EstimatorOutput(
        level_contributions=[_run_value(avg[b]) for avg in averages],
        level_iterations=[int(n) for n in steps],
        plan_echo=plan,
        master_seed=int(master_seed),
        run_index=int(idx),
    ) for b, idx in enumerate(run_indices)]


def estimate(
    model: LangevinModel,
    plan: TuningPlan,
    x0: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    master_seed: int,
) -> EstimatorOutput:
    """Run the multilevel estimator once.

    Level 0 simulates the occupation average at step ``plan.gamma[0]`` up to
    ``plan.horizons[0]``; each level r = 1..``plan.R`` adds the averaged
    fine-minus-coarse difference at step ``plan.gamma[r]`` up to
    ``plan.horizons[r]``, with level r driven by
    ``NoiseStream(master_seed, r)``.  The estimate is the left-to-right sum
    of the level contributions, and ``total_complexity`` equals
    ``plan.predicted_complexity``.  Every level averages from
    ``plan.tau_effective`` = min(tau, T_R / 2); a warning is recorded in the
    output when the plan's raw burn-in is clamped (``plan.tau_clamped``).

    Args:
        model: LangevinModel (dimension must match the plan).
        plan: TuningPlan, tuned (``plan_b2`` etc.) or built by hand from
            gamma0, the horizons and tau.
        x0: Starting point for every level, shape (d,), finite.
        f: The observable, a function mapping points (N, d) to values (N,)
            (scalar) or (N, m) (vector), as ``sde`` describes.
        master_seed: Seed of the noise-stream tree.

    Returns:
        EstimatorOutput.

    Raises:
        NumericalFailureError: A trajectory left the finite range; the
            error names the level, the run and the step.
    """
    return _estimate_batch(model, plan, x0, f, master_seed,
                           run_indices=[0])[0]


def estimate_repeated(
    model: LangevinModel,
    plan: TuningPlan,
    x0: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    master_seed: int,
    n_runs: int,
) -> List[EstimatorOutput]:
    """Run the estimator n_runs times with independent run-indexed streams.

    Run i uses ``NoiseStream(master_seed, level, run_index=i)`` for every
    level, so the outputs are mutually independent, order-deterministic, and
    ``estimate_repeated(..., n_runs=1)[0]`` coincides with ``estimate(...)``
    bit for bit.  Internally the runs advance together as batch rows with
    bit-identical trajectories.  Window sums match one-at-a-time execution
    exactly while the chunk cap binds for both (the engine's group rows * d
    up to about 320, see ``sde``) and to ~1e-15 relative accuracy beyond
    that.

    Args:
        n_runs: Number of replications (>= 1).  Other args as in
            :func:`estimate`.

    Returns:
        List of EstimatorOutput, one per run, in run order.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    return _estimate_batch(model, plan, x0, f, master_seed,
                           run_indices=list(range(n_runs)))
