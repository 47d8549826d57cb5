"""Multilevel pathwise-average estimator assembly and complexity accounting.

The estimator combines the level-0 occupation average at step gamma0 with R
correcting levels, each the averaged difference between a fine (gamma_r) and
coarse (gamma_{r-1} = 2 gamma_r) Euler chain driven by the same Brownian
increments.  Each level is one call into the Euler engine of ``sde``: level 0
runs a single chain, and level r >= 1 runs a coupled fine/coarse pair.  The
R + 1 levels share no state: level r reads only ``NoiseStream(seed, r, run)``
and the starting point, so its contribution equals the standalone
``run_level0`` / ``run_coupled_level`` call on that stream byte for byte, and
no order or schedule of the levels can change the result.

Repeated runs for RMSE harnesses advance as rows of one batched simulation
(bit-identical to running them one at a time) with the run index mixed into
the child seeds, so the outputs are independent across runs and reproducible.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from .model import LangevinModel
from .sde import (
    NoiseStream,
    NumericalFailureError,
    _run_coupled_batch,
    _run_level0_batch,
)
from .tuning import TuningPlan

__all__ = [
    "EstimatorOutput",
    "Observable",
    "estimate",
    "estimate_repeated",
    "identity_observable",
    "norm_observable",
]

@dataclass
class Observable:
    """A Lipschitz test function f read along the simulated paths.

    Attributes:
        kind: ``"scalar"`` for f: R^d -> R, ``"vector"`` for f: R^d -> R^m
            (vector observables are averaged coordinatewise along the same
            paths).
        apply: Point-wise evaluation, point of shape (d,) -> float or (m,).
        label: Short name; built-ins use ``"norm"`` and ``"identity"``.
        apply_batch: Optional vectorized form, (N, d) -> (N,) or (N, m).
            When omitted, a row loop over ``apply`` is used.  The caller
            declares Lipschitz intent; it is not checked.
    """

    kind: str
    apply: Callable[[np.ndarray], object]
    label: str = "custom"
    apply_batch: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.kind not in ("scalar", "vector"):
            raise ValueError(f"kind must be 'scalar' or 'vector', got {self.kind!r}")

    def __call__(self, x):
        return self.apply(x)


def norm_observable() -> Observable:
    """f(x) = |x| (Euclidean norm), Lipschitz constant 1."""
    return Observable(
        kind="scalar",
        apply=lambda x: float(np.linalg.norm(np.asarray(x, dtype=float))),
        label="norm",
        apply_batch=lambda pts: np.linalg.norm(pts, axis=-1),
    )


def identity_observable() -> Observable:
    """f(x) = x, coordinatewise 1-Lipschitz."""
    return Observable(
        kind="vector",
        apply=lambda x: np.asarray(x, dtype=float).copy(),
        label="identity",
        apply_batch=lambda pts: np.array(pts, dtype=float, copy=True),
    )


@dataclass
class EstimatorOutput:
    """Result of one multilevel run.

    Attributes:
        estimate: Final value, float (scalar observable) or ndarray (vector).
            Equals the left-to-right sum of ``level_contributions`` exactly.
        level_contributions: Per-level averages, length R + 1 (index 0 is the
            base occupation average; r >= 1 are correcting differences).
        level_iterations: Reported per-level step counts.
        total_complexity: Sum of level_iterations.
        plan_echo: The TuningPlan that produced this run.
        master_seed: Master seed of the noise-stream tree.
        run_index: Replication index (0 for single runs).
        warnings: Recorded run warnings (e.g. burn-in clamping).
    """

    estimate: object
    level_contributions: List[object]
    level_iterations: List[int]
    total_complexity: int
    plan_echo: TuningPlan
    master_seed: int
    run_index: int = 0
    warnings: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        def _plain(v):
            if isinstance(v, np.ndarray):
                return [float(c) for c in v]
            return float(v)

        return {
            "estimate": _plain(self.estimate),
            "level_contributions": [_plain(c) for c in self.level_contributions],
            "level_iterations": [int(n) for n in self.level_iterations],
            "total_complexity": int(self.total_complexity),
            "plan_echo": self.plan_echo.to_dict(),
            "master_seed": int(self.master_seed),
            "run_index": int(self.run_index),
            "warnings": list(self.warnings),
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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["level", "gamma", "T", "contribution", "iterations"])
        writer.writeheader()
        for row in self.csv_rows():
            writer.writerow(row)
        return buf.getvalue()


def _estimate_batch(
    model: LangevinModel,
    plan: TuningPlan,
    x0: np.ndarray,
    f: Observable,
    master_seed: int,
    run_indices: Sequence[int],
    level_seeds: dict | None = None,
) -> List[EstimatorOutput]:
    """Run all levels for a batch of replications and split per-run outputs."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.dim,):
        raise ValueError(
            f"x0 must have shape ({model.dim},), got {x0.shape}")
    if plan.dim and plan.dim != model.dim:
        raise ValueError(
            f"plan dimension {plan.dim} does not match model dimension {model.dim}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")

    tau_eff = plan.tau_effective
    warnings_list: List[str] = []
    if plan.tau_clamped:
        warnings_list.append(
            f"burn-in clamped: tau={plan.tau:.6g} exceeds T_R/2="
            f"{plan.horizons[-1] / 2.0:.6g}; using tau={tau_eff:.6g}")

    bsz = len(run_indices)
    x0_batch = np.tile(x0, (bsz, 1))
    seeds = level_seeds or {}

    def level_job(r: int):
        seed_r = seeds.get(r, master_seed)
        streams = [NoiseStream(seed_r, r, run_index=idx) for idx in run_indices]
        try:
            if r == 0:
                return _run_level0_batch(
                    model, x0_batch, plan.gamma[0], tau_eff, plan.horizons[0],
                    f, streams)
            return _run_coupled_batch(
                model, x0_batch, plan.gamma[r], tau_eff, plan.horizons[r],
                f, streams)
        except NumericalFailureError as err:
            err.level_index = r
            err.args = (f"level {r}: {err}",)
            raise

    results = [level_job(r) for r in range(plan.R + 1)]

    level_iterations = [int(res[1]) for res in results]
    total = int(sum(level_iterations))

    outputs = []
    scalar = f.kind == "scalar" if isinstance(f, Observable) else None
    for b, idx in enumerate(run_indices):
        contribs = []
        for r in range(plan.R + 1):
            row = results[r][0][b]
            if np.ndim(row) == 0:
                contribs.append(float(row))
            else:
                contribs.append(np.array(row, dtype=float))
        # fixed left-to-right summation so additivity is exact by construction
        total_est = contribs[0]
        for c in contribs[1:]:
            total_est = total_est + c
        if scalar is None:
            scalar = np.ndim(total_est) == 0
        outputs.append(EstimatorOutput(
            estimate=float(total_est) if scalar else total_est,
            level_contributions=contribs,
            level_iterations=list(level_iterations),
            total_complexity=total,
            plan_echo=plan,
            master_seed=int(master_seed),
            run_index=int(idx),
            warnings=list(warnings_list),
        ))
    return outputs


def estimate(
    model: LangevinModel,
    plan: TuningPlan,
    x0: np.ndarray,
    f: Observable,
    master_seed: int,
    level_seeds: dict | None = None,
) -> EstimatorOutput:
    """Run the multilevel estimator once.

    Level 0 simulates the occupation average at step gamma0; each level
    r = 1..R adds the averaged fine-minus-coarse difference at step gamma_r,
    with level r driven by ``NoiseStream(master_seed, r)``.  The estimate is
    the left-to-right sum of the level contributions.  The plan's raw burn-in
    is clamped to min(tau, T_R / 2) before use; a warning is recorded in the
    output when clamping fires.

    Args:
        model: LangevinModel (dimension must match the plan).
        x0: Starting point for every level, shape (d,), finite.
        f: Observable (scalar or vector kind).
        master_seed: Seed of the noise-stream tree.
        level_seeds: Optional test hook {level: replacement_master_seed}
            re-seeding individual levels in isolation.

    Returns:
        EstimatorOutput.
    """
    return _estimate_batch(model, plan, x0, f, master_seed, run_indices=[0],
                           level_seeds=level_seeds)[0]


def estimate_repeated(
    model: LangevinModel,
    plan: TuningPlan,
    x0: np.ndarray,
    f: Observable,
    master_seed: int,
    n_runs: int,
) -> List[EstimatorOutput]:
    """Run the estimator n_runs times with independent run-indexed streams.

    Run i uses ``NoiseStream(master_seed, level, run_index=i)`` for every
    level, so the outputs are mutually independent, order-deterministic, and
    ``estimate_repeated(..., n_runs=1)[0]`` coincides with ``estimate(...)``
    bit for bit.  Internally the runs advance together as batch rows with
    bit-identical trajectories; window sums match one-at-a-time execution
    exactly while the chunk layout coincides (n_runs * d up to ~500) and to
    ~1e-15 relative accuracy beyond that.

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
