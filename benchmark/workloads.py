"""The pinned benchmark workloads and the checks on their outputs.

Each workload has a set-up step (model, plan, warm start, reference) and a
timed step (the estimator call, or the two probe calls).  Both call only
public ``mlangevin`` functions, with level scheduling left at its serial
default.  The ``span`` argument is a context-manager factory taking a layer
name; the untraced run passes ``no_span`` and the traced run passes
``Tracer.span`` (see ``tracing.py``).

Importing this module puts the checkout's own ``src/`` first on
``sys.path`` and refuses to run against any other copy of the package.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "mlangevin" / "__init__.py").is_file():
    raise ImportError(f"mlangevin sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import mlangevin as ml  # noqa: E402

if Path(ml.__file__).resolve().parent != SRC / "mlangevin":
    raise ImportError(f"imported mlangevin from {ml.__file__}, not from {SRC}")


def no_span(name: str):
    """Span factory of the untraced run: records nothing."""
    return contextlib.nullcontext()


@dataclass
class Outcome:
    """One timed call: its wall time, its cost and the result of its checks.

    ``attempted`` counts estimator runs (or probe calls); ``failed`` counts
    those that failed a check, with one message per failed check.
    """

    wall_s: float
    grad_evals: int
    attempted: int
    failed: int
    failures: list = field(default_factory=list)


@dataclass
class EstimatorState:
    """Everything the timed estimator call needs, built by ``setup``."""

    model: object
    plan: object
    x0: np.ndarray
    observable: object
    reference: object
    seed: int
    warm_iters: int | None


def _rmse(estimates, reference, dim: int) -> float:
    """Root-mean-squared error; vector errors are normalised by sqrt(d)."""
    ref = np.asarray(reference, dtype=float)
    errs = []
    for est in estimates:
        e = np.asarray(est, dtype=float)
        if e.ndim == 0:
            errs.append(abs(float(e) - float(ref)))
        else:
            errs.append(float(np.linalg.norm(e - ref)) / math.sqrt(dim))
    return math.sqrt(sum(x * x for x in errs) / len(errs))


def check_runs(outputs, plan, reference, dim: int, rmse_bound: float,
               relative: bool) -> list[tuple[int, str]]:
    """Return ``(run_index, message)`` for every failed check.

    Per run: the reported level iterations sum to the plan's predicted
    complexity, and the estimate is exactly the left-to-right sum of the
    level contributions.  Per batch: the RMSE against the reference is at
    most ``rmse_bound`` (times |reference| when ``relative``); a batch that
    misses it fails every one of its runs.
    """
    failures = []
    for out in outputs:
        if sum(out.level_iterations) != plan.predicted_complexity:
            failures.append((out.run_index, (
                f"run {out.run_index}: sum(level_iterations)="
                f"{sum(out.level_iterations)} != predicted_complexity="
                f"{plan.predicted_complexity}")))
        total = out.level_contributions[0]
        for c in out.level_contributions[1:]:
            total = total + c
        if not np.array_equal(np.asarray(total), np.asarray(out.estimate)):
            failures.append((out.run_index, (
                f"run {out.run_index}: estimate is not the left-to-right sum "
                f"of its level contributions")))
    rmse = _rmse([o.estimate for o in outputs], reference, dim)
    scale = float(np.linalg.norm(reference)) if relative else 1.0
    limit = rmse_bound * scale
    if not rmse <= limit:
        failures.extend((o.run_index, f"batch RMSE {rmse:.4g} > {limit:.4g}")
                        for o in outputs)
    return failures


@dataclass(frozen=True)
class EstimatorWorkload:
    """``n_runs`` repeated estimates of one model at accuracy ``eps``.

    ``potential`` is ``"logistic"`` (identity observable, warm start from
    zeros, exact quadrature reference) or ``"quadratic"`` (norm observable,
    start at zero, exact Gaussian-norm reference).  The batch passes when
    its RMSE is at most ``rmse_bound``, taken relative to |reference| when
    ``relative`` is set.
    """

    name: str
    potential: str
    d: int
    eps: float
    plan: str
    n_runs: int
    rmse_bound: float
    relative: bool = False
    lam: float = 0.25
    a: float = 2.0
    covariate_seed: int = ml.DEFAULT_COVARIATE_SEED

    def setup(self, seed: int, span=no_span) -> EstimatorState:
        with span("model.build"):
            if self.potential == "logistic":
                covariate = ml.logistic_covariate(
                    self.d, self.a, ml.NoiseStream(self.covariate_seed, 0))
                potential = ml.LogisticPerturbedPotential(
                    self.d, self.lam, covariate)
            else:
                potential = ml.QuadraticPotential(self.d)
            model = ml.make_langevin_model(potential, "auto")
        with span("tuning.plan"):
            if self.plan == "b2":
                plan = ml.plan_b2(model, self.eps)
            else:
                plan = ml.plan_aggressive(model, self.eps)
        warm_iters = None
        if self.potential == "logistic":
            with span("warmstart"):
                warm = ml.warm_start(potential, np.zeros(self.d))
            x0, warm_iters = warm.x0, warm.iters_used
            with span("diagnostics.reference"):
                reference = ml.logistic_posterior_mean(self.lam, covariate)
            observable = ml.identity_observable()
        else:
            x0 = np.zeros(self.d)
            with span("diagnostics.reference"):
                reference = ml.ou_reference_value(self.d)
            observable = ml.norm_observable()
        return EstimatorState(model, plan, x0, observable, reference, seed,
                              warm_iters)

    def measure(self, st: EstimatorState, span=no_span):
        """Time one ``estimate_repeated`` call; return (Outcome, outputs)."""
        t0 = time.perf_counter()
        with span("estimator"):
            outputs = ml.estimate_repeated(st.model, st.plan, st.x0,
                                           st.observable, st.seed, self.n_runs)
        wall = time.perf_counter() - t0
        failures = check_runs(outputs, st.plan, st.reference, self.d,
                              self.rmse_bound, self.relative)
        failed_runs = {run for run, _ in failures}
        outcome = Outcome(
            wall_s=wall,
            grad_evals=sum(o.total_complexity for o in outputs),
            attempted=len(outputs),
            failed=len(failed_runs),
            failures=[msg for _, msg in failures])
        return outcome, outputs


@dataclass
class ProbeState:
    contraction_model: object
    confluence_model: object
    seed: int


# Bound on |coordinate| of the contraction chains: their stationary law is
# close to N(0, 1), so 8 is eight standard deviations.
POSITION_BOUND = 8.0


@dataclass(frozen=True)
class ProbeWorkload:
    """``contraction_probe`` then ``confluence_probe`` on quadratic models.

    Contraction: two chains from ``0.5 * ones`` and ``-0.25 * ones`` must stay
    at |x - y| (1 - gamma)^n within the rounding bound of
    ``check_contraction``.  Confluence: the order estimate must lie in
    ``order_range``.
    """

    name: str
    contraction_d: int = 4
    contraction_gamma: float = 2.0 ** -13
    contraction_steps: int = 100_000
    confluence_d: int = 2
    confluence_gamma: float = 0.25
    confluence_horizon: float = 500.0
    confluence_paths: int = 2000
    order_range: tuple = (1.5, 2.5)

    def setup(self, seed: int, span=no_span) -> ProbeState:
        with span("model.build"):
            contraction = ml.make_langevin_model(
                ml.QuadraticPotential(self.contraction_d), "auto")
            confluence = ml.make_langevin_model(
                ml.QuadraticPotential(self.confluence_d), "auto")
        return ProbeState(contraction, confluence, seed)

    def grad_evals(self) -> int:
        """Drift evaluations of both probes: one per chain per Euler step.

        The contraction probe steps two chains; each confluence pair takes
        two fine steps and one coarse step per coarse grid point.
        """
        total = 2 * self.contraction_steps
        for gamma in (self.confluence_gamma, self.confluence_gamma / 2.0):
            total += (3 * self.confluence_paths
                      * ml.n_gamma(self.confluence_horizon, gamma))
        return total

    def measure(self, st: ProbeState, span=no_span):
        """Time both probe calls; return (Outcome, (distances, result))."""
        x = 0.5 * np.ones(self.contraction_d)
        y = -0.25 * np.ones(self.contraction_d)
        t0 = time.perf_counter()
        with span("diagnostics.contraction"):
            distances = ml.contraction_probe(
                st.contraction_model, x, y, self.contraction_gamma,
                self.contraction_steps, seed=st.seed)
        with span("diagnostics.confluence"):
            result = ml.confluence_probe(
                st.confluence_model, self.confluence_gamma,
                self.confluence_horizon, self.confluence_paths, seed=st.seed)
        wall = time.perf_counter() - t0
        failures = []
        msg = self.check_contraction(distances, float(np.linalg.norm(x - y)))
        if msg:
            failures.append(msg)
        lo, hi = self.order_range
        if not lo <= result.order_estimate <= hi:
            failures.append(f"confluence order {result.order_estimate:.4g} "
                            f"outside [{lo}, {hi}]")
        outcome = Outcome(wall_s=wall, grad_evals=self.grad_evals(),
                          attempted=2, failed=len(failures), failures=failures)
        return outcome, (distances, result)

    def check_contraction(self, distances, d0: float) -> str | None:
        """Message for the worst distance off the geometric rate, or None.

        On the unit quadratic both chains step x <- (1 - gamma) x + c g with
        the same c g, whose rounding is identical in both and cancels.  The
        other two roundings per coordinate add at most 2 u (|x| + |x'|) to
        each coordinate of x - y, where u is the unit roundoff.  With every
        coordinate below ``POSITION_BOUND`` that is at most 4 u M sqrt(d) per
        step, and contraction damps earlier errors by (1 - gamma) per step.
        The error bound is therefore 4 u M sqrt(d) (1 - (1 - gamma)^n) / gamma,
        plus a few u of the expected distance for the norm and the power.
        A tolerance that is relative to the distance fails on correct code:
        the distance shrinks as (1 - gamma)^n while the rounding does not.
        """
        if len(distances) != self.contraction_steps + 1:
            return (f"contraction returned {len(distances)} distances, "
                    f"expected {self.contraction_steps + 1}")
        gamma = self.contraction_gamma
        u = np.finfo(float).eps / 2
        decay = (1.0 - gamma) ** np.arange(len(distances))
        expected = d0 * decay
        per_step = 4 * u * POSITION_BOUND * math.sqrt(self.contraction_d)
        tol = per_step * (1.0 - decay) / gamma + 4 * u * expected
        ratio = np.abs(np.asarray(distances) - expected) / tol
        worst = int(np.argmax(ratio))
        if not ratio[worst] <= 1.0:
            return (f"contraction distance at step {worst} is "
                    f"{distances[worst]!r}, expected {expected[worst]!r} "
                    f"within {tol[worst]:.3g}")
        return None


WORKLOADS = {
    w.name: w for w in (
        EstimatorWorkload("logistic-d10-b2", "logistic", d=10, eps=0.3,
                          plan="b2", n_runs=20, rmse_bound=0.3),
        EstimatorWorkload("logistic-d100-aggressive", "logistic", d=100,
                          eps=0.2, plan="aggressive", n_runs=20,
                          rmse_bound=0.1, relative=True),
        EstimatorWorkload("ou-d10-runs200", "quadratic", d=10, eps=0.03,
                          plan="b2", n_runs=200, rmse_bound=0.03),
        ProbeWorkload("probes"),
    )
}
