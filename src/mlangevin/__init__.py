"""Multilevel pathwise-average Langevin estimator for Gibbs expectations.

Estimates pi(f) for pi(dx) proportional to exp(-U(x)) dx by combining a
coarse-step occupation average of an Euler-Maruyama Langevin scheme with a
telescoping sum of synchronously coupled fine/coarse correcting levels, plus
the matching parameter-tuning rules, warm-start preprocess, complexity
accounting, and a benchmark/diagnostic harness with a CLI front end.
"""

from .model import (
    LangevinModel,
    LogisticPerturbedPotential,
    Potential,
    QuadraticPotential,
    logistic_covariate,
    make_langevin_model,
    ou_reference_value,
)
from .sde import (
    NoiseStream,
    NumericalFailureError,
    PathState,
    euler_step,
    n_gamma,
    run_coupled_level,
    run_level0,
)
from .estimator import (
    EstimatorOutput,
    estimate,
    estimate_repeated,
    identity_observable,
    norm_observable,
)
from .tuning import (
    GeneralAssumptionConstants,
    TuningPlan,
    complexity_bound,
    plan_aggressive,
    plan_b1,
    plan_b2,
    plan_general,
)
from .warmstart import WarmStartResult, warm_start
from .diagnostics import (
    DEFAULT_COVARIATE_SEED,
    BenchReport,
    ConfluenceProbeResult,
    bench,
    confluence_probe,
    contraction_probe,
    euler_invariant_moment_oracle,
    logistic_posterior_mean,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "ConfluenceProbeResult",
    "DEFAULT_COVARIATE_SEED",
    "EstimatorOutput",
    "GeneralAssumptionConstants",
    "LangevinModel",
    "LogisticPerturbedPotential",
    "NoiseStream",
    "NumericalFailureError",
    "PathState",
    "Potential",
    "QuadraticPotential",
    "TuningPlan",
    "WarmStartResult",
    "bench",
    "complexity_bound",
    "confluence_probe",
    "contraction_probe",
    "estimate",
    "estimate_repeated",
    "euler_invariant_moment_oracle",
    "euler_step",
    "identity_observable",
    "logistic_covariate",
    "logistic_posterior_mean",
    "make_langevin_model",
    "n_gamma",
    "norm_observable",
    "ou_reference_value",
    "plan_aggressive",
    "plan_b1",
    "plan_b2",
    "plan_general",
    "run_coupled_level",
    "run_level0",
    "warm_start",
    "__version__",
]
