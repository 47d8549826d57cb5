"""Parameter-tuning rules for the multilevel pathwise-average estimator.

Given a target accuracy eps in (0, 1), a rule picks the base step gamma0,
the horizons T_0 > ... > T_R and the burn-in tau.  A ``TuningPlan`` holds
just those inputs (plus labels saying how they were tuned) and derives the
rest: the level count R = len(horizons) - 1, the halving steps
gamma_r = gamma0 * 2^-r, the total step count, and feasibility tau <= T_R / 2.

Three concrete regimes are provided for strongly convex potentials:

* ``plan_b2`` -- the second-order-confluence regime (additive noise, C^3
  potential): geometric horizons T_r = big_t * eps^-2 * 2^(-3r/2), giving
  total complexity O(d * eps^-2).
* ``plan_b1`` -- the first-order regime requiring only C^2 smoothness:
  horizons carry an extra R^2 factor and halve per level.
* ``plan_aggressive`` -- an experimental variant of the b2 plan for composite
  potentials U = U1 + lam*|x|^2/2 with bounded grad U1: the base step is
  enlarged from 1/2 up to the drift's stability limit, cutting the predicted
  complexity by the conditioning factor (l_u/alpha_u)^2.

``plan_general`` exposes the underlying generic rule driven by abstract
convergence/confluence constants, for models outside the built-in setting.

Burn-in is set as tau = tau1 * |log eps| + tau2.  Plans store the *raw* tau;
when it exceeds T_R / 2 the plan is marked ``tau_clamped`` (and infeasible in
the strict sense), and consumers use ``tau_effective = min(tau, T_R / 2)``,
which the estimator applies with a recorded warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .model import LangevinModel
from .sde import n_gamma

__all__ = [
    "GeneralAssumptionConstants",
    "TuningPlan",
    "complexity_bound",
    "plan_aggressive",
    "plan_b1",
    "plan_b2",
    "plan_general",
]

_AUTO_MODE_RTOL = 1e-9


@dataclass
class TuningPlan:
    """Complete parameter set for one estimator run.

    A plan is fixed by its base step ``gamma0``, its ``horizons`` and its
    burn-in ``tau``; ``regime``, ``r0``, ``big_t``, ``dim`` and
    ``experimental`` record how it was tuned.  These eight are the only
    inputs.  Derived from them, and read-only: the level count
    ``R = len(horizons) - 1``, the steps ``gamma[r] = gamma0 * 2**-r``, the
    step count ``predicted_complexity``, the flags ``tau_clamped`` /
    ``feasible``, and ``tau_effective``.

    Attributes:
        regime: One of ``"b1"``, ``"b2"``, ``"general"``.
        gamma0: Base step of level 0, finite and > 0.
        horizons: Horizons T_r per level, finite, strictly decreasing and
            positive, at least one.
        tau: Raw burn-in tau1 * |log eps| + tau2, finite and >= 0 (not
            clamped; see ``tau_effective``).
        r0: Initial-distance scale entering the level count R, finite.
        big_t: Base horizon scale (T_0 = big_t * eps^-2, times R^2 in the
            b1 regime), finite.
        dim: State dimension the plan was built for (0: any).
        experimental: True for the aggressive-step variant.
    """

    regime: str
    gamma0: float
    horizons: List[float]
    tau: float
    r0: float
    big_t: float
    dim: int
    experimental: bool = False

    def __post_init__(self):
        if self.regime not in ("b1", "b2", "general"):
            raise ValueError(f"unknown regime {self.regime!r}")
        self.horizons = [float(t) for t in self.horizons]
        if not self.horizons:
            raise ValueError("horizons must hold at least one level")
        if not 0.0 < self.gamma0 < math.inf:
            raise ValueError(
                f"gamma0 must be finite and positive, got {self.gamma0}")
        for r, t in enumerate(self.horizons):
            if not math.isfinite(t):
                raise ValueError(f"horizons must be finite, got T_{r}={t}")
        for r in range(len(self.horizons) - 1):
            if not self.horizons[r + 1] < self.horizons[r]:
                raise ValueError("horizons must be strictly decreasing")
        if not self.horizons[-1] > 0:
            raise ValueError("horizons must be positive")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        for name in ("r0", "big_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")

    @property
    def R(self) -> int:
        """Number of correcting levels (levels 0..R run)."""
        return len(self.horizons) - 1

    @property
    def gamma(self) -> List[float]:
        """Step per level, ``gamma0 * 2**-r``, length R + 1."""
        return [self.gamma0 * 2.0 ** -r for r in range(len(self.horizons))]

    @property
    def predicted_complexity(self) -> int:
        """Total discrete step count: n_gamma0(T0) for the base level plus
        n_gamma_r(T_r) + n_gamma_{r-1}(T_r) (fine plus coarse chain) for
        each correcting level."""
        gamma, horizons = self.gamma, self.horizons
        total = n_gamma(horizons[0], gamma[0])
        for r in range(1, len(gamma)):
            total += (n_gamma(horizons[r], gamma[r])
                      + n_gamma(horizons[r], gamma[r - 1]))
        return total

    @property
    def tau_clamped(self) -> bool:
        """True when the raw tau exceeds T_R / 2; consumers then use
        ``tau_effective``."""
        return self.tau > self.horizons[-1] / 2.0

    @property
    def feasible(self) -> bool:
        """True when the raw tau fits the last level (tau <= T_R / 2)."""
        return not self.tau_clamped

    @property
    def tau_effective(self) -> float:
        """Burn-in actually used by the estimator: min(tau, T_R / 2)."""
        return min(self.tau, self.horizons[-1] / 2.0)

    def to_dict(self) -> dict:
        return {
            "regime": self.regime,
            "R": self.R,
            "gamma": [float(g) for g in self.gamma],
            "horizons": [float(t) for t in self.horizons],
            "tau": float(self.tau),
            "tau_effective": float(self.tau_effective),
            "r0": float(self.r0),
            "big_t": float(self.big_t),
            "predicted_complexity": int(self.predicted_complexity),
            "feasible": bool(self.feasible),
            "tau_clamped": bool(self.tau_clamped),
            "dim": int(self.dim),
            "experimental": bool(self.experimental),
        }


@dataclass
class GeneralAssumptionConstants:
    """Abstract constants driving the generic tuning rule.

    These quantify, for a given model: the exponential ergodicity rate
    (``alpha``), the L2-confluence order of coupled fine/coarse schemes
    (``b_exponent``, written b below, with gap bounded by c2 * gamma^(b/2)),
    the start-distance decay order ``delta`` and scale ``c3``, the asymptotic
    occupation-variance scale ``c4``, and the largest admissible base step
    ``eta0``.

    Built-in regimes correspond to (b=2, delta=1) and (b=1, delta=1/2).
    Every constant must be finite.
    """

    alpha: float
    b_exponent: float
    delta: float
    c2: float
    c3: float
    c4: float
    eta0: float

    def __post_init__(self):
        for name in ("alpha", "b_exponent", "delta", "c2", "c3", "c4",
                     "eta0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not 1.0 <= self.b_exponent <= 2.0:
            raise ValueError(
                f"b_exponent must lie in [1, 2], got {self.b_exponent}")
        if not 0.5 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [1/2, 1], got {self.delta}")
        if self.b_exponent > 1.0 and not self.delta > (1.0 + self.b_exponent) / 4.0:
            raise ValueError(
                f"delta must exceed (1 + b)/4 when b > 1; "
                f"got delta={self.delta}, b={self.b_exponent}")
        for name in ("c2", "c3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.c4 <= 0:
            raise ValueError(f"c4 must be positive, got {self.c4}")
        if self.eta0 <= 0:
            raise ValueError(f"eta0 must be positive, got {self.eta0}")


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")


def _check_auto_mode(model: LangevinModel) -> None:
    ratio = model.alpha_eff / model.l_eff ** 2
    if abs(ratio - 1.0) > _AUTO_MODE_RTOL:
        raise ValueError(
            "plan requires a model built with sigma0='auto' "
            f"(alpha_eff / l_eff^2 = 1); got ratio {ratio}")


def _horizons(big_t: float, eps: float, r0: float, delta: float,
              b: float) -> List[float]:
    """Horizons T_0 > ... > T_R of a plan of confluence order b, with
    R = max(1, ceil((1/delta) log2(r0 / eps))):

        T_r = big_t eps^-2 2^(-(1+b) r / 2)    (b > 1)
              big_t eps^-2 R^2 2^-r            (b = 1)
    """
    # round before ceiling so exact powers of two are not bumped a level
    big_r = max(1, int(math.ceil(round(
        (1.0 / delta) * math.log2(r0 / eps), 12))))
    try:
        scale = big_t * eps ** -2.0
    except OverflowError:
        scale = math.inf
    if b > 1.0:
        horizons = [scale * 2.0 ** (-(1.0 + b) * r / 2.0)
                    for r in range(big_r + 1)]
    else:
        horizons = [scale * big_r ** 2 * 2.0 ** -r for r in range(big_r + 1)]
    if not math.isfinite(horizons[0]):
        raise ValueError(f"eps={eps} is too small: the horizon T_0 overflows")
    return horizons


def plan_b2(model: LangevinModel, eps: float) -> TuningPlan:
    """Tuned plan for the second-order-confluence regime (C^3 potentials).

    With the auto noise scale (sigma0^2 = alpha_u / l_u^2) and base step
    gamma0 = 1/2:

        r0  = sqrt(d / alpha_u)
        R   = ceil(log2(r0 / eps))
        T_r = (d l_u^2 / alpha_u^3) * eps^-2 * 2^(-3r/2)
        tau = (l_u/alpha_u)^2 |log eps| + (l_u^2 / (2 alpha_u^2)) log(d/alpha_u)

    On the OU flagship (d=10, eps=0.1) this gives T_0 = 1000 and 7,960
    steps, the paper's 7,958 to within its rounding.

    Args:
        model: LangevinModel built with ``sigma0="auto"``.
        eps: Target accuracy in (0, 1).

    Returns:
        TuningPlan with regime ``"b2"``.
    """
    _check_eps(eps)
    _check_auto_mode(model)
    d = model.dim
    alpha = model.potential.alpha_u
    l_u = model.potential.l_u
    r0 = math.sqrt(d / alpha)
    big_t = d * l_u ** 2 / alpha ** 3
    horizons = _horizons(big_t, eps, r0, 1.0, 2.0)
    ratio_sq = (l_u / alpha) ** 2
    tau = ratio_sq * abs(math.log(eps)) + ratio_sq / 2.0 * math.log(d / alpha)
    return TuningPlan("b2", 0.5, horizons, tau, r0, big_t, d)


def plan_b1(model: LangevinModel, eps: float) -> TuningPlan:
    """Tuned plan for the first-order-confluence regime (C^2 potentials).

    Same shape as ``plan_b2`` but with twice the level count and horizons
    carrying an R^2 factor:

        r0  = max(1, sqrt(d / (2 alpha_u)))
        R   = ceil(2 log2(r0 / eps))
        T_r = (upsilon1_sq / alpha_eff) * eps^-2 * R^2 * 2^-r,
              upsilon1_sq = d / alpha_u
        tau = (2 / alpha_eff) |log eps| + (1 / alpha_eff) log(upsilon1)
    """
    _check_eps(eps)
    _check_auto_mode(model)
    d = model.dim
    alpha = model.potential.alpha_u
    r0 = max(1.0, math.sqrt(d / (2.0 * alpha)))
    upsilon1_sq = d / alpha
    big_t = upsilon1_sq / model.alpha_eff
    horizons = _horizons(big_t, eps, r0, 0.5, 1.0)
    tau = (2.0 / model.alpha_eff) * abs(math.log(eps)) \
        + 0.5 / model.alpha_eff * math.log(upsilon1_sq)
    return TuningPlan("b1", 0.5, horizons, tau, r0, big_t, d)


def plan_general(constants: GeneralAssumptionConstants, gamma0: float,
                 eps: float) -> TuningPlan:
    """Generic tuning rule from abstract convergence/confluence constants.

    Writing b = b_exponent, delta, and d_b = (b-1)^-2 for b > 1 (else 1):

        r0  = max(1, c3 * gamma0^delta)
        T   = (d_b / alpha) * max(c2^2 gamma0^b log(1/gamma0), c4^2)
        R   = ceil((1/delta) log2(r0 / eps))
        T_r = T eps^-2 2^(-(1+b) r / 2)          (b > 1)
              T eps^-2 R^2 2^-r                  (b = 1)
        tau = tau1 |log eps| + tau2, with
        tau1 = (1 + b - 2 delta) / (alpha delta)
        tau2 = max(0, (1/alpha) log(r0^((1+b)/(2 delta)) / (d_b c4)))

    The scale equalities take the rule's lower bounds at equality (minimal
    admissible cost).

    Args:
        constants: GeneralAssumptionConstants (validated on construction).
        gamma0: Base step, in (0, eta0].
        eps: Target accuracy in (0, 1).
    """
    _check_eps(eps)
    if not 0.0 < gamma0 <= constants.eta0:
        raise ValueError(
            f"gamma0 must lie in (0, eta0={constants.eta0}], got {gamma0}")
    alpha = constants.alpha
    b = constants.b_exponent
    delta = constants.delta
    d_b = 1.0 if b == 1.0 else (b - 1.0) ** -2
    r0 = max(1.0, constants.c3 * gamma0 ** delta)
    big_t = (d_b / alpha) * max(
        constants.c2 ** 2 * gamma0 ** b * math.log(1.0 / gamma0),
        constants.c4 ** 2,
    )
    if big_t <= 0:
        raise ValueError(
            "horizon scale is nonpositive; check c2/c4 and gamma0 < 1")
    horizons = _horizons(big_t, eps, r0, delta, b)
    tau1 = (1.0 + b - 2.0 * delta) / (alpha * delta)
    tau2 = max(0.0, (1.0 / alpha) * math.log(
        r0 ** ((1.0 + b) / (2.0 * delta)) / (d_b * constants.c4)))
    tau = tau1 * abs(math.log(eps)) + tau2
    return TuningPlan("general", gamma0, horizons, tau, r0, big_t, dim=0)


def plan_aggressive(model: LangevinModel, eps: float) -> TuningPlan:
    """Experimental enlarged-base-step variant of the b2 plan.

    For composite potentials U = U1 + lam*|x|^2/2 with bounded grad U1
    (``potential.grad_u1_sup``), drift stability allows a base step far above
    1/2:

        gamma0 = min( 1 / (4 alpha_eff),  2 d / (sigma0^2 * sup|grad U1|^2) )

    Horizons are rescaled by (alpha_u/l_u)^2 * (gamma0 / (1/2)) so the
    predicted complexity drops by exactly the conditioning factor
    (l_u/alpha_u)^2 relative to ``plan_b2``, landing at O(alpha_u^-1 d eps^-2)
    total steps.  The variance/bias guarantees of the b2 rule are heuristic at
    this step size, hence ``experimental=True``.

    Args:
        model: LangevinModel built with ``sigma0="auto"`` whose potential
            exposes ``grad_u1_sup``.
        eps: Target accuracy in (0, 1).

    Raises:
        ValueError: If the potential does not declare ``grad_u1_sup``.
    """
    sup = model.potential.grad_u1_sup
    if sup is None:
        raise ValueError(
            "plan_aggressive requires potential.grad_u1_sup (a sup-norm bound "
            "on the gradient of the non-quadratic part)")
    base = plan_b2(model, eps)
    branch_stab = 1.0 / (4.0 * model.alpha_eff)
    if sup == 0.0:
        gamma0 = branch_stab
    else:
        branch_noise = 2.0 * model.dim / (model.sigma0 ** 2 * sup ** 2)
        gamma0 = min(branch_stab, branch_noise)
    alpha = model.potential.alpha_u
    l_u = model.potential.l_u
    scale = (alpha / l_u) ** 2 * (gamma0 / 0.5)
    horizons = [t * scale for t in base.horizons]
    return TuningPlan("b2", gamma0, horizons, base.tau, base.r0,
                      base.big_t * scale, model.dim, experimental=True)


def complexity_bound(plan: TuningPlan) -> float:
    """Closed-form upper bound on the plan's total step count.

    (T0/gamma0) * (1 + (3/2) sum_{r>=1} 2^((1-b) r / 2)), with the sum taken
    to infinity in the geometric b2 case (value 1/(sqrt(2)-1)) and truncated
    at R in the b1 case (value R).  General-regime plans fall back to the
    continuous per-level costs implied by their stored horizons.
    """
    base = plan.horizons[0] / plan.gamma[0]
    if plan.regime == "b2":
        return base * (1.0 + 1.5 / (math.sqrt(2.0) - 1.0))
    if plan.regime == "b1":
        return base * (1.0 + 1.5 * plan.R)
    extra = sum(
        plan.horizons[r] * (1.0 / plan.gamma[r] + 1.0 / plan.gamma[r - 1])
        for r in range(1, plan.R + 1)
    )
    return base + extra
