"""Potentials and Langevin models for Gibbs-distribution sampling.

A Gibbs distribution pi(dx) proportional to exp(-U(x)) dx is targeted through
the overdamped Langevin diffusion

    dX_t = -sigma0^2 grad U(X_t) dt + sqrt(2) sigma0 dB_t,

which admits pi as its unique invariant law for any sigma0 > 0.  This module
defines the potential interface (value, gradient, curvature constants), the
two built-in benchmark potentials (isotropic quadratic, and a quadratic
perturbed by a Bayesian logistic-regression likelihood), and the
``LangevinModel`` wrapper holding the induced drift and noise scale.  Points
move by ``LangevinModel.advance``, the in-place map x <- x + step * b(x),
which is ``Potential.descend`` at h = step * sigma0^2.

The two built-in potentials map rows in C (``_kernel``): their ``descend``
calls the C row map, and for a ``LangevinModel`` of theirs the Euler engine
runs its tick loop in C through the same row map (``_row_map``), without
calling ``advance``; so ``euler_step`` and the engine still move points
alike, bit for bit.  The library is compiled with the system ``cc`` at
first use (never at import) and cached per machine; without a compiler, or
when the build fails, both keep a numpy path, which gives the same bits for
the quadratic and agrees to rounding (~1e-15 relative) for the logistic
potential.

All value/gradient callables accept a single point of shape ``(d,)`` or a
batch of points of shape ``(..., d)`` and act along the last axis.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import _kernel

__all__ = [
    "Potential",
    "QuadraticPotential",
    "LogisticPerturbedPotential",
    "LangevinModel",
    "make_langevin_model",
    "logistic_covariate",
    "ou_reference_value",
]


def _integer(value, name: str) -> int:
    """``value`` as an int.  An int or a numpy integer passes unchanged;
    anything else, a whole float included, is a one-line ValueError that
    names ``name``, never a truncation."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") \
            from None


class Potential:
    """Strongly convex potential U with known curvature constants.

    Subclasses implement :meth:`eval` and :meth:`grad` and must set the
    attributes below.  Built-in potentials hard-code their constants; user
    potentials must supply constants explicitly (no automatic estimation is
    attempted).

    The Euler engine moves points only through :meth:`descend`, the
    in-place gradient step x <- x - h grad U(x).  Its default calls
    :meth:`grad`, so defining ``grad`` is enough; a subclass may override
    ``descend`` for speed, with two rules: it must act row by row along the
    last axis (no BLAS ``x @ c``, whose grouping can depend on the batch
    width), so that a batch moves like its rows one by one, and it must
    accept a single ``(d,)`` point as well as ``(..., d)`` rows.

    Attributes:
        dim: Dimension d of the state space.
        alpha_u: Strong-convexity constant (lower bound on the Hessian
            spectrum), stored already clipped at 1: ``alpha_u = min(lam_min, 1)``.
            Callers never re-clip.
        l_u: Lipschitz constant of ``grad`` (finite upper bound on the
            Hessian spectrum).
        grad_u1_sup: Sup-norm bound on the gradient of the non-quadratic part
            when U decomposes as ``U(x) = U1(x) + lam*|x|^2/2``, or None when
            no such decomposition is declared.  Consumed by the
            aggressive-step tuning rule.
    """

    dim: int
    alpha_u: float
    l_u: float
    grad_u1_sup: float | None = None

    def eval(self, x: np.ndarray) -> np.ndarray:
        """Return U(x); shape ``(..., d)`` maps to shape ``(...,)``."""
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Return grad U(x), same shape as ``x``."""
        raise NotImplementedError

    def descend(self, x: np.ndarray, h: float) -> None:
        """Take the gradient step x <- x - h grad U(x) in place.

        ``x`` is a writable float array of shape ``(d,)`` or ``(..., d)``,
        and ``h`` a float step.
        """
        x -= h * self.grad(x)

    def _check_constants(self) -> None:
        if not (0.0 < self.alpha_u <= self.l_u < math.inf):
            raise ValueError(
                f"potential constants must satisfy 0 < alpha_u <= l_u < inf, "
                f"got alpha_u={self.alpha_u}, l_u={self.l_u}"
            )


class QuadraticPotential(Potential):
    """Isotropic quadratic potential U(x) = |x|^2 / 2.

    The induced diffusion (with sigma0 = 1) is the Ornstein-Uhlenbeck process
    dX_t = -X_t dt + sqrt(2) dB_t, whose invariant law is the standard
    d-dimensional Gaussian.  Both curvature constants equal 1, and the
    potential is trivially of the composite form U1 + |x|^2/2 with U1 = 0.
    """

    def __init__(self, dim: int):
        dim = _integer(dim, "dim")
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        self.dim = dim
        self.alpha_u = 1.0
        self.l_u = 1.0
        self.grad_u1_sup = 0.0
        self._check_constants()

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return 0.5 * np.sum(x * x, axis=-1)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).copy()

    def descend(self, x: np.ndarray, h: float) -> None:
        if not _kernel.descend(_kernel.QUADRATIC, x, h):
            x *= 1.0 - h


class LogisticPerturbedPotential(Potential):
    """Bayesian logistic-regression posterior potential.

    U(beta) = log(1 + exp(x . beta)) + lam * |beta|^2 / 2 for a fixed
    covariate vector x and ridge weight lam > 0.  The log-likelihood part has
    Hessian ``x x^T / ((1+e^u)(1+e^{-u}))`` with u = x . beta, and the
    envelope (1+e^u)(1+e^{-u}) = 2 + e^u + e^{-u} >= 4 (equality at u = 0),
    so the Hessian spectrum lies in ``[lam, L]`` with L = lam + |x|^2/4
    (2.75 for the shipped models).  The constants are

        alpha_u = min(lam, 1),    l_u = lam + |x|^2 / 5 < L.

    l_u (2.25 for the shipped models) is kept as the plans' nominal scale:
    c07's cost ratio 81 = (2.25/0.25)^2 and c06's frozen d=10 run rest on
    it.  A true bound matters in one place: the probes' step check
    gamma <= alpha_eff/(2 l_eff^2) (0.5 with l_u, 0.335 with L, at the
    "auto" scale).  ``warm_start``'s fixed step 1/l_u (0.444) lies below
    2/L = 0.727, where descent is guaranteed.

    The non-quadratic part has ``|grad U1| <= |x|`` everywhere, recorded in
    ``grad_u1_sup`` for the aggressive-step tuning rule.

    ``descend`` takes the sigmoid as (1 + tanh(t/2))/2, which saturates to
    0 or 1 without overflow, in C where the kernel is built and else in
    fewer numpy calls than ``grad``.
    """

    def __init__(self, dim: int, lam: float, covariate: np.ndarray):
        dim = _integer(dim, "dim")
        if dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim}")
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lam must be finite and positive, got {lam}")
        covariate = np.asarray(covariate, dtype=float)
        if covariate.shape != (dim,):
            raise ValueError(
                f"covariate must have shape ({dim},), got {covariate.shape}"
            )
        if not np.isfinite(covariate).all():
            raise ValueError("covariate must be finite")
        self.dim = dim
        self.lam = float(lam)
        self.covariate = covariate
        norm_sq = float(np.dot(covariate, covariate))
        self.alpha_u = min(self.lam, 1.0)
        self.l_u = self.lam + norm_sq / 5.0
        self.grad_u1_sup = math.sqrt(norm_sq)
        self._check_constants()

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = np.sum(x * self.covariate, axis=-1)
        return np.logaddexp(0.0, t) + 0.5 * self.lam * np.sum(x * x, axis=-1)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        t = np.sum(x * self.covariate, axis=-1)
        return _sigmoid(t)[..., None] * self.covariate + self.lam * x

    def descend(self, x: np.ndarray, h: float) -> None:
        c = self.covariate
        if _kernel.descend(_kernel.LOGISTIC, x, h, c, self.lam):
            return
        # keepdims: t stays an array, a valid out= target, for a (d,) point
        t = np.add.reduce(x * c, axis=-1, keepdims=True)
        t *= 0.5
        np.tanh(t, out=t)
        t += 1.0
        t *= 0.5 * h  # h * sigmoid(c . x)
        x *= 1.0 - h * self.lam
        x -= t * c


def _sigmoid(t: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid(t) = 1/(1+e^{-t}), elementwise."""
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class LangevinModel:
    """Langevin diffusion model induced by a potential and a scale sigma0.

    The simulated dynamics are dX = -sigma0^2 grad U(X) dt + sqrt(2) sigma0 dB,
    i.e. drift ``b(x) = -sigma0^2 grad U(x)`` and additive noise with scale
    ``noise_scale = sqrt(2) sigma0``.  The effective curvature constants of
    the drift are ``alpha_eff = sigma0^2 alpha_u`` and ``l_eff = sigma0^2 l_u``.
    The potential and sigma0 are the only inputs; the rest are read-only
    properties derived from them.

    Attributes:
        potential: Potential with valid constants (0 < alpha_u <= l_u < inf).
        sigma0: Diffusion coefficient, finite and > 0.

    Immutable after construction; safe to share across concurrent workers.
    """

    potential: Potential
    sigma0: float

    def __post_init__(self):
        self.potential._check_constants()
        if not 0.0 < self.sigma0 < math.inf:
            raise ValueError(
                f"sigma0 must be finite and positive, got {self.sigma0}")

    @property
    def dim(self) -> int:
        return self.potential.dim

    @property
    def noise_scale(self) -> float:
        return math.sqrt(2.0) * self.sigma0

    @property
    def alpha_eff(self) -> float:
        s0 = self.sigma0
        return (s0 * s0) * self.potential.alpha_u

    @property
    def l_eff(self) -> float:
        s0 = self.sigma0
        return (s0 * s0) * self.potential.l_u

    # nothing in the package calls drift (points move by advance, or by the
    # C loop for the built-in potentials); the benchmark tracer wraps it
    def drift(self, x: np.ndarray) -> np.ndarray:
        """Drift b(x) = -sigma0^2 grad U(x), acting along the last axis."""
        return (-self.sigma0 ** 2) * self.potential.grad(x)

    def advance(self, x: np.ndarray, step: float) -> None:
        """The noise-free Euler map x <- x + step * b(x), in place.

        This is ``potential.descend(x, step * sigma0^2)``; the Euler engine
        and ``euler_step`` move points only through it.  ``step`` is a
        float.
        """
        self.potential.descend(x, step * self.sigma0 ** 2)


def _row_map(model):
    """The C row map that ``model.advance`` is, as ``_kernel.ticks`` takes
    it: ``(kind, covariate, lam, sigma0^2)``.  None without the C library,
    and for any model but a ``LangevinModel`` whose ``advance`` is not
    overridden and whose potential's ``descend`` is exactly the quadratic
    or the logistic one (a subclass that keeps it counts)."""
    if (not isinstance(model, LangevinModel)
            or type(model).advance is not LangevinModel.advance
            or _kernel.lib() is None):
        return None
    pot, s2 = model.potential, model.sigma0 ** 2
    descend = getattr(pot.descend, "__func__", None)
    if descend is QuadraticPotential.descend:
        return _kernel.QUADRATIC, None, 0.0, s2
    if descend is LogisticPerturbedPotential.descend:
        c = np.ascontiguousarray(pot.covariate, dtype=float)
        if c.shape == (model.dim,):
            return _kernel.LOGISTIC, c, pot.lam, s2
    return None


def make_langevin_model(potential: Potential,
                        sigma0: float | str = "auto") -> LangevinModel:
    """Build a LangevinModel, choosing sigma0 automatically or explicitly.

    With ``sigma0="auto"``, sigma0 = sqrt(alpha_u) / l_u, which normalizes
    the effective constants so that alpha_eff / l_eff^2 = 1; this is the
    scaling under which the base step gamma0 = 1/2 is admissible for the
    tuned plans.  A number is used as sigma0 itself.

    Args:
        potential: Potential with valid constants (0 < alpha_u <= l_u < inf).
        sigma0: ``"auto"`` or a finite positive scale.

    Returns:
        The immutable LangevinModel.

    Raises:
        ValueError: On invalid constants, a string other than ``"auto"``, or
            a sigma0 that is not finite and positive.
    """
    if isinstance(sigma0, str):
        if sigma0 != "auto":
            raise ValueError(
                f"sigma0 must be 'auto' or a positive number, got {sigma0!r}")
        potential._check_constants()
        sigma0 = math.sqrt(potential.alpha_u) / potential.l_u
    return LangevinModel(potential, float(sigma0))


def logistic_covariate(d: int, a: float, rng_stream) -> np.ndarray:
    """Draw the normalized covariate x = sqrt(5a) Z / |Z|, Z ~ N(0, I_d).

    The renormalization makes |x|^2 = 5a exactly, so the logistic potential's
    nominal smoothness constant is l_u = lam + a regardless of dimension
    (its Hessian's supremum is lam + 5a/4; see LogisticPerturbedPotential).

    Args:
        d: Dimension (>= 1).
        a: Finite positive scale parameter; the covariate gets squared norm 5a.
        rng_stream: Any object with a ``standard_normal(shape)`` method
            (e.g. ``mlangevin.sde.NoiseStream`` or ``numpy.random.Generator``).

    Returns:
        Covariate vector of shape (d,).
    """
    d = _integer(d, "d")
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if not 0.0 < a < math.inf:
        raise ValueError(f"a must be finite and positive, got {a}")
    z = np.asarray(rng_stream.standard_normal(d), dtype=float)
    norm = float(np.linalg.norm(z))
    while norm == 0.0:  # probability-zero degenerate draw: retry
        z = np.asarray(rng_stream.standard_normal(d), dtype=float)
        norm = float(np.linalg.norm(z))
    return math.sqrt(5.0 * a) / norm * z


def ou_reference_value(d: int) -> float:
    """Exact value of E|Z| for Z ~ N(0, I_d) with d = 2k even.

    Uses the closed form E|Z| = (2k)! sqrt(2 pi) / (2^{2k} k! (k-1)!),
    evaluated in log-gamma arithmetic to avoid overflow for large d.  This is
    the reference value of the norm observable under the standard Gaussian,
    the invariant law of the Ornstein-Uhlenbeck benchmark.

    Args:
        d: Even positive dimension.

    Returns:
        E|Z| as a float.

    Raises:
        ValueError: If d is odd or not positive (the closed form used here
            only covers even dimensions), or not an integer.
    """
    d = _integer(d, "d")
    if d < 2 or d % 2 != 0:
        raise ValueError(f"d must be an even positive integer, got {d}")
    k = d // 2
    log_val = (
        math.lgamma(2 * k + 1)
        + 0.5 * math.log(2.0 * math.pi)
        - 2 * k * math.log(2.0)
        - math.lgamma(k + 1)
        - math.lgamma(k)
    )
    return math.exp(log_val)
