"""Gradient-descent warm start producing a well-placed initial point.

The tuned estimator plans assume the starting point satisfies
|grad U(x0)|^2 <= alpha_u * d (so the initial transient is of the generic
order the burn-in tau kills).  This module runs plain gradient descent at
step 1/l_u until that criterion holds.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .model import Potential

__all__ = ["WarmStartResult", "warm_start"]

_MAX_ITERS = 10_000


class WarmStartResult(NamedTuple):
    """Outcome of the descent: final point, iterations used, |grad U|^2."""

    x0: np.ndarray
    iters_used: int
    grad_norm_sq: float


def warm_start(potential: Potential, x_init: np.ndarray) -> WarmStartResult:
    """Run x <- x - grad U(x) / l_u until |grad U(x)|^2 <= alpha_u * d.

    The step 1/l_u lies below 2/L for both built-in potentials, L their
    true smoothness constant, so no iteration increases U; on the quadratic
    potential (l_u = 1) one iteration reaches the minimum.  The budget is
    10,000 iterations.  The stopping threshold is checked before the first
    update, so a point already in the target region is returned unchanged
    with iters_used = 0.

    Args:
        potential: Potential with valid constants.
        x_init: Starting point, shape (dim,), finite.

    Returns:
        WarmStartResult(x0, iters_used, grad_norm_sq).  Success means
        grad_norm_sq <= alpha_u * dim; on budget exhaustion a warning is
        emitted and the last iterate is returned (the caller may proceed,
        losing the tuned constants' guarantees).

    Raises:
        ValueError: when grad U is not finite at an iterate, naming the
            iteration.  A finite gradient whose |grad U|^2 overflows still
            descends.
    """
    potential._check_constants()
    x = np.array(x_init, dtype=float)
    if x.shape != (potential.dim,):
        raise ValueError(
            f"x_init must have shape ({potential.dim},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x_init must be finite")

    step = 1.0 / potential.l_u
    threshold = potential.alpha_u * potential.dim
    iters = 0
    g, gsq = _grad(potential, x, iters)
    while gsq > threshold and iters < _MAX_ITERS:
        x = x - step * g
        iters += 1
        g, gsq = _grad(potential, x, iters)
    if gsq > threshold:
        warnings.warn(
            f"warm start did not reach |grad U|^2 <= {threshold} within "
            f"{_MAX_ITERS} iterations (final value {gsq}); proceeding anyway",
            RuntimeWarning,
        )
    return WarmStartResult(x0=x, iters_used=iters, grad_norm_sq=gsq)


def _grad(potential: Potential, x: np.ndarray, iters: int):
    """grad U(x) and |grad U(x)|^2 at iteration ``iters``; the square may
    overflow to inf, quietly, but the gradient must be finite."""
    g = potential.grad(x)
    if not np.isfinite(g).all():
        raise ValueError(
            f"grad U is not finite at warm-start iteration {iters}")
    with np.errstate(over="ignore"):
        return g, float(np.dot(g, g))
