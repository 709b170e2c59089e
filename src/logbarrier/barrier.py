"""Log-barrier evaluation.

For a problem with constraints g_j(x) >= 0 and weight mu > 0 the barrier is

    phi(x) = f(x) - mu * sum_j ln(g_j(x))

defined on the strict interior {x : all g_j(x) > 0} and +inf elsewhere.
The gradient identity grad phi = grad f - sum_j (mu / g_j) grad g_j makes
mu / g_j(x) the natural multiplier estimate attached to each evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .problem import Problem


class InfeasiblePointError(Exception):
    """Raised when a barrier Hessian is requested outside the strict interior."""


@dataclass(frozen=True)
class BarrierEvaluation:
    mu: float
    value: float  # +inf outside the strict interior
    constraint_values: np.ndarray
    gradient: np.ndarray | None  # None outside the strict interior
    multipliers: np.ndarray | None  # mu / g_j, None outside the strict interior

    @property
    def interior(self) -> bool:
        return self.gradient is not None


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    return mu


def barrier_value(p: Problem, x, mu: float) -> float:
    """Barrier value only; +inf outside the strict interior.

    Cheap path for line searches: no derivatives, and ln is never reached
    for a nonpositive constraint value.  A point where f or some g_j is
    undefined (EvalError) lies outside the barrier's domain too.
    """
    mu = _check_mu(mu)
    try:
        fjet, *gjets = expr.jets((p.objective, *p.constraints), x, 0)
    except expr.EvalError:
        return math.inf
    total = fjet.value
    for g in gjets:
        if g.value <= 0.0:
            return math.inf
        total -= mu * math.log(g.value)
    return total


def barrier_eval(p: Problem, x, mu: float) -> BarrierEvaluation:
    """Value, gradient and multiplier estimates at one point.

    One order-1 pass per expression.  Outside the strict interior the value
    is +inf and gradient and multipliers are None; no logarithm of a
    nonpositive value is ever taken.
    """
    mu = _check_mu(mu)
    gjets = expr.jets(p.constraints, x, 1)
    gvals = np.array([j.value for j in gjets])
    if np.any(gvals <= 0.0):
        return BarrierEvaluation(mu, math.inf, gvals, None, None)

    fjet = expr.evaluate_dual(p.objective, x, 1)
    grads = np.array([j.grad for j in gjets])
    multipliers = mu / gvals
    value = fjet.value - mu * float(np.sum(np.log(gvals)))
    gradient = fjet.grad - grads.T @ multipliers
    return BarrierEvaluation(mu, value, gvals, gradient, multipliers)


def barrier_hessian(p: Problem, x, mu: float) -> np.ndarray:
    """Dense barrier Hessian at a strictly interior point, or at each of a batch.

    x is one point, giving shape (n, n), or an (N, n) array, giving shape
    (N, n, n).  Each constraint contributes (mu / g_j^2) grad g_j grad g_j^T
    - (mu / g_j) hess g_j on top of the objective Hessian.  Raises
    InfeasiblePointError off the strict interior.
    """
    mu = _check_mu(mu)
    gjets = expr.jets(p.constraints, x, 2)
    gvals = np.array([j.value for j in gjets])
    if np.any(gvals <= 0.0):
        raise InfeasiblePointError(
            f"barrier Hessian requested outside the strict interior (min g = {gvals.min()})"
        )
    h = expr.evaluate_dual(p.objective, x).hess
    # one factor per constraint, shaped to scale a point's or a batch's matrices
    outer_w = (mu / gvals**2)[..., None, None]
    hess_w = (mu / gvals)[..., None, None]
    for j, a, b in zip(gjets, outer_w, hess_w):
        h += a * (j.grad[..., :, None] * j.grad[..., None, :]) - b * j.hess
    return h
