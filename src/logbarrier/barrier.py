"""Log-barrier evaluation.

For a problem with constraints g_j(x) >= 0 and weight mu > 0 the barrier is

    phi(x) = f(x) - mu * sum_j ln(g_j(x))

defined on the strict interior {x : all g_j(x) > 0} and +inf elsewhere.
The gradient identity grad phi = grad f - sum_j (mu / g_j) grad g_j makes
mu / g_j(x) the natural multiplier estimate attached to each evaluation.
Each function here reads f and every g_j in one stacked jet.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import expr
from .problem import Problem


class InfeasiblePointError(Exception):
    """Raised when a barrier Hessian is requested outside the strict interior."""


class BarrierEvaluation(NamedTuple):
    value: float  # +inf outside the strict interior
    constraint_values: np.ndarray
    gradient: np.ndarray | None  # None outside the strict interior
    multipliers: np.ndarray | None  # mu / g_j, None outside the strict interior
    objective: float | None  # f(x), None outside the strict interior

    @property
    def interior(self) -> bool:
        return self.gradient is not None


def _check_mu(mu: float) -> float:
    mu = float(mu)
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    return mu


def _phi(f: float, gvals: np.ndarray, mu: float) -> float:
    return f - mu * float(np.sum(np.log(gvals)))


def barrier_value(p: Problem, x, mu: float) -> float:
    """Barrier value at one point only; +inf outside the strict interior.

    Cheap path for line searches: no derivatives, and ln is never reached
    for a nonpositive constraint value.  A point where f or some g_j is
    undefined (EvalError) lies outside the barrier's domain too.
    """
    mu = _check_mu(mu)
    if np.ndim(x) != 1:
        raise ValueError("barrier_value takes one point")
    try:
        values = expr.jets((p.objective, *p.constraints), x, 0).value
    except expr.EvalError:
        return math.inf
    return math.inf if np.any(values[1:] <= 0.0) else _phi(values[0], values[1:], mu)


def barrier_eval(p: Problem, x, mu: float) -> BarrierEvaluation:
    """Value, gradient, multiplier estimates and objective value at one point.

    Outside the strict interior the value is +inf and gradient, multipliers
    and objective are None; no logarithm of a nonpositive value is ever taken.
    """
    mu = _check_mu(mu)
    if np.ndim(x) != 1:
        raise ValueError("barrier_eval takes one point")
    jet = expr.jets((p.objective, *p.constraints), x, 1)
    f, g = jet.value[0], jet.value[1:]
    if np.any(g <= 0.0):
        return BarrierEvaluation(math.inf, g, None, None, None)

    multipliers = mu / g
    gradient = jet.grad[0] - jet.grad[1:].T @ multipliers
    return BarrierEvaluation(_phi(f, g, mu), g, gradient, multipliers, f)


def barrier_hessian(p: Problem, x, mu: float) -> np.ndarray:
    """Dense barrier Hessian at a strictly interior point, or at each of a batch.

    x is one point, giving shape (n, n), or an (N, n) array, giving shape
    (N, n, n).  Each constraint contributes mu w w^T - (mu / g_j) hess g_j
    on top of the objective Hessian, with w = grad g_j / g_j: scaling before
    the outer product keeps a g_j above about 1e154, whose square
    overflows, finite.  Raises InfeasiblePointError off the strict interior.
    """
    mu = _check_mu(mu)
    jet = expr.jets((p.objective, *p.constraints), x, 2)
    h, g = jet.hess[0], jet.value[1:]
    if np.any(g <= 0.0):
        raise InfeasiblePointError(
            f"barrier Hessian requested outside the strict interior (min g = {g.min()})"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # callers handle an h that is not finite
        w = jet.grad[1:] / g[..., None]  # row j is grad g_j / g_j
        terms = mu * (w[..., :, None] * w[..., None, :]) - (mu / g)[..., None, None] * jet.hess[1:]
        for term in terms:  # added in constraint order
            h += term
    return h
