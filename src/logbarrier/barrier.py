"""Log-barrier evaluation.

For a problem with constraints g_j(x) >= 0 and weight mu > 0 the barrier is

    phi(x) = f(x) - mu * sum_j ln(g_j(x))

defined on the strict interior {x : all g_j(x) > 0} and +inf elsewhere,
whether or not the g_j are concave.  One helper reads f and every g_j in
one stacked jet and refuses a point off that domain; barrier_value turns
the refusal into +inf, while barrier_eval and barrier_hessian raise it.
The gradient identity grad phi = grad f - sum_j (mu / g_j) grad g_j makes
mu / g_j(x) the natural multiplier estimate attached to each evaluation.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import expr
from .problem import Problem


class InfeasiblePointError(Exception):
    """The barrier was asked for at a point off the strict interior."""


# multipliers are mu / g_j; objective is f(x)
BarrierEvaluation = namedtuple(
    "BarrierEvaluation", "value constraint_values gradient multipliers objective"
)


def _jet(p: Problem, x, mu: float, order: int):
    """mu as a float and the stacked jet of (f, g_1, ..., g_m) at x to order.

    Raises ValueError unless mu > 0, EvalError where f or some g_j is
    undefined, and InfeasiblePointError unless every g_j > 0 (at every
    point, for a batch).
    """
    mu = float(mu)
    if not mu > 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    jet = expr.jets((p.objective, *p.constraints), x, order)
    g = jet.value[1:]
    if not np.all(g > 0.0):
        raise InfeasiblePointError(f"point is not strictly interior (min g = {g.min()})")
    return mu, jet


def _phi(f: float, gvals: np.ndarray, mu: float) -> float:
    return f - mu * float(np.sum(np.log(gvals)))


def barrier_value(p: Problem, x, mu: float) -> float:
    """Barrier value at one point only; +inf off the barrier's domain.

    Cheap path for line searches: no derivatives.  A point where f or some
    g_j is undefined (EvalError) lies off the domain too.
    """
    if np.ndim(x) != 1:
        raise ValueError("barrier_value takes one point")
    try:
        mu, jet = _jet(p, x, mu, 0)
    except (InfeasiblePointError, expr.EvalError):
        return math.inf
    return _phi(jet.value[0], jet.value[1:], mu)


def barrier_eval(p: Problem, x, mu: float) -> BarrierEvaluation:
    """Value, gradient, multiplier estimates and objective value at one
    strictly interior point; raises InfeasiblePointError anywhere else."""
    if np.ndim(x) != 1:
        raise ValueError("barrier_eval takes one point")
    mu, jet = _jet(p, x, mu, 1)
    f, g = jet.value[0], jet.value[1:]
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
    mu, jet = _jet(p, x, mu, 2)
    h, g = jet.hess[0], jet.value[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # callers handle an h that is not finite
        w = jet.grad[1:] / g[..., None]  # row j is grad g_j / g_j
        terms = mu * (w[..., :, None] * w[..., None, :]) - (mu / g)[..., None, None] * jet.hess[1:]
        for term in terms:  # added in constraint order
            h += term
    return h
