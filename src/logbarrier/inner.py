"""Unconstrained minimization of the barrier at fixed mu.

Directions are Newton steps with an eigenvalue shift that makes the
barrier Hessian safely positive definite (steepest descent where the
Hessian cannot be used).  Backtracking line search keeps every iterate
strictly interior: a step is halved while it lands outside the interior
(where the barrier reports +inf) and then further until the Armijo decrease
test holds.  Below the float floor of phi, where the decrease Armijo asks
of a full step rounds away, candidates are judged by the gradient norm
instead (Boyd & Vandenberghe, Convex Optimization, 9.5.1).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .barrier import barrier_eval, barrier_hessian, barrier_value
from .expr import EvalError
from .problem import Problem

ARMIJO_C1 = 1e-4
MIN_STEP = 1e-16
EIG_FLOOR = 1e-8


class InfeasibleStartError(Exception):
    """Starting point is not strictly interior."""


class InnerStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    LINE_SEARCH_STALL = "line_search_stall"
    NO_PROGRESS = "no_progress"  # the accepted step left x bit-identical


class InnerResult(NamedTuple):
    x: np.ndarray
    grad_norm: float
    iterations: int
    status: InnerStatus


def default_tolerance(mu: float, floor: float = 1e-8) -> float:
    """Gradient-norm target at weight mu: max(floor, 1e-2 * mu).

    Continuation's stages use it with their tolerance floor.
    """
    return max(floor, 1e-2 * mu)


def _newton_direction(p: Problem, x: np.ndarray, mu: float, gradient: np.ndarray) -> np.ndarray:
    h = barrier_hessian(p, x, mu)
    if not np.all(np.isfinite(h)):
        return -gradient
    eigs = np.linalg.eigvalsh(h)
    shift = 0.0 if eigs[0] >= EIG_FLOOR else EIG_FLOOR - eigs[0]
    try:
        d = np.linalg.solve(h + shift * np.eye(len(x)), -gradient)
    except np.linalg.LinAlgError:
        return -gradient
    if not np.all(np.isfinite(d)) or float(d @ gradient) >= 0.0:
        return -gradient
    return d


def _gradient_norm(p: Problem, x: np.ndarray, mu: float) -> float:
    """|grad phi| at x; +inf where barrier_value is +inf."""
    try:
        be = barrier_eval(p, x, mu)
    except EvalError:
        return math.inf
    return float(np.linalg.norm(be.gradient)) if be.interior else math.inf


def solve_inner(
    p: Problem,
    mu: float,
    x_start,
    tol: float | None = None,
    max_iters: int = 5000,
    callback: Callable[[int, np.ndarray, float, float, float], None] | None = None,
) -> InnerResult:
    """Minimize the barrier at fixed mu from a strictly interior start.

    tol defaults to max(1e-8, 1e-2 * mu).  The callback, if given, receives
    (iteration, x, value, grad_norm, step) once per iterate; step is the
    length of the step that produced the iterate, 0.0 for the start.  An
    accepted step that leaves x bit-identical counts as an iteration but
    makes no new iterate: the solve ends there with status NO_PROGRESS.

    When be.value + ARMIJO_C1 * slope == be.value, the Armijo test cannot
    rank steps, so a candidate is accepted when it is interior and
    |grad phi(cand)| <= (1 - ARMIJO_C1 * t) * |grad phi(x)|.
    """
    if tol is None:
        tol = default_tolerance(mu)
    x = np.array([float(v) for v in x_start])
    be = barrier_eval(p, x, mu)
    if not be.interior:
        raise InfeasibleStartError(
            f"start is not strictly interior (min g = {be.constraint_values.min()})"
        )

    step = 0.0
    iterations = 0
    for k in range(max_iters + 1):
        grad_norm = float(np.linalg.norm(be.gradient))
        if callback is not None:
            callback(k, x.copy(), be.value, grad_norm, step)
        if grad_norm <= tol:
            return InnerResult(x, grad_norm, iterations, InnerStatus.CONVERGED)
        if k == max_iters:
            break

        d = _newton_direction(p, x, mu, be.gradient)
        slope = float(be.gradient @ d)
        by_gradient = be.value + ARMIJO_C1 * slope == be.value
        t = 1.0
        while t >= MIN_STEP:
            cand = x + t * d
            if by_gradient:
                accept = _gradient_norm(p, cand, mu) <= (1 - ARMIJO_C1 * t) * grad_norm
            else:
                accept = barrier_value(p, cand, mu) <= be.value + ARMIJO_C1 * t * slope
            if accept:
                break
            t *= 0.5
        else:
            return InnerResult(x, grad_norm, iterations, InnerStatus.LINE_SEARCH_STALL)

        iterations += 1
        if np.array_equal(cand, x):
            # every later iteration would repeat this one bit for bit
            return InnerResult(x, grad_norm, iterations, InnerStatus.NO_PROGRESS)
        x, step = cand, t
        be = barrier_eval(p, x, mu)

    grad_norm = float(np.linalg.norm(be.gradient))
    return InnerResult(x, grad_norm, iterations, InnerStatus.MAX_ITERS)
