"""Unconstrained minimization of the barrier at fixed mu.

Directions are Newton steps with an eigenvalue shift that makes the
barrier Hessian safely positive definite (steepest descent where the
Hessian cannot be used).  Backtracking line search keeps every iterate
strictly interior: a step is halved while it lands outside the interior
(where the barrier reports +inf) and then further until the Armijo decrease
test holds.  Below the float floor of phi, where the decrease Armijo asks
of a full step rounds away, candidates are judged by the gradient norm
instead (Boyd & Vandenberghe, Convex Optimization, 9.5.1).  A solve takes
at most MAX_ITERS Newton steps.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .barrier import BarrierEvaluation, barrier_eval, barrier_hessian, barrier_value
from .expr import EvalError
from .problem import Problem

ARMIJO_C1 = 1e-4
MIN_STEP = 1e-16
EIG_FLOOR = 1e-8
MAX_ITERS = 5000


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
    evaluation: BarrierEvaluation  # at x


def default_tolerance(mu: float, floor: float) -> float:
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


def solve_inner(p: Problem, mu: float, x_start, tol: float) -> InnerResult:
    """Minimize the barrier at fixed mu from a strictly interior start.

    Stops at the first iterate whose gradient norm is at most tol, or after
    MAX_ITERS Newton steps (read at each call) with status MAX_ITERS.  An
    accepted step that leaves x bit-identical counts as an iteration but
    makes no new iterate: the solve ends there with status NO_PROGRESS.
    Raises EvalError at an iterate whose barrier gradient norm overflows.

    A candidate must lower phi: the Armijo test alone would accept an
    equal value once the decrease it asks for at a backtracked step rounds
    away.  When be.value + ARMIJO_C1 * slope == be.value, the Armijo test
    cannot rank steps at all, so a candidate is accepted when it is
    interior and |grad phi(cand)| <= (1 - ARMIJO_C1 * t) * |grad phi(x)|;
    its evaluation serves the next iteration.  The result carries the
    evaluation at its x.
    """
    x = np.array([float(v) for v in x_start])
    be = barrier_eval(p, x, mu)
    if not be.interior:
        raise InfeasibleStartError(
            f"start is not strictly interior (min g = {be.constraint_values.min()})"
        )

    # a dot product of huge vectors reads inf, which the norm check and the step tests handle
    with np.errstate(over="ignore"):
        for k in range(MAX_ITERS + 1):
            grad_norm = float(np.linalg.norm(be.gradient))
            if not math.isfinite(grad_norm):
                raise EvalError(f"the barrier gradient's norm overflows at mu = {mu}")
            if grad_norm <= tol:
                return InnerResult(x, grad_norm, k, InnerStatus.CONVERGED, be)
            if k == MAX_ITERS:
                return InnerResult(x, grad_norm, k, InnerStatus.MAX_ITERS, be)

            d = _newton_direction(p, x, mu, be.gradient)
            slope = float(be.gradient @ d)
            by_gradient = be.value + ARMIJO_C1 * slope == be.value
            t = 1.0
            while t >= MIN_STEP:
                cand = x + t * d
                if by_gradient:
                    try:
                        trial = barrier_eval(p, cand, mu)
                        accept = trial.interior and (
                            np.linalg.norm(trial.gradient) <= (1 - ARMIJO_C1 * t) * grad_norm
                        )
                    except EvalError:  # off the domain of f or some g_j
                        accept = False
                else:
                    value = barrier_value(p, cand, mu)
                    accept = value < be.value and value <= be.value + ARMIJO_C1 * t * slope
                if accept:
                    break
                t *= 0.5
            else:
                return InnerResult(x, grad_norm, k, InnerStatus.LINE_SEARCH_STALL, be)

            if np.array_equal(cand, x):
                # every later iteration would repeat this one bit for bit
                return InnerResult(x, grad_norm, k + 1, InnerStatus.NO_PROGRESS, be)
            x = cand
            be = trial if by_gradient else barrier_eval(p, x, mu)
