"""Unconstrained minimization of the barrier at fixed mu.

Directions are Newton steps with an eigenvalue shift that makes the
barrier Hessian safely positive definite (steepest descent where the
Hessian cannot be used).  Backtracking line search keeps every iterate
strictly interior: a step is halved while it lands outside the interior
(where the barrier reports +inf) and then further until the Armijo decrease
test holds.  A solve ends once its gradient norm is at most STAGE_TARGET * mu,
at the float floor of phi, where the decrease a step predicts rounds away
(Boyd & Vandenberghe, Convex Optimization, 9.5), or after MAX_ITERS Newton
steps.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .barrier import barrier_eval, barrier_hessian, barrier_value
from .expr import EvalError
from .problem import Problem

ARMIJO_C1 = 1e-4
MIN_STEP = 1e-16
EIG_FLOOR = 1e-8
MAX_ITERS = 5000
STAGE_TARGET = 1e-2  # a stage's gradient-norm target, relative to mu


class InnerStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    NO_PROGRESS = "no_progress"  # no step length down to MIN_STEP lowers phi


class PathPoint(NamedTuple):
    mu: float
    x: np.ndarray
    multipliers: np.ndarray  # mu / g_j at x
    objective: float
    grad_norm: float
    status: InnerStatus
    iterations: int  # Newton steps, each forming one barrier Hessian
    trials: int  # barrier values the line searches computed


def _newton_step(p: Problem, x: np.ndarray, mu: float, gradient: np.ndarray):
    """The shifted Newton step d at x and its slope gradient @ d; steepest descent
    where the Hessian or d is not finite, the solve fails, or d does not descend."""
    h = barrier_hessian(p, x, mu)
    if np.all(np.isfinite(h)):
        eigs = np.linalg.eigvalsh(h)
        shift = 0.0 if eigs[0] >= EIG_FLOOR else EIG_FLOOR - eigs[0]
        try:
            d = np.linalg.solve(h + shift * np.eye(len(x)), -gradient)
        except np.linalg.LinAlgError:
            pass
        else:
            if np.all(np.isfinite(d)) and not (slope := float(gradient @ d)) >= 0.0:
                return d, slope
    with np.errstate(over="ignore"):  # |gradient|^2 may overflow to inf
        return -gradient, float(gradient @ -gradient)


def solve_inner(p: Problem, mu: float, x_start) -> PathPoint:
    """Minimize the barrier at fixed mu from a copy of a strictly interior start.

    Stops at the first iterate whose gradient norm is at most
    STAGE_TARGET * mu, or after MAX_ITERS Newton steps (both read at each
    call).  The search halves t from 1 while t >= MIN_STEP and the
    decrease t * slope still shows against phi, and a candidate must
    lower phi; a search that runs out counts as an iteration and ends the
    solve NO_PROGRESS at x, phi's float floor.  The start's barrier_eval
    raises InfeasiblePointError off the strict interior, and EvalError
    where f or some g_j is undefined; EvalError too at an iterate whose
    barrier gradient norm overflows.  The path point holds mu / g_j and f
    at its x, and the solve's Newton steps and trials.
    """
    x = np.array([float(v) for v in x_start])
    be = barrier_eval(p, x, mu)
    trials = 0
    # a dot product of huge vectors reads inf, which the norm check and the step tests handle
    with np.errstate(over="ignore"):
        for k in range(MAX_ITERS + 1):
            grad_norm = float(np.linalg.norm(be.gradient))
            if not math.isfinite(grad_norm):
                raise EvalError(f"the barrier gradient's norm overflows at mu = {mu}")
            if grad_norm <= STAGE_TARGET * mu:
                status = InnerStatus.CONVERGED
                break
            if k == MAX_ITERS:
                status = InnerStatus.MAX_ITERS
                break

            d, slope = _newton_step(p, x, mu, be.gradient)
            t = 1.0
            while t >= MIN_STEP and be.value + t * slope < be.value:
                cand = x + t * d
                value = barrier_value(p, cand, mu)
                trials += 1
                if value < be.value and value <= be.value + ARMIJO_C1 * t * slope:
                    break
                t *= 0.5
            else:
                status, k = InnerStatus.NO_PROGRESS, k + 1
                break
            x = cand
            be = barrier_eval(p, x, mu)
    return PathPoint(mu, x, be.multipliers, be.objective, grad_norm, status, k, trials)
