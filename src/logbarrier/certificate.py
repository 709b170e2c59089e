"""KKT residuals and certification verdicts.

A point x is scored on four residuals: stationarity
|grad f - sum_j lambda_j grad g_j|, complementarity max_j |lambda_j g_j(x)|,
dual feasibility max_j max(0, -lambda_j), and primal feasibility
max_j max(0, -g_j(x)).  The multipliers lambda are not an input: the
certificate picks the active set and estimates them from x alone, so how
x was reached and how each g_j is scaled do not enter.  For problems
whose objective and feasible set are convex with a strictly feasible
point, a KKT point is a global minimizer of a convex program in disguise,
so a clean certificate upgrades to a global-optimality statement once a
strictly feasible point and nonvanishing active gradients have been
checked.  Convexity of f and of the set is assumed there, not checked.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import expr
from .diagnostics import _row_norms
from .problem import Problem

ACTIVE_DISTANCE = 1e-6  # in x's units: g_j <= this * |grad g_j| is active
STATIONARITY_TOL = 1e-5
COMPLEMENTARITY_TOL = 1e-5
FEASIBILITY_TOL = 1e-8
DUAL_TOL = 0.0


class Verdict(str, Enum):
    KKT_POINT = "kkt_point"
    NOT_CERTIFIED = "not_certified"


class KKTCertificate(NamedTuple):
    x: np.ndarray
    multipliers: np.ndarray
    objective: float
    stationarity_residual: float
    complementarity_residual: float
    dual_feasibility_violation: float
    primal_feasibility_violation: float
    active_set: list[int]  # 1-based, ascending: the g_j within ACTIVE_DISTANCE of their zero
    activation_tolerance: float  # ACTIVE_DISTANCE
    verdict: Verdict


def check_kkt(p: Problem, x) -> KKTCertificate:
    """Score the point x against the KKT residuals.

    A g_j with g_j(x) <= ACTIVE_DISTANCE * |grad g_j(x)| is active: to
    first order x lies within ACTIVE_DISTANCE of its zero set, which does
    not move when g_j is scaled.  The multipliers are the least-squares
    solution of sum over active j of lambda_j grad g_j = grad f, and zero
    off the active set (Nocedal and Wright, Numerical Optimization, ch. 18).
    The verdict compares the residuals with STATIONARITY_TOL,
    COMPLEMENTARITY_TOL, FEASIBILITY_TOL and DUAL_TOL.
    """
    x = np.array([float(v) for v in x])
    jet = expr.jets((p.objective, *p.constraints), x, 1)
    gvals, grads = jet.value[1:], jet.grad[1:]
    active = gvals <= ACTIVE_DISTANCE * _row_norms(grads)
    lam = np.zeros(p.nconstraints)
    # + 0.0 turns a -0.0 estimate, as where grad f = 0 on the boundary, into 0.0
    lam[active] = np.linalg.lstsq(grads[active].T, jet.grad[0], rcond=None)[0] + 0.0

    cert = KKTCertificate(
        x=x,
        multipliers=lam,
        objective=jet.value[0],
        stationarity_residual=float(np.linalg.norm(jet.grad[0] - grads.T @ lam)),
        complementarity_residual=float(np.max(np.abs(lam * gvals))),
        # + 0.0 turns the -0.0 of a zero multiplier or constraint value into 0.0
        dual_feasibility_violation=float(np.max(np.maximum(0.0, -lam))) + 0.0,
        primal_feasibility_violation=float(np.max(np.maximum(0.0, -gvals))) + 0.0,
        active_set=[int(j) + 1 for j in np.nonzero(active)[0]],
        activation_tolerance=ACTIVE_DISTANCE,
        verdict=Verdict.NOT_CERTIFIED,
    )
    if all(value <= tol for _, value, tol in _scored(cert)):
        return cert._replace(verdict=Verdict.KKT_POINT)
    return cert


def _scored(cert: KKTCertificate) -> list[tuple[str, float, float]]:
    """(name, residual, tolerance) of the four residuals the verdict and the statement read."""
    return [
        ("stationarity", cert.stationarity_residual, STATIONARITY_TOL),
        ("complementarity", cert.complementarity_residual, COMPLEMENTARITY_TOL),
        ("primal feasibility", cert.primal_feasibility_violation, FEASIBILITY_TOL),
        ("dual feasibility", cert.dual_feasibility_violation, DUAL_TOL),
    ]


def _worst_residual(cert: KKTCertificate) -> tuple[str, float]:
    def ratio(item):
        _, value, tol = item
        if tol > 0.0:
            return value / tol
        return float("inf") if value > 0.0 else 0.0

    name, value, _ = max(_scored(cert), key=ratio)
    return name, value


def global_optimality_statement(
    cert: KKTCertificate,
    assumptions_verified: bool,
    unverified: str | None = None,
) -> str:
    """One-sentence conclusion to attach to a certificate.

    A clean verdict plus verified regularity (strictly feasible point
    exists, active constraint gradients do not vanish) yields a global
    claim that states convexity of f and of the feasible set as assumed,
    since no check tests either; a clean verdict without it stays a local
    statement naming what was not verified; a failed verdict names the
    worst residual.
    """
    if cert.verdict is Verdict.NOT_CERTIFIED:
        name, value = _worst_residual(cert)
        return (
            f"not certified: {name} residual {value:.6g} exceeds tolerance; "
            "the candidate is not a certified stationary point"
        )
    if assumptions_verified:
        return (
            "x is a KKT point; a strictly feasible point was found and the active "
            "constraint gradients were nonvanishing at the sampled boundary points, "
            "so x is a global minimizer if f and the feasible set are convex, which "
            "is assumed, not checked"
        )
    missing = unverified or "strict feasibility and nondegeneracy of active constraint gradients"
    return (
        f"x is a KKT point at the stated tolerances, but {missing} "
        "was not verified, so no global-optimality claim is made"
    )
