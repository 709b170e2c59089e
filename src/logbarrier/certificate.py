"""KKT residuals and certification verdicts.

A candidate (x, lambda) is scored on four residuals: stationarity
|grad f - sum_j lambda_j grad g_j|, complementarity max_j |lambda_j g_j(x)|,
dual feasibility max_j max(0, -lambda_j), and primal feasibility
max_j max(0, -g_j(x)).  For problems whose feasible set is convex with a
strictly feasible point, a KKT point is a global minimizer of a convex
program in disguise, so a clean certificate upgrades to a global-optimality
statement once a strictly feasible point and nonvanishing active gradients
have been checked.  Convexity of the set is assumed there, not checked.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import expr
from .problem import Problem

MULTIPLIER_CLAMP = 1e-12
STATIONARITY_TOL = 1e-5
COMPLEMENTARITY_TOL = 1e-5
FEASIBILITY_TOL = 1e-8
DUAL_TOL = 0.0
GRADIENT_TOL = 1e-7  # |grad f| below this means unconstrained minimum


class Verdict(str, Enum):
    KKT_POINT = "kkt_point"
    UNCONSTRAINED_MINIMUM = "unconstrained_minimum"
    NOT_CERTIFIED = "not_certified"


class KKTCertificate(NamedTuple):
    x: np.ndarray
    multipliers: np.ndarray
    objective: float
    stationarity_residual: float
    complementarity_residual: float
    dual_feasibility_violation: float
    primal_feasibility_violation: float
    active_set: list[int]  # 1-based, ascending: the g_j at or below the tolerance
    activation_tolerance: float
    verdict: Verdict


def check_kkt(p: Problem, x, multipliers, activation: float = 1e-6) -> KKTCertificate:
    """Score a primal-dual candidate against the KKT residuals.

    A g_j at or below activation counts as active.  The verdict compares
    the residuals with STATIONARITY_TOL, COMPLEMENTARITY_TOL,
    FEASIBILITY_TOL and DUAL_TOL, and |grad f| with GRADIENT_TOL.
    Multipliers with |lambda_j| < 1e-12 are clamped to zero before scoring,
    so barrier noise on inactive constraints does not poison complementarity.
    """
    x = np.array([float(v) for v in x])
    lam = np.array([float(v) for v in multipliers])
    if lam.shape != (p.nconstraints,):
        raise ValueError(f"expected {p.nconstraints} multipliers, got {lam.shape}")
    lam = np.where(np.abs(lam) < MULTIPLIER_CLAMP, 0.0, lam)

    jet = expr.jets((p.objective, *p.constraints), x, 1)
    gvals = jet.value[1:]

    cert = KKTCertificate(
        x=x,
        multipliers=lam,
        objective=jet.value[0],
        stationarity_residual=float(np.linalg.norm(jet.grad[0] - jet.grad[1:].T @ lam)),
        complementarity_residual=float(np.max(np.abs(lam * gvals))),
        # + 0.0 turns the -0.0 of a zeroed multiplier or constraint value into 0.0
        dual_feasibility_violation=float(np.max(np.maximum(0.0, -lam))) + 0.0,
        primal_feasibility_violation=float(np.max(np.maximum(0.0, -gvals))) + 0.0,
        active_set=[int(j) + 1 for j in np.nonzero(gvals <= activation)[0]],
        activation_tolerance=activation,
        verdict=Verdict.NOT_CERTIFIED,
    )
    flat = np.linalg.norm(jet.grad[0]) <= GRADIENT_TOL
    if flat and cert.primal_feasibility_violation <= FEASIBILITY_TOL:
        return cert._replace(verdict=Verdict.UNCONSTRAINED_MINIMUM)
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
    claim that states convexity of the feasible set as assumed, since no
    check tests it; a clean verdict without it stays a local statement
    naming what was not verified; a failed verdict names the worst residual.
    """
    if cert.verdict is Verdict.NOT_CERTIFIED:
        name, value = _worst_residual(cert)
        return (
            f"not certified: {name} residual {value:.6g} exceeds tolerance; "
            "the candidate is not a certified stationary point"
        )
    if cert.verdict is Verdict.UNCONSTRAINED_MINIMUM:
        kind = "an unconstrained stationary point (objective gradient vanishes)"
    else:
        kind = "a KKT point"
    if assumptions_verified:
        return (
            f"x is {kind}; a strictly feasible point was found and the active "
            "constraint gradients were nonvanishing at the sampled boundary points, "
            "so x is a global minimizer if the feasible set is convex, which is "
            "assumed, not checked"
        )
    missing = unverified or "strict feasibility and nondegeneracy of active constraint gradients"
    return (
        f"x is {kind} at the stated tolerances, but {missing} "
        "was not verified, so no global-optimality claim is made"
    )
