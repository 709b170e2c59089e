"""KKT residuals and certification verdicts.

A point x is scored on four residuals: stationarity
|grad f - sum_j lambda_j grad g_j|, complementarity max_j |lambda_j g_j(x)|,
dual feasibility max_j max(0, -lambda_j), and primal feasibility
max_j max(0, -g_j(x)).  The multipliers lambda are not an input: the
certificate picks the active set and estimates them from x alone, so how
x was reached and how each g_j is scaled do not enter.

The diagnostics probes check the paper's hypotheses for the barrier path;
the certificate checks the global claim's own premise at x, a KKT point
with finite multipliers, and refuses x where the active gradients vanish
while grad f does not.  A certified x is a global minimizer if f and the
feasible set are convex; that is assumed, not checked.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from . import expr
from .diagnostics import NONDEGENERACY_DELTA, _row_norms
from .problem import Problem

ACTIVE_DISTANCE = 1e-6  # in box widths: g_j <= this * w * |grad g_j| is active
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
    active_set: list[int]  # 1-based, ascending: the g_j within activation_tolerance of their zero
    activation_tolerance: float  # ACTIVE_DISTANCE * w, w the box's largest width
    least_active_singular_value: float | None  # of the active gradients; None if none is active
    verdict: Verdict


def check_kkt(p: Problem, x) -> KKTCertificate:
    """Score the point x against the KKT residuals.

    A g_j with g_j(x) <= ACTIVE_DISTANCE * w * |grad g_j(x)|, w the box's
    largest width, is active: to first order x lies within that distance of
    its zero set, whatever the scale of g_j or of x.  The multipliers solve
    sum over active j of lambda_j grad g_j = grad f by least squares, zero
    off the active set (Nocedal and Wright, Numerical Optimization, ch. 18).
    The verdict compares the residuals with STATIONARITY_TOL,
    COMPLEMENTARITY_TOL, FEASIBILITY_TOL and DUAL_TOL, and refuses x where
    |grad f| > STATIONARITY_TOL while the least singular value of the active
    gradients that least squares kept, so that a constraint written twice
    counts once, is below NONDEGENERACY_DELTA: no finite multiplier exists.
    """
    x = np.array([float(v) for v in x])
    jet = expr.jets((p.objective, *p.constraints), x, 1)
    gvals, grads = jet.value[1:], jet.grad[1:]
    norms = _row_norms(jet.grad)
    distance = ACTIVE_DISTANCE * float(np.max(p.box[:, 1] - p.box[:, 0]))
    active = gvals <= distance * norms[1:]
    lam = np.zeros(p.nconstraints)
    solution, _, rank, singular = np.linalg.lstsq(grads[active].T, jet.grad[0], rcond=None)
    # + 0.0 turns a -0.0 estimate, as where grad f = 0 on the boundary, into 0.0
    lam[active] = solution + 0.0

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
        activation_tolerance=distance,
        least_active_singular_value=float(singular[rank - 1]) if singular.size else None,
        verdict=Verdict.NOT_CERTIFIED,
    )
    if _residuals_pass(cert) and not (_vanishing(cert) and norms[0] > STATIONARITY_TOL):
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


def _residuals_pass(cert: KKTCertificate) -> bool:
    return all(value <= tol for _, value, tol in _scored(cert))


def _vanishing(cert: KKTCertificate) -> bool:
    """Some constraint is active at x and the active gradients vanish there."""
    sigma = cert.least_active_singular_value
    return sigma is not None and sigma < NONDEGENERACY_DELTA


def _worst_residual(cert: KKTCertificate) -> tuple[str, float]:
    def ratio(item):
        _, value, tol = item
        if tol > 0.0:
            return value / tol
        return float("inf") if value > 0.0 else 0.0

    name, value, _ = max(_scored(cert), key=ratio)
    return name, value


def global_optimality_statement(cert: KKTCertificate) -> str:
    """One-sentence conclusion to attach to a certificate.

    A certified x gets the global claim, with convexity of f and of the
    feasible set stated as assumed, since no check tests either.  A refused
    x names the worst residual, or, where every residual passes, the
    vanishing active gradients that leave no finite multiplier.
    """
    if cert.verdict is Verdict.KKT_POINT:
        premise = "whose active constraint gradients do not vanish"
        if _vanishing(cert):  # certified only because grad f vanishes as well
            premise = "where grad f vanishes"
        return (
            f"x is a KKT point at the stated tolerances {premise}, so x is a global "
            "minimizer if f and the feasible set are convex, which is assumed, not checked"
        )
    if _residuals_pass(cert):
        return (
            "not certified: the active constraint gradients vanish at x (least singular "
            f"value {cert.least_active_singular_value:.6g} below {NONDEGENERACY_DELTA:g}) "
            "while grad f does not, so no finite multiplier exists"
        )
    name, value = _worst_residual(cert)
    return (
        f"not certified: {name} residual {value:.6g} exceeds tolerance; "
        "the candidate is not a certified stationary point"
    )
