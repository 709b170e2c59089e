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
while grad f does not.  The certificate states its verdict in one
sentence.  A certified x gets the global claim: x is a global minimizer
if f and the feasible set are convex, and that convexity is stated as
assumed, since no check tests it.  A refused x names its worst residual,
or, where every residual passes, the vanishing active gradients that
leave no finite multiplier.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

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


# active_set: 1-based, ascending: the g_j within activation_tolerance of their zero
# activation_tolerance: ACTIVE_DISTANCE * w, w the box's largest width
# least_active_singular_value: of the active gradients; None if none is active
# verdict: a Verdict; statement: the verdict in one sentence, the claim or why it is refused
KKTCertificate = namedtuple(
    "KKTCertificate",
    "x multipliers objective stationarity_residual complementarity_residual"
    " dual_feasibility_violation primal_feasibility_violation active_set"
    " activation_tolerance least_active_singular_value verdict statement",
)


def check_kkt(p: Problem, x) -> KKTCertificate:
    """Score the point x against the KKT residuals, and state the verdict.

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
    The statement of a refused x names the residual with the largest ratio
    to its tolerance (a tolerance of 0 counting as inf, the first in table
    order on a tie), or else those vanishing gradients.  That of a certified
    x says whether the active gradients do not vanish or grad f vanishes
    with them.
    """
    x = np.array([float(v) for v in x])
    jet = expr.jets((p.objective, *p.constraints), x, 1)
    gvals, grads = jet.value[1:], jet.grad[1:]
    norms = _row_norms(jet.grad)
    distance = ACTIVE_DISTANCE * float(np.max(p.box[:, 1] - p.box[:, 0]))
    active = gvals <= distance * norms[1:]
    lam = np.zeros(len(p.constraints))
    solution, _, rank, singular = np.linalg.lstsq(grads[active].T, jet.grad[0], rcond=None)
    # + 0.0 turns a -0.0 estimate, as where grad f = 0 on the boundary, into 0.0
    lam[active] = solution + 0.0

    sigma = float(singular[rank - 1]) if singular.size else None
    # + 0.0 turns the -0.0 of a zero multiplier or constraint value into 0.0
    dual = float(np.max(np.maximum(0.0, -lam))) + 0.0
    primal = float(np.max(np.maximum(0.0, -gvals))) + 0.0
    stationarity = float(np.linalg.norm(jet.grad[0] - grads.T @ lam))
    complementarity = float(np.max(np.abs(lam * gvals)))
    scored = [  # (name, residual, tolerance); a new residual is one more row
        ("stationarity", stationarity, STATIONARITY_TOL),
        ("complementarity", complementarity, COMPLEMENTARITY_TOL),
        ("primal feasibility", primal, FEASIBILITY_TOL),
        ("dual feasibility", dual, DUAL_TOL),
    ]
    failing = [row for row in scored if not row[1] <= row[2]]  # a NaN residual fails
    vanishing = sigma is not None and sigma < NONDEGENERACY_DELTA
    verdict = Verdict.NOT_CERTIFIED
    if failing:
        # the worst: the first of the largest value / tol, a tol of 0 counting as inf
        name, value, _ = max(failing, key=lambda row: row[1] / row[2] if row[2] > 0.0 else math.inf)
        statement = (
            f"not certified: {name} residual {value:.6g} exceeds tolerance; "
            "the candidate is not a certified stationary point"
        )
    elif vanishing and norms[0] > STATIONARITY_TOL:
        statement = (
            "not certified: the active constraint gradients vanish at x (least singular "
            f"value {sigma:.6g} below {NONDEGENERACY_DELTA:g}) "
            "while grad f does not, so no finite multiplier exists"
        )
    else:
        verdict = Verdict.KKT_POINT
        premise = "whose active constraint gradients do not vanish"
        if vanishing:  # certified only because grad f vanishes as well
            premise = "where grad f vanishes"
        statement = (
            f"x is a KKT point at the stated tolerances {premise}, so x is a global "
            "minimizer if f and the feasible set are convex, which is assumed, not checked"
        )
    return KKTCertificate(
        x=x,
        multipliers=lam,
        objective=jet.value[0],
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        dual_feasibility_violation=dual,
        primal_feasibility_violation=primal,
        active_set=[int(j) + 1 for j in np.nonzero(active)[0]],
        activation_tolerance=distance,
        least_active_singular_value=sigma,
        verdict=verdict,
        statement=statement,
    )
