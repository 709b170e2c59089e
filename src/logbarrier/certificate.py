"""KKT residuals and certification verdicts.

A candidate (x, lambda) is scored on four residuals: stationarity
|grad f - sum_j lambda_j grad g_j|, complementarity max_j |lambda_j g_j(x)|,
dual feasibility max_j max(0, -lambda_j), and primal feasibility
max_j max(0, -g_j(x)).  For problems whose feasible set is convex with a
strictly feasible point, a KKT point is a global minimizer of a convex
program in disguise, so a clean certificate upgrades to a global-optimality
statement once those hypotheses have been verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import expr
from .problem import ActiveSet, Problem

MULTIPLIER_CLAMP = 1e-12


class Verdict(str, Enum):
    KKT_POINT = "kkt_point"
    UNCONSTRAINED_MINIMUM = "unconstrained_minimum"
    NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class KKTTolerances:
    stationarity: float = 1e-5
    complementarity: float = 1e-5
    feasibility: float = 1e-8
    dual: float = 0.0
    gradient: float = 1e-7  # |grad f| below this means unconstrained minimum
    activation: float = 1e-6  # g_j <= this counts as active


@dataclass(frozen=True)
class KKTCertificate:
    x: np.ndarray
    multipliers: np.ndarray
    objective_value: float
    stationarity_residual: float
    complementarity_residual: float
    dual_feasibility_violation: float
    primal_feasibility_violation: float
    active_set: ActiveSet
    verdict: Verdict

    def to_record(self) -> dict:
        return {
            "record": "certificate",
            "x": [float(v) for v in self.x],
            "multipliers": [float(v) for v in self.multipliers],
            "objective": self.objective_value,
            "stationarity_residual": self.stationarity_residual,
            "complementarity_residual": self.complementarity_residual,
            "dual_feasibility_violation": self.dual_feasibility_violation,
            "primal_feasibility_violation": self.primal_feasibility_violation,
            "active_set": self.active_set.as_sorted(),
            "activation_tolerance": self.active_set.tolerance,
            "verdict": self.verdict.value,
        }


def check_kkt(p: Problem, x, multipliers, tols: KKTTolerances | None = None) -> KKTCertificate:
    """Score a primal-dual candidate against the KKT residuals.

    Multipliers with |lambda_j| < 1e-12 are clamped to zero before scoring,
    so barrier noise on inactive constraints does not poison complementarity.
    """
    if tols is None:
        tols = KKTTolerances()
    x = np.array([float(v) for v in x])
    lam = np.array([float(v) for v in multipliers])
    if lam.shape != (p.nconstraints,):
        raise ValueError(f"expected {p.nconstraints} multipliers, got {lam.shape}")
    lam = np.where(np.abs(lam) < MULTIPLIER_CLAMP, 0.0, lam)

    fjet, *gjets = expr.jets((p.objective, *p.constraints), x, 1)
    grads = np.array([j.grad for j in gjets])
    gvals = np.array([j.value for j in gjets])

    stat_vec = fjet.grad - grads.T @ lam
    stationarity = float(np.linalg.norm(stat_vec))
    complementarity = float(np.max(np.abs(lam * gvals)))
    dual_violation = float(np.max(np.maximum(0.0, -lam)))
    primal_violation = float(np.max(np.maximum(0.0, -gvals)))
    fgrad_norm = float(np.linalg.norm(fjet.grad))

    if fgrad_norm <= tols.gradient and primal_violation <= tols.feasibility:
        verdict = Verdict.UNCONSTRAINED_MINIMUM
    elif (
        stationarity <= tols.stationarity
        and complementarity <= tols.complementarity
        and primal_violation <= tols.feasibility
        and dual_violation <= tols.dual
    ):
        verdict = Verdict.KKT_POINT
    else:
        verdict = Verdict.NOT_CERTIFIED

    return KKTCertificate(
        x=x,
        multipliers=lam,
        objective_value=fjet.value,
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        dual_feasibility_violation=dual_violation,
        primal_feasibility_violation=primal_violation,
        active_set=ActiveSet.of(gvals, tols.activation),
        verdict=verdict,
    )


def _worst_residual(cert: KKTCertificate, tols: KKTTolerances) -> tuple[str, float]:
    scored = [
        ("stationarity", cert.stationarity_residual, tols.stationarity),
        ("complementarity", cert.complementarity_residual, tols.complementarity),
        ("primal feasibility", cert.primal_feasibility_violation, tols.feasibility),
        ("dual feasibility", cert.dual_feasibility_violation, tols.dual),
    ]

    def ratio(item):
        _, value, tol = item
        if tol > 0.0:
            return value / tol
        return float("inf") if value > 0.0 else 0.0

    name, value, _ = max(scored, key=ratio)
    return name, value


def global_optimality_statement(
    cert: KKTCertificate,
    assumptions_verified: bool,
    tols: KKTTolerances | None = None,
    unverified: str | None = None,
) -> str:
    """One-sentence conclusion to attach to a certificate.

    A clean verdict plus verified regularity (strictly feasible point
    exists, active constraint gradients do not vanish) yields a global
    claim; a clean verdict without it stays a local statement naming what
    was not verified; a failed verdict names the worst residual.
    """
    if tols is None:
        tols = KKTTolerances()
    if cert.verdict is Verdict.NOT_CERTIFIED:
        name, value = _worst_residual(cert, tols)
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
            f"x is {kind}; with a convex feasible set, a strictly feasible point, "
            "and nonvanishing active constraint gradients all verified, this "
            "certifies a global minimizer"
        )
    missing = unverified or "strict feasibility and nondegeneracy of active constraint gradients"
    return (
        f"x is {kind} at the stated tolerances, but {missing} "
        "was not verified, so no global-optimality claim is made"
    )
