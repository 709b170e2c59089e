"""Slow, independent reference answers.

grid_minimize brute-forces small problems on a dense grid and polishes the
best feasible point with projected descent along the boundary;
gradient_check compares dual propagation against central finite
differences.  Both exist to catch the fast paths lying, so they share no
machinery with the barrier code beyond expression evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .expr import Expr
from .problem import Problem, evaluate_constraints, grid_blocks

MAX_ORACLE_VARS = 3
MIN_RESOLUTION = 11


class OracleError(Exception):
    pass


@dataclass(frozen=True)
class OracleResult:
    x_best: np.ndarray
    f_best: float
    grid_resolution: int
    polished: bool

    def to_record(self) -> dict:
        return {
            "record": "oracle",
            "x_best": [float(v) for v in self.x_best],
            "f_best": self.f_best,
            "grid_resolution": self.grid_resolution,
            "polished": self.polished,
        }


_ACTIVE_EPS = 1e-9


def _restore(p: Problem, cand: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Pull an infeasible candidate back into the feasible set.

    Walks inward along the most violated constraint's gradient, expanding
    the step until feasible and bisecting back to the boundary.  The
    expand-then-bisect never misses the crossing even when the gradient
    nearly vanishes at the zero set (a plain Newton pullback would creep
    toward a multiple root from the wrong side forever).  When no usable
    gradient direction exists, falls back to bisecting the chord to the
    feasible anchor.
    """
    for _ in range(4):
        gvals = evaluate_constraints(p, cand)
        worst = int(np.argmin(gvals))
        if gvals[worst] >= 0.0:
            return cand
        grad = expr.evaluate_dual(p.constraints[worst], cand, 1).grad
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-14:
            break
        u = grad / gnorm
        t = -gvals[worst] / gnorm
        feasible_t = None
        for _ in range(60):
            if evaluate_constraints(p, cand + t * u).min() >= 0.0:
                feasible_t = t
                break
            t *= 2.0
        if feasible_t is None:
            break
        lo, hi = 0.0, feasible_t
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if evaluate_constraints(p, cand + mid * u).min() >= 0.0:
                hi = mid
            else:
                lo = mid
        cand = cand + hi * u
    if evaluate_constraints(p, cand).min() >= 0.0:
        return cand
    lo, hi = 0.0, 1.0
    chord = anchor - cand
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if evaluate_constraints(p, cand + mid * chord).min() >= 0.0:
            hi = mid
        else:
            lo = mid
    return cand + hi * chord


def _polish(p: Problem, x: np.ndarray, fx: float, steps: int) -> tuple[np.ndarray, float]:
    """Projected descent from a feasible point, never leaving the feasible set.

    The step direction is the negative objective gradient with the
    outward components of near-active constraint gradients projected out,
    so iterates can slide along a curved boundary instead of jamming
    against it.  Candidates that leave the feasible set are restored
    inward; only strict objective improvements are kept.
    """
    t = 1.0
    for _ in range(steps):
        grad = expr.evaluate_dual(p.objective, x, 1).grad
        d = -grad
        scale = 1.0 + float(np.linalg.norm(grad))
        for jet in expr.jets(p.constraints, x, 1):
            if jet.value > _ACTIVE_EPS * scale:
                continue
            n = jet.grad
            nn = float(np.linalg.norm(n))
            if nn < 1e-14:
                continue
            n = n / nn
            downhill = float(n @ d)
            if downhill < 0.0:
                d = d - downhill * n
        if float(np.linalg.norm(d)) <= 1e-10 * scale:
            break
        improved = False
        for _ in range(25):
            cand = np.clip(x + t * d, p.box[:, 0], p.box[:, 1])
            if evaluate_constraints(p, cand).min() < 0.0:
                cand = _restore(p, cand, x)
            fc = expr.evaluate(p.objective, cand)
            if fc < fx:
                x, fx = cand, fc
                improved = True
                break
            t *= 0.5
        if not improved:
            break
        t = min(t * 2.0, 1.0)
    return x, fx


def grid_minimize(p: Problem, res: int = 101, polish_steps: int = 50) -> OracleResult:
    """Minimize by dense feasible grid search over the box, then polish.

    Deterministic: ties on the grid go to the lexicographically smallest
    point.  Limited to 3 variables; res must be at least 11.  Grid points
    where f or some g_j overflows are left out.  Raises OracleError when no
    grid point is feasible.
    """
    if p.nvars > MAX_ORACLE_VARS:
        raise OracleError(f"grid oracle supports up to {MAX_ORACLE_VARS} variables")
    if res < MIN_RESOLUTION:
        raise OracleError(f"resolution must be at least {MIN_RESOLUTION}")

    best_f = np.inf
    best_x: np.ndarray | None = None
    for block in grid_blocks(p.box, res):
        feas = block[np.all(evaluate_constraints(p, block) >= 0.0, axis=1)]
        if feas.shape[0] == 0:
            continue
        fvals = expr.scan_values([p.objective], feas)[:, 0]
        fvals[~np.isfinite(fvals)] = np.inf  # where f overflows, a point is no candidate
        i = int(np.argmin(fvals))
        f_i, x_i = float(fvals[i]), feas[i]
        if f_i < best_f:  # blocks come in row-major order, so a tie keeps the earlier point
            best_f, best_x = f_i, x_i.copy()
    if best_x is None:
        raise OracleError(f"no feasible grid point at resolution {res}")

    polished = polish_steps > 0
    if polished:
        best_x, best_f = _polish(p, best_x, best_f, polish_steps)
    return OracleResult(
        x_best=best_x,
        f_best=float(best_f),
        grid_resolution=res,
        polished=polished,
    )


def gradient_check(e: Expr, x, step: float = 1e-6) -> float:
    """Worst relative disagreement between dual gradient and central FD.

    Relative error uses max(|dual|, |fd|, 1) per coordinate.  Evaluation
    errors at stencil points (for example ln off its domain) propagate.
    """
    xs = np.array([float(v) for v in x])
    grad = expr.evaluate_dual(e, xs, 1).grad
    worst = 0.0
    for i in range(e.nvars):
        hplus = xs.copy()
        hminus = xs.copy()
        hplus[i] += step
        hminus[i] -= step
        fd = (expr.evaluate(e, hplus) - expr.evaluate(e, hminus)) / (2.0 * step)
        denom = max(abs(float(grad[i])), abs(fd), 1.0)
        worst = max(worst, abs(float(grad[i]) - fd) / denom)
    return worst
