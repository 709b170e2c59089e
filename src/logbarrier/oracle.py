"""A slow, independent reference answer.

grid_minimize brute-forces small problems on a dense grid and polishes the
best feasible point with projected descent along the boundary.  It exists
to catch the fast paths lying, so it shares no machinery with the barrier
code beyond expression evaluation and the problem's helpers.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import expr
from .problem import Problem, ProblemError, bisect, evaluate_constraints, grid_blocks

MAX_ORACLE_VARS = 3
MIN_RESOLUTION = 11


class OracleError(Exception):
    """No grid point is feasible."""


class OracleResult(NamedTuple):
    x_best: np.ndarray
    f_best: float
    grid_resolution: int
    polished: bool


_ACTIVE_EPS = 1e-9
RESTORE_BISECT_ITERS = 60


def _feasible(p: Problem, pts: np.ndarray) -> np.ndarray:
    """Feasibility of each row of an (N, nvars) batch, by the grid scan's rule.

    A point where some g_j overflows is infeasible.
    """
    return evaluate_constraints(p, pts).min(axis=1) >= 0.0


def _restore(p: Problem, cand: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Pull an infeasible candidate back into the feasible set.

    Walks inward along the most violated constraint's gradient, expanding
    the step until feasible and bisecting back to the boundary.  The
    expand-then-bisect never misses the crossing even when the gradient
    nearly vanishes at the zero set (a plain Newton pullback would creep
    toward a multiple root from the wrong side forever).  When no usable
    gradient direction exists, or the worst g_j overflowed, falls back to
    bisecting the chord to the feasible anchor.
    """
    for _ in range(4):
        gvals = evaluate_constraints(p, cand[None, :])[0]
        worst = int(np.argmin(gvals))
        if gvals[worst] >= 0.0:
            return cand
        if gvals[worst] == -np.inf:
            break
        grad = expr.evaluate_dual(p.constraints[worst], cand, 1).grad
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-14:
            break
        u = grad / gnorm
        t = -gvals[worst] / gnorm
        feasible_t = None
        for _ in range(60):
            if _feasible(p, (cand + t * u)[None, :])[0]:
                feasible_t = t
                break
            t *= 2.0
        if feasible_t is None:
            break
        t_in, _ = bisect(
            lambda ts: _feasible(p, cand + ts[:, None] * u),
            np.array([feasible_t]),
            np.zeros(1),
            RESTORE_BISECT_ITERS,
        )
        cand = cand + t_in[0] * u
    if _feasible(p, cand[None, :])[0]:
        return cand
    chord = anchor - cand
    t_in, _ = bisect(
        lambda ts: _feasible(p, cand + ts[:, None] * chord),
        np.ones(1),
        np.zeros(1),
        RESTORE_BISECT_ITERS,
    )
    return cand + t_in[0] * chord


def _polish(p: Problem, x: np.ndarray, fx: float, steps: int) -> tuple[np.ndarray, float]:
    """Projected descent from a feasible point, never leaving the feasible set.

    The step direction is the negative objective gradient with the
    outward components of near-active constraint gradients projected out,
    so iterates can slide along a curved boundary instead of jamming
    against it.  Candidates that leave the feasible set are restored
    inward; only strict objective improvements are kept.  Candidates are
    judged as the grid scan judges its points: where some g_j overflows a
    point is infeasible, and where f overflows it is no improvement.
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
            if not _feasible(p, cand[None, :])[0]:
                cand = _restore(p, cand, x)
            fc = float(expr.scan_values([p.objective], cand[None, :])[0, 0])
            if fc < fx and np.isfinite(fc):
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
    point.  Grid points where f or some g_j overflows are left out.  Raises
    ProblemError for more than MAX_ORACLE_VARS variables or res below
    MIN_RESOLUTION, and OracleError when no grid point is feasible.
    """
    if p.nvars > MAX_ORACLE_VARS:
        raise ProblemError(f"oracle supports up to {MAX_ORACLE_VARS} variables, got {p.nvars}")
    if res < MIN_RESOLUTION:
        raise ProblemError(f"oracle resolution must be at least {MIN_RESOLUTION}")

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
