"""A slow, independent reference answer.

grid_minimize brute-forces small problems on a dense grid, then polishes
the best feasible point by a search along rays from the grid's deepest
point c, the one of largest min_j g_j.  A point is written
x = c + s * R(u) * u with s in [0, 1], where R(u) is the distance from c
to the boundary along u: problem.walk_rays bisects on the sign of
min_j g_j, where a point at which some g_j overflows is infeasible as in
the grid scan, and a ray still feasible where it leaves the box gets the
box exit.  The polish needs no constraint gradient, so a boundary where
one vanishes does not stall it.  The oracle exists to catch the fast
paths lying, so it shares no machinery with the barrier code beyond
expression evaluation and the problem's helpers.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from . import expr, problem
from .problem import Problem, ProblemError, evaluate_constraints, grid_blocks, walk_rays

MAX_ORACLE_VARS = 3
DEFAULT_RESOLUTION = 2001  # points per axis, where problem.MAX_GRID_POINTS allows
MIN_RESOLUTION = 11
SEARCH_POINTS = 33  # candidates per round of a 1-D search
SEARCH_ROUNDS = 10  # each round narrows the interval 16-fold around the best point so far


class OracleError(Exception):
    """No grid point is feasible."""


OracleResult = namedtuple("OracleResult", "x_best f_best grid_resolution polished")


def _least(p: Problem, pts: np.ndarray, feasible: np.ndarray) -> tuple[int, float]:
    """(row, f) of the least finite f over the feasible rows of pts, the first on a
    tie; f is inf where no row is feasible or f overflows at each feasible one."""
    fv = np.full(pts.shape[0], np.inf)
    fv[feasible] = expr.scan_values([p.objective], pts[feasible])[:, 0]
    fv[~np.isfinite(fv)] = np.inf  # where f overflows, a point is no candidate
    i = int(np.argmin(fv))
    return i, float(fv[i])


def _polish(p: Problem, c: np.ndarray, x: np.ndarray, fx: float, sweeps: int):
    """Search x = c + s * R(u) * u from the feasible point x; returns the best (x, f).

    From x = c, u starts down grad f.  Each sweep searches s, then turns u
    by an angle toward grad f's part orthogonal to u and toward the rest of
    an orthonormal basis of u's complement.  Only a strict decrease of a
    finite f at a feasible point moves x, so a feasible set that is not
    convex cannot lead it outside.  Sweeps stop on a gain <= 1e-13 * (1 + |f|).
    """

    def search(points, a: float, h: float, lo: float, hi: float) -> float:
        nonlocal x, fx
        for _ in range(SEARCH_ROUNDS):
            ts = np.clip(np.linspace(a - h, a + h, SEARCH_POINTS), lo, hi)
            pts = points(ts)
            i, f_i = _least(p, pts, evaluate_constraints(p, pts).min(axis=1) >= 0.0)
            if f_i < fx:
                a, x, fx = ts[i], pts[i], f_i
            h /= 16.0
        return a

    def on_turned_rays(alphas: np.ndarray) -> np.ndarray:  # u turned toward v by each angle
        dirs = np.cos(alphas)[:, None] * u + np.sin(alphas)[:, None] * v
        return c + (s * walk_rays(p, c, dirs, 0.0)[0])[:, None] * dirs

    r = float(np.linalg.norm(x - c))
    d = x - c if r > 0.0 else -expr.jets([p.objective], x, 1).grad[0]  # at c, no turn moves x
    n = float(np.linalg.norm(d))
    u = d / n if 0.0 < n < np.inf else np.eye(p.nvars)[0]
    radius = walk_rays(p, c, u[None, :], 0.0)[0][0]
    s = r / radius if r > 0.0 else 0.0
    for _ in range(sweeps):
        f_start = fx
        s = search(lambda ts: c + (ts * radius)[:, None] * u, s, 1.0, 0.0, 1.0)
        complement = np.linalg.svd(u[None, :])[2][1:]
        grad = expr.jets([p.objective], x, 1).grad[0]
        # the first v lies along +-(grad f's part orthogonal to u): angle searches are symmetric
        for v in np.linalg.svd((complement @ grad)[None, :])[2] @ complement:
            alpha = search(on_turned_rays, 0.0, np.pi / 8, -np.inf, np.inf)
            u = np.cos(alpha) * u + np.sin(alpha) * v
        if f_start - fx <= 1e-13 * (1.0 + abs(fx)):
            break
        radius = walk_rays(p, c, u[None, :], 0.0)[0][0]
    return x, fx


def grid_minimize(p: Problem, res: int | None = None, polish_steps: int = 50) -> OracleResult:
    """Minimize by dense feasible grid search over the box, then polish.

    res None is DEFAULT_RESOLUTION, or the most the grid budget allows: 512 in 3-D.
    Deterministic: ties on the grid go to the lexicographically smallest
    point.  Grid points where f or some g_j overflows are left out.  The
    polish runs at most polish_steps sweeps, and only when some grid point
    has min_j g_j > 0.  Raises ProblemError for more than MAX_ORACLE_VARS
    variables or res below MIN_RESOLUTION (or, from grid_blocks, above
    problem.MAX_RESOLUTION), and OracleError when no grid point is feasible.
    """
    if p.nvars > MAX_ORACLE_VARS:
        raise ProblemError(f"oracle supports up to {MAX_ORACLE_VARS} variables, got {p.nvars}")
    if res is None:  # in integers: the float cube root of 2^27 is below 512
        fits = range(DEFAULT_RESOLUTION, 0, -1)
        res = next(r for r in fits if r**p.nvars <= problem.MAX_GRID_POINTS)
    if res < MIN_RESOLUTION:
        raise ProblemError(f"oracle resolution must be at least {MIN_RESOLUTION}")

    best_f = np.inf
    best_x: np.ndarray | None = None
    depth, centre = 0.0, None  # the first grid point of largest min_j g_j, if that is > 0
    for block in grid_blocks(p.box, res):
        gmin = evaluate_constraints(p, block).min(axis=1)
        k = int(np.argmax(gmin))
        if gmin[k] > depth:
            depth, centre = gmin[k], block[k].copy()
        i, f_i = _least(p, block, gmin >= 0.0)
        if f_i < best_f:  # blocks come in row-major order, so a tie keeps the earlier point
            best_f, best_x = f_i, block[i].copy()
    if best_x is None:
        raise OracleError(f"no feasible grid point at resolution {res}")

    polished = polish_steps > 0 and centre is not None
    if polished:
        best_x, best_f = _polish(p, centre, best_x, best_f, polish_steps)
    return OracleResult(best_x, float(best_f), res, polished)
