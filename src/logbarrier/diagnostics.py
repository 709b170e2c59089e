"""Numerical checks for the hypotheses the certificates lean on.

The global-optimality story needs a strictly feasible point, nonvanishing
gradients on the active boundary, and a convex feasible set.  None of these
are taken on faith: slater_find searches for an interior witness,
nondegeneracy_probe inspects gradients at sampled boundary points,
levelset_convexity_probe hunts for midpoint convexity counterexamples of
superlevel sets, phi_convexity_probe samples the barrier Hessian, and
tangential_curvature_probe measures boundary curvature along tangent
directions.  Probes are seeded and deterministic for a given seed.

All probes sample within the problem's box window; expressions must be
evaluable there (corpus problems are).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .barrier import barrier_hessian
from .problem import Problem, evaluate_constraints, grid_blocks

LSE_SHARPNESS = 100.0
ASCENT_STEPS = 50
BISECT_ITERS = 60
SLATER_GRID_RES = 101
GRID_FALLBACK_RES = 201
GRID_FALLBACK_CAP = 512
MIDPOINT_GUARD = 1e-10


class DiagnosticsError(Exception):
    pass


class SlaterUnverifiedError(DiagnosticsError):
    """No strictly feasible point was found in the box window."""


class NoFeasibleSamplesError(DiagnosticsError):
    """Rejection sampling produced no strictly feasible points."""


@dataclass(frozen=True)
class SlaterReport:
    point: np.ndarray
    margin: float  # min_j g_j at the point, always > 0
    grid_resolution: int

    def to_record(self) -> dict:
        return {
            "record": "slater",
            "point": [float(v) for v in self.point],
            "margin": self.margin,
            "grid_resolution": self.grid_resolution,
            "passed": True,
        }


@dataclass(frozen=True)
class NondegeneracyEntry:
    constraint: int  # 1-based
    samples: int
    min_gradient_norm: float | None  # None when the constraint was never active
    passed: bool | None


@dataclass(frozen=True)
class NondegeneracyReport:
    entries: list[NondegeneracyEntry]
    delta: float
    rays: int
    boundary_points: int
    max_boundary_residual: float  # worst |min_j g_j| over accepted boundary points

    @property
    def passed(self) -> bool:
        return all(e.passed is not False for e in self.entries)

    def to_record(self) -> dict:
        return {
            "record": "nondegeneracy",
            "delta": self.delta,
            "rays": self.rays,
            "boundary_points": self.boundary_points,
            "max_boundary_residual": self.max_boundary_residual,
            "constraints": [
                {
                    "constraint": e.constraint,
                    "samples": e.samples,
                    "min_gradient_norm": e.min_gradient_norm,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
            "passed": self.passed,
        }


@dataclass(frozen=True)
class LevelsetWitness:
    x: np.ndarray
    y: np.ndarray
    midpoint: np.ndarray
    g_x: np.ndarray  # constraint values over the probed scope, at x
    g_y: np.ndarray
    g_mid: np.ndarray
    violated: list[int]  # 1-based constraint indices failing at the midpoint


@dataclass(frozen=True)
class LevelsetReport:
    scope: list[int]  # 1-based constraint indices probed
    levels: np.ndarray
    verdict: str  # "counterexample", "convex_up_to_sampling", "empty_region"
    witness: LevelsetWitness | None
    pairs_checked: int
    method: str  # "rejection" or "grid"

    def to_record(self) -> dict:
        rec = {
            "record": "levelset_convexity",
            "scope": self.scope,
            "levels": [float(v) for v in self.levels],
            "verdict": self.verdict,
            "pairs_checked": self.pairs_checked,
            "method": self.method,
        }
        if self.witness is not None:
            rec["witness"] = {
                "x": [float(v) for v in self.witness.x],
                "y": [float(v) for v in self.witness.y],
                "midpoint": [float(v) for v in self.witness.midpoint],
                "g_x": [float(v) for v in self.witness.g_x],
                "g_y": [float(v) for v in self.witness.g_y],
                "g_mid": [float(v) for v in self.witness.g_mid],
                "violated": self.witness.violated,
            }
        return rec


@dataclass(frozen=True)
class PhiConvexityReport:
    mu: float
    samples: int
    min_eigenvalue: float
    witness: np.ndarray  # point attaining the minimum eigenvalue

    def to_record(self) -> dict:
        return {
            "record": "phi_convexity",
            "mu": self.mu,
            "samples": self.samples,
            "min_eigenvalue": self.min_eigenvalue,
            "witness": [float(v) for v in self.witness],
        }


@dataclass(frozen=True)
class CurvatureEntry:
    constraint: int  # 1-based
    samples: int
    max_tangential_curvature: float | None


@dataclass(frozen=True)
class CurvatureReport:
    entries: list[CurvatureEntry]
    boundary_points: int
    vacuous: bool  # one variable only, no tangent directions exist

    def to_record(self) -> dict:
        return {
            "record": "tangential_curvature",
            "boundary_points": self.boundary_points,
            "vacuous": self.vacuous,
            "constraints": [
                {
                    "constraint": e.constraint,
                    "samples": e.samples,
                    "max_tangential_curvature": e.max_tangential_curvature,
                }
                for e in self.entries
            ],
        }


def _in_box(box: np.ndarray, x: np.ndarray) -> bool:
    return bool(np.all(x >= box[:, 0]) and np.all(x <= box[:, 1]))


def slater_find(p: Problem, grid_res: int = SLATER_GRID_RES) -> tuple[np.ndarray, float]:
    """Search the box for a strictly feasible point with maximal margin.

    A grid scan picks the point with the largest min_j g_j (ties go to the
    first point in row-major order); steepest-ascent steps on a smooth-min
    surrogate (log-sum-exp, sharpness 100) then push the margin up.
    Returns (point, margin) with margin > 0, or raises
    SlaterUnverifiedError when no grid point has positive margin.
    """
    if grid_res < 2:
        raise ValueError("grid_res must be at least 2")
    x, best_margin = None, -math.inf
    for block in grid_blocks(p.box, grid_res):
        margins = evaluate_constraints(p, block).min(axis=1)
        best = int(np.argmax(margins))
        if x is None or margins[best] > best_margin:
            x, best_margin = block[best].copy(), float(margins[best])
    if best_margin <= 0.0:
        raise SlaterUnverifiedError(
            f"no strictly feasible point on a {grid_res}^({p.nvars}) grid "
            f"(best margin {best_margin:.3e})"
        )
    best_x = x.copy()

    beta = LSE_SHARPNESS

    def surrogate(pt: np.ndarray) -> float:
        g = evaluate_constraints(p, pt)
        m = g.min()
        return float(m - math.log(np.sum(np.exp(-beta * (g - m)))) / beta)

    s_val = surrogate(x)
    for _ in range(ASCENT_STEPS):
        jets = expr.jets(p.constraints, x, 1)
        g = np.array([j.value for j in jets])
        m = g.min()
        w = np.exp(-beta * (g - m))
        w /= w.sum()
        direction = np.stack([j.grad for j in jets]).T @ w
        slope = float(direction @ direction)
        if slope < 1e-24:
            break
        t = 1.0
        accepted = False
        for _ in range(40):
            cand = x + t * direction
            if _in_box(p.box, cand):
                s_cand = surrogate(cand)
                if s_cand >= s_val + 1e-4 * t * slope:
                    x, s_val = cand, s_cand
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            break
        margin = float(evaluate_constraints(p, x).min())
        if margin > best_margin:
            best_x, best_margin = x.copy(), margin
    return best_x, best_margin


def _boundary_batch(p: Problem, x0: np.ndarray, directions: np.ndarray):
    """Walk rays from a strict interior point to the feasible-set boundary.

    Rays that leave the box while still strictly feasible are dropped.  For
    the rest, bisection pins the crossing of min_j g_j down to a residual
    around machine scale.  Returns (points, gvals, residuals) arrays.
    """
    lo_b, hi_b = p.box[:, 0], p.box[:, 1]
    nrays = directions.shape[0]
    t_exit = np.full(nrays, np.inf)
    for i in range(p.nvars):
        d = directions[:, i]
        pos = d > 0
        neg = d < 0
        with np.errstate(divide="ignore"):
            t_exit[pos] = np.minimum(t_exit[pos], (hi_b[i] - x0[i]) / d[pos])
            t_exit[neg] = np.minimum(t_exit[neg], (lo_b[i] - x0[i]) / d[neg])
    valid = np.isfinite(t_exit) & (t_exit > 0)

    def min_g_at(ts: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        return evaluate_constraints(p, x0[None, :] + ts[:, None] * dirs).min(axis=1)

    dirs = directions[valid]
    exits = t_exit[valid]
    if dirs.shape[0] == 0:
        empty = np.zeros((0, p.nvars))
        return empty, np.zeros((0, p.nconstraints)), np.zeros(0)
    crossing = min_g_at(exits, dirs) <= 1e-12
    dirs = dirs[crossing]
    exits = exits[crossing]
    if dirs.shape[0] == 0:
        empty = np.zeros((0, p.nvars))
        return empty, np.zeros((0, p.nconstraints)), np.zeros(0)

    lo = np.zeros(dirs.shape[0])
    hi = exits.copy()
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        interior = min_g_at(mid, dirs) > 0.0
        lo = np.where(interior, mid, lo)
        hi = np.where(interior, hi, mid)
    h_lo = np.abs(min_g_at(lo, dirs))
    h_hi = np.abs(min_g_at(hi, dirs))
    t_b = np.where(h_lo <= h_hi, lo, hi)
    points = x0[None, :] + t_b[:, None] * dirs
    residuals = np.minimum(h_lo, h_hi)
    return points, evaluate_constraints(p, points), residuals


def _random_directions(rng: np.random.Generator, rays: int, n: int) -> np.ndarray:
    d = rng.standard_normal((rays, n))
    norms = np.linalg.norm(d, axis=1)
    norms[norms < 1e-12] = 1.0
    return d / norms[:, None]


def nondegeneracy_probe(
    p: Problem,
    rays: int = 256,
    delta: float = 1e-6,
    seed: int = 42,
    activation_tol: float = 1e-6,
    x0: np.ndarray | None = None,
) -> NondegeneracyReport:
    """Check that active constraint gradients stay away from zero.

    Boundary points are located by bisection along random rays from a
    strictly feasible point (found via slater_find when x0 is not given).
    A constraint passes when every sampled gradient norm on its active
    boundary is at least delta; constraints never seen active report None.
    """
    if x0 is None:
        x0, _ = slater_find(p)
    rng = np.random.default_rng(seed)
    directions = _random_directions(rng, rays, p.nvars)
    points, gvals, residuals = _boundary_batch(p, x0, directions)

    entries = []
    for j, g in enumerate(p.constraints):
        active = points[gvals[:, j] <= activation_tol]
        low = None
        if active.shape[0]:
            low = float(np.linalg.norm(expr.evaluate_dual(g, active, 1).grad, axis=1).min())
        entries.append(
            NondegeneracyEntry(
                constraint=j + 1,
                samples=int(active.shape[0]),
                min_gradient_norm=low,
                passed=None if low is None else bool(low >= delta),
            )
        )
    return NondegeneracyReport(
        entries=entries,
        delta=delta,
        rays=rays,
        boundary_points=int(points.shape[0]),
        max_boundary_residual=float(residuals.max()) if residuals.size else 0.0,
    )


def _scope_levels(p: Problem, constraint, levels) -> tuple[list[int], np.ndarray]:
    if constraint == "all":
        scope = list(range(1, p.nconstraints + 1))
    else:
        j = int(constraint)
        if not 1 <= j <= p.nconstraints:
            raise ValueError(f"constraint index {j} out of range")
        scope = [j]
    a = np.asarray(levels, dtype=float)
    if a.ndim == 0:
        a = np.full(len(scope), float(a))
    if a.shape != (len(scope),):
        raise ValueError(f"expected {len(scope)} level(s), got shape {a.shape}")
    return scope, a


def levelset_convexity_probe(
    p: Problem,
    constraint="all",
    levels=0.0,
    pairs: int = 10000,
    seed: int = 42,
) -> LevelsetReport:
    """Hunt for a midpoint convexity counterexample of {x : g_j(x) >= a_j}.

    Pairs are drawn from the superlevel set by rejection sampling over the
    box.  Alternate pairs are pushed to the set's boundary along random
    directions (bisection, staying on the member side): shallow boundary
    dents produce midpoint violations only for chords with both ends near
    the boundary, which volume sampling almost never delivers.  A midpoint
    whose constraint value drops below its level by more than a small guard
    (1e-10, absorbing roundoff near the level) is a witness that the set is
    not convex.  When rejection sampling finds too few members (a thin or
    lower-dimensional set), a deterministic grid scan takes over.  No
    witness is only evidence of convexity, never proof.
    """
    if pairs < 1:
        raise ValueError("pairs must be positive")
    scope, a = _scope_levels(p, constraint, levels)
    cols = [p.constraints[j - 1] for j in scope]

    def scan_pairs(xs: np.ndarray, ys: np.ndarray, method: str) -> LevelsetReport | None:
        mids = 0.5 * (xs + ys)
        gm = evaluate_constraints(p, mids, cols)
        # a midpoint where some g_j overflows reads -inf throughout: its
        # value is unknown, so it is no witness
        below = (gm < a[None, :] - MIDPOINT_GUARD) & np.isfinite(gm)
        flagged = np.nonzero(below.any(axis=1))[0]
        if flagged.size:
            idx = int(flagged[0])
            witness = LevelsetWitness(
                x=xs[idx].copy(),
                y=ys[idx].copy(),
                midpoint=mids[idx].copy(),
                g_x=evaluate_constraints(p, xs[idx], cols),
                g_y=evaluate_constraints(p, ys[idx], cols),
                g_mid=gm[idx].copy(),
                violated=[scope[k] for k in np.nonzero(below[idx])[0]],
            )
            return LevelsetReport(
                scope=scope,
                levels=a,
                verdict="counterexample",
                witness=witness,
                pairs_checked=int(idx) + 1,
                method=method,
            )
        return None

    def members_mask(pts: np.ndarray) -> np.ndarray:
        return np.all(evaluate_constraints(p, pts, cols) >= a[None, :], axis=1)

    def push_to_boundary(pts: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        # walk each member outward along its direction, keeping the last
        # point that still belongs to the set (membership checked exactly)
        lo_b, hi_b = p.box[:, 0], p.box[:, 1]
        t_exit = np.full(pts.shape[0], np.inf)
        for i in range(p.nvars):
            d = dirs[:, i]
            pos = d > 0
            neg = d < 0
            with np.errstate(divide="ignore"):
                t_exit[pos] = np.minimum(t_exit[pos], (hi_b[i] - pts[pos, i]) / d[pos])
                t_exit[neg] = np.minimum(t_exit[neg], (lo_b[i] - pts[neg, i]) / d[neg])
        t_exit = np.where(np.isfinite(t_exit) & (t_exit > 0), t_exit, 0.0)
        lo = np.zeros(pts.shape[0])
        hi = t_exit
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            inside = members_mask(pts + mid[:, None] * dirs)
            lo = np.where(inside, mid, lo)
            hi = np.where(inside, hi, mid)
        return pts + lo[:, None] * dirs

    rng = np.random.default_rng(seed)
    need = 2 * pairs
    accepted: list[np.ndarray] = []
    accepted_count = 0
    attempts = 0
    cap = max(100_000, 50 * pairs)
    batch = 8192
    while accepted_count < need and attempts < cap:
        sample = rng.uniform(p.box[:, 0], p.box[:, 1], size=(batch, p.nvars))
        attempts += batch
        picked = sample[members_mask(sample)]
        if picked.shape[0]:
            accepted.append(picked)
            accepted_count += picked.shape[0]

    if accepted_count >= 2:
        arr = np.concatenate(accepted)[:need]
        npairs = arr.shape[0] // 2
        arr = arr[: 2 * npairs]
        dirs = _random_directions(rng, arr.shape[0], p.nvars)
        near_boundary = (np.arange(arr.shape[0]) // 2) % 2 == 1
        if near_boundary.any():
            arr[near_boundary] = push_to_boundary(arr[near_boundary], dirs[near_boundary])
        xs, ys = arr[0 : 2 * npairs : 2], arr[1 : 2 * npairs : 2]
        report = scan_pairs(xs, ys, "rejection")
        if report is not None:
            return report
        return LevelsetReport(
            scope=scope,
            levels=a,
            verdict="convex_up_to_sampling",
            witness=None,
            pairs_checked=npairs,
            method="rejection",
        )

    # rejection found at most one member: the set is thin in the box, so
    # fall back to a deterministic grid scan of the pairs among its first
    # GRID_FALLBACK_CAP members in row-major order
    chosen, k = [], 0
    for block in grid_blocks(p.box, GRID_FALLBACK_RES):
        chosen.append(block[members_mask(block)][: GRID_FALLBACK_CAP - k])
        k += chosen[-1].shape[0]
        if k == GRID_FALLBACK_CAP:
            break
    sel = np.concatenate(chosen)
    if k < 2:
        return LevelsetReport(
            scope=scope,
            levels=a,
            verdict="empty_region",
            witness=None,
            pairs_checked=0,
            method="grid",
        )
    ii, jj = np.triu_indices(k, 1)
    report = scan_pairs(sel[ii], sel[jj], "grid")
    if report is not None:
        return report
    return LevelsetReport(
        scope=scope,
        levels=a,
        verdict="convex_up_to_sampling",
        witness=None,
        pairs_checked=int(ii.shape[0]),
        method="grid",
    )


def phi_convexity_probe(
    p: Problem,
    mu: float,
    samples: int = 1000,
    seed: int = 42,
) -> PhiConvexityReport:
    """Sample the barrier Hessian over the strict interior within the box.

    Reports the smallest eigenvalue seen and where; a clearly negative
    value exhibits nonconvexity of the barrier at this mu.  Raises
    NoFeasibleSamplesError when rejection sampling finds no strictly
    feasible points.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    rng = np.random.default_rng(seed)
    collected: list[np.ndarray] = []
    count = 0
    attempts = 0
    cap = max(100_000, 200 * samples)
    batch = 4096
    while count < samples and attempts < cap:
        draw = rng.uniform(p.box[:, 0], p.box[:, 1], size=(batch, p.nvars))
        attempts += batch
        strict = np.all(evaluate_constraints(p, draw) > 0.0, axis=1)
        picked = draw[strict]
        if picked.shape[0]:
            collected.append(picked)
            count += picked.shape[0]
    if count == 0:
        raise NoFeasibleSamplesError(
            f"no strictly feasible samples in {attempts} draws over the box"
        )
    pts = np.concatenate(collected)[:samples]

    lowest = np.linalg.eigvalsh(barrier_hessian(p, pts, mu))[:, 0]
    i = int(np.argmin(lowest))  # ties go to the first sample
    return PhiConvexityReport(
        mu=float(mu),
        samples=int(pts.shape[0]),
        min_eigenvalue=float(lowest[i]),
        witness=pts[i].copy(),
    )


def tangential_curvature_probe(
    p: Problem,
    boundary_samples: int = 256,
    seed: int = 42,
    activation_tol: float = 1e-6,
    x0: np.ndarray | None = None,
) -> CurvatureReport:
    """Largest curvature of active constraints along boundary tangents.

    At each sampled boundary point and active constraint the Hessian is
    restricted to the tangent space of that constraint (orthogonal
    complement of its gradient); for a convex feasible set described by
    g_j >= 0 the restriction should never be significantly positive.
    With one variable there is no tangent space and the report is vacuous.
    """
    if x0 is None:
        x0, _ = slater_find(p)
    if p.nvars == 1:
        entries = [CurvatureEntry(j + 1, 0, None) for j in range(p.nconstraints)]
        return CurvatureReport(entries=entries, boundary_points=0, vacuous=True)
    rng = np.random.default_rng(seed)
    directions = _random_directions(rng, boundary_samples, p.nvars)
    points, gvals, _ = _boundary_batch(p, x0, directions)

    entries = []
    for j, g in enumerate(p.constraints):
        active = points[gvals[:, j] <= activation_tol]
        jet = expr.evaluate_dual(g, active)
        norms = np.linalg.norm(jet.grad, axis=1)
        keep = norms >= 1e-12  # a degenerate gradient has no tangent space
        units = jet.grad[keep] / norms[keep, None]
        _, _, vh = np.linalg.svd(units[:, None, :])
        basis = vh[:, 1:]
        restricted = basis @ jet.hess[keep] @ basis.transpose(0, 2, 1)
        tops = np.linalg.eigvalsh(restricted)[:, -1]
        top = float(tops.max()) if tops.size else None
        entries.append(CurvatureEntry(j + 1, int(tops.size), top))
    return CurvatureReport(entries=entries, boundary_points=int(points.shape[0]), vacuous=False)
