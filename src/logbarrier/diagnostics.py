"""Numerical checks of the paper's hypotheses for the barrier path.

A strictly feasible point and nonvanishing gradients on the active
boundary make the barrier path reach a KKT point; the certificate checks
the global claim's own premise, finite multipliers, at its point.  Here
slater_find scans a grid over the box for the deepest strictly feasible
point, boundary_sample walks seeded rays from that point to the boundary,
nondegeneracy_probe inspects the active gradients and
tangential_curvature_probe the boundary curvature along tangent
directions at the sampled points, levelset_convexity_probe hunts for
midpoint convexity counterexamples of superlevel sets, and
phi_convexity_probe samples the barrier Hessian.  Sampling is seeded and
deterministic for a given seed.  The three convexity probes each state a
verdict: "counterexample" where the sample shows nonconvexity, else
"convex_up_to_sampling", or, for a level set no pair was drawn from or a
boundary with no point whose curvature could be measured, "empty_region".

All probes sample within the problem's box window; expressions must be
evaluable there (corpus problems are).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import expr, problem
from .barrier import barrier_hessian
from .problem import Problem, evaluate_constraints, grid_blocks, sample_box, walk_rays

SLATER_GRID_RES = 101
BOUNDARY_RAYS = 256
NONDEGENERACY_DELTA = 1e-6  # the least active gradient norm that passes
LEVELSET_PAIRS = 10000
PHI_SAMPLES = 1000
GRID_FALLBACK_RES = 201
GRID_FALLBACK_CAP = 512
MIDPOINT_GUARD = 1e-10
CURVATURE_PASS_TOL = 1e-6  # the largest tangential curvature that reads convex
PHI_CONVEX_PASS_TOL = -1e-8  # the least phi eigenvalue that reads convex


class DiagnosticsError(Exception):
    pass


class SlaterUnverifiedError(DiagnosticsError):
    """No strictly feasible point was found in the box window."""


# margin: min_j g_j at the point, always > 0
# passed: a point was found; the search raises otherwise
SlaterReport = namedtuple("SlaterReport", "point margin grid_resolution passed", defaults=(True,))

# points: (M, n) boundary points, M <= rays; residuals: (M,) min_j g_j at each
# point, >= 0; active: per constraint, the points where it is the least g_j
BoundarySample = namedtuple("BoundarySample", "rays points residuals active")

# constraint: 1-based; min_gradient_norm and passed: None when the
# constraint was never active
NondegeneracyEntry = namedtuple("NondegeneracyEntry", "constraint samples min_gradient_norm passed")

# max_boundary_residual: largest min_j g_j over the boundary points
# constraints: a NondegeneracyEntry each; passed: no constraint failed
NondegeneracyReport = namedtuple(
    "NondegeneracyReport",
    "delta rays boundary_points max_boundary_residual constraints passed",
)

# g_x: every constraint's value at x, and g_y, g_mid at y and the midpoint
# violated: 1-based constraint indices failing at the midpoint
LevelsetWitness = namedtuple("LevelsetWitness", "x y midpoint g_x g_y g_mid violated")

# level: the set probed is {x : g_j(x) >= level for every j}
# verdict: "counterexample", "convex_up_to_sampling", "empty_region"
# method: "rejection" or "grid"; witness: a LevelsetWitness or None
LevelsetReport = namedtuple("LevelsetReport", "level verdict pairs_checked method witness")

# witness: point attaining the minimum eigenvalue
# verdict: "counterexample" below PHI_CONVEX_PASS_TOL, else "convex_up_to_sampling"
PhiConvexityReport = namedtuple("PhiConvexityReport", "mu samples min_eigenvalue witness verdict")

# constraint: 1-based; unmeasured: active points where the Hessian could not
# be taken; max_tangential_curvature: None when no point was measured
CurvatureEntry = namedtuple(
    "CurvatureEntry", "constraint samples unmeasured max_tangential_curvature"
)

# vacuous: one variable only, no tangent directions exist
# constraints: a CurvatureEntry each
# verdict: "counterexample" above CURVATURE_PASS_TOL, "empty_region" where no
# active point was measured, else "convex_up_to_sampling"
CurvatureReport = namedtuple("CurvatureReport", "boundary_points vacuous constraints verdict")


def slater_find(p: Problem) -> SlaterReport:
    """Scan a grid over the box for the strictly feasible point of largest margin.

    A grid scan with SLATER_GRID_RES points per axis picks the point with
    the largest min_j g_j; ties go to the first point in row-major order.
    Returns that point's SlaterReport, whose margin is > 0, or raises
    SlaterUnverifiedError when no grid point has positive margin.
    """
    x, best_margin = None, -math.inf
    for block in grid_blocks(p.box, SLATER_GRID_RES):
        margins = evaluate_constraints(p, block).min(axis=1)
        best = int(np.argmax(margins))
        if x is None or margins[best] > best_margin:
            x, best_margin = block[best].copy(), float(margins[best])
    if best_margin <= 0.0:
        raise SlaterUnverifiedError(
            f"no strictly feasible point on a {SLATER_GRID_RES}^({p.nvars}) grid "
            f"(best margin {best_margin + 0.0:.3e})"  # + 0.0 turns -0.0 into 0.0
        )
    return SlaterReport(x, best_margin, SLATER_GRID_RES)


def boundary_sample(p: Problem, x0: np.ndarray, seed: int = 42) -> BoundarySample:
    """Walk BOUNDARY_RAYS seeded random rays from a strict interior point x0 to the boundary.

    The walk on min_j g_j >= 0 pins each ray's crossing down to a residual
    around machine scale, and its inside end is the boundary point.  A ray
    still feasible where it leaves the box ends there, and is kept only
    where its residual is at most 1e-12, so that its exit lies on the
    boundary.  There a constraint is active where it is the least g_j: the
    one the ray crossed, whatever the scale of each g_j.  The points are
    kept per active constraint; each probe that reads the sample takes the
    derivatives it needs there.
    """
    directions = _random_directions(np.random.default_rng(seed), BOUNDARY_RAYS, p.nvars)
    t_in, t_exit = walk_rays(p, x0, directions, 0.0)
    points = x0 + t_in[:, None] * directions
    g = evaluate_constraints(p, points)
    residuals = g.min(axis=1)
    keep = (t_exit > 0) & ((t_in < t_exit) | (residuals <= 1e-12))
    points, g, residuals = points[keep], g[keep], residuals[keep]
    active = [points[g[:, j] == residuals] for j in range(len(p.constraints))]
    return BoundarySample(BOUNDARY_RAYS, points, residuals, active)


def _random_directions(rng: np.random.Generator, rays: int, n: int) -> np.ndarray:
    d = rng.standard_normal((rays, n))
    norms = np.linalg.norm(d, axis=1)
    norms[norms < 1e-12] = 1.0
    d /= norms[:, None]
    return d


def _active_jet(g: expr.Expr, j: int, pts: np.ndarray, order: int) -> expr.Jet:
    """The jet of constraint j + 1 at its active points; EvalError where a gradient
    entry is not finite, since no norm or tangent space could be measured there."""
    jet = expr.evaluate_dual(g, pts, order)
    if not np.isfinite(jet.grad).all():
        raise expr.EvalError(f"the gradient of constraint {j + 1} overflows on the boundary")
    return jet


def _active_hessians(g: expr.Expr, j: int, pts: np.ndarray) -> expr.Jet:
    """The order-2 jet of constraint j + 1 at its active points, NaN in the Hessian
    of a point where it cannot be taken.  One batched walk serves unless it fails;
    then the gradients are taken in one walk and the Hessians one point at a time."""
    try:
        return _active_jet(g, j, pts, 2)
    except expr.EvalError:
        jet = _active_jet(g, j, pts, 1)  # a gradient that overflows still raises
    hess = np.full((pts.shape[0], pts.shape[1], pts.shape[1]), np.nan)
    for k, pt in enumerate(pts):
        try:
            hess[k] = expr.evaluate_dual(g, pt, 2).hess
        except expr.EvalError:
            pass  # its row stays NaN: the point is unmeasured
    return jet._replace(hess=hess)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Row norms; a finite row whose plain norm overflows is scaled by its largest entry first."""
    with np.errstate(over="ignore"):  # a norm above the float range stays inf
        norms = np.linalg.norm(v, axis=1)
        big = np.isinf(norms)
        if big.any():
            scale = np.abs(v[big]).max(axis=1, keepdims=True)
            norms[big] = scale[:, 0] * np.linalg.norm(v[big] / scale, axis=1)
    return norms


def nondegeneracy_probe(p: Problem, sample: BoundarySample) -> NondegeneracyReport:
    """Check that active constraint gradients stay away from zero.

    A constraint passes when its gradient norm is at least
    NONDEGENERACY_DELTA at every sampled point where it is active;
    constraints never seen active report None.  Only gradients are taken,
    so a Hessian that is undefined on the boundary does not stop this
    check.  A gradient entry that overflows raises EvalError.
    """
    entries = []
    for j, (g, pts) in enumerate(zip(p.constraints, sample.active)):
        jet = _active_jet(g, j, pts, 1)
        count = jet.value.shape[0]
        low = float(_row_norms(jet.grad).min()) if count else None
        entries.append(
            NondegeneracyEntry(
                constraint=j + 1,
                samples=count,
                min_gradient_norm=low,
                passed=None if low is None else bool(low >= NONDEGENERACY_DELTA),
            )
        )
    return NondegeneracyReport(
        delta=NONDEGENERACY_DELTA,
        rays=sample.rays,
        boundary_points=int(sample.points.shape[0]),
        max_boundary_residual=float(sample.residuals.max()) if sample.residuals.size else 0.0,
        constraints=entries,
        passed=all(e.passed is not False for e in entries),
    )


def _members(p: Problem, level: float, pts: np.ndarray) -> np.ndarray:
    return np.all(evaluate_constraints(p, pts) >= level, axis=1)


def _push_alternate(p: Problem, level: float, rows: np.ndarray, start: int, rng) -> None:
    """Push both ends of every other pair of rows, the pairs from start on, in place.

    Each walks outward along a random direction to the last point that
    still belongs to the set (bisection, membership checked exactly).
    Drawn block by block, the directions are the same stream as in one draw.
    """
    near = (np.arange(2 * start, 2 * start + rows.shape[0]) // 2) % 2 == 1
    dirs = _random_directions(rng, rows.shape[0], p.nvars)[near]
    pts = rows[near]
    t_in, _ = walk_rays(p, pts, dirs, level, 40)
    rows[near] = pts + t_in[:, None] * dirs


def _rejection_pairs(p: Problem, level: float, rows: np.ndarray, rng):
    """Yield consecutive rows as pairs (xs, ys) in the fewest equal blocks of at most
    GRID_BLOCK_POINTS rows; every other pair is pushed to the boundary."""
    npairs = rows.shape[0] // 2
    nblocks = -(-npairs // max(1, problem.GRID_BLOCK_POINTS // 2))
    size = -(-npairs // nblocks)
    for start in range(0, npairs, size):
        block = rows[2 * start : 2 * min(start + size, npairs)]
        # a function, so that its arrays are freed before the next block is drawn
        _push_alternate(p, level, block, start, rng)
        yield block[0::2], block[1::2]


def _grid_pairs(p: Problem, level: float):
    """Yield the pairs among the first GRID_FALLBACK_CAP members of the GRID_FALLBACK_RES
    grid, row-major, in np.triu_indices order: each member against every later one."""
    chosen, k = [], 0
    for block in grid_blocks(p.box, GRID_FALLBACK_RES):
        chosen.append(block[_members(p, level, block)][: GRID_FALLBACK_CAP - k])
        k += chosen[-1].shape[0]
        if k == GRID_FALLBACK_CAP:
            break
    sel = np.concatenate(chosen)
    for i in range(k - 1):
        yield np.broadcast_to(sel[i], sel[i + 1 :].shape), sel[i + 1 :]


def levelset_convexity_probe(p: Problem, level: float, seed: int = 42) -> LevelsetReport:
    """Hunt for a midpoint convexity counterexample of {x : g_j(x) >= level for all j}.

    LEVELSET_PAIRS pairs are drawn from the superlevel set by rejection
    sampling over the box.  Alternate pairs are pushed to the set's
    boundary along random directions (bisection, staying on the member
    side): shallow boundary dents produce midpoint violations only for
    chords with both ends near the boundary, which volume sampling almost
    never delivers.  A midpoint where some constraint value drops below the
    level by more than a small guard (1e-10, absorbing roundoff near the
    level) is a witness that the set is not convex.  When rejection
    sampling finds too few members (a thin or lower-dimensional set), a
    deterministic grid scan takes over.  No witness is only evidence of
    convexity, never proof; no pair at all reads empty_region.

    Sampled pairs are pushed and scanned in blocks of at most
    GRID_BLOCK_POINTS points, and the grid fallback's in one block per
    member, at most GRID_FALLBACK_CAP - 1 pairs, so memory stays bounded;
    the first witness ends the probe, and the block size changes no result.
    """
    rng = np.random.default_rng(seed)
    cap = max(100_000, 50 * LEVELSET_PAIRS)
    # the batch size fixes where the draws stop, and so the directions after them
    rows, _ = sample_box(
        rng, p.box, lambda pts: _members(p, level, pts), 2 * LEVELSET_PAIRS, batch=8192, cap=cap
    )
    if rows.shape[0] >= 2:
        method, pairs = "rejection", _rejection_pairs(p, level, rows, rng)
    else:
        # rejection found at most one member: the set is thin in the box
        method, pairs = "grid", _grid_pairs(p, level)
    checked = 0
    for xs, ys in pairs:
        mids = 0.5 * (xs + ys)
        gm = evaluate_constraints(p, mids)
        # a midpoint where some g_j overflows reads -inf throughout: its
        # value is unknown, so it is no witness
        below = (gm < level - MIDPOINT_GUARD) & np.isfinite(gm)
        flagged = np.nonzero(below.any(axis=1))[0]
        if flagged.size:
            i = int(flagged[0])
            witness = LevelsetWitness(
                x=xs[i].copy(),
                y=ys[i].copy(),
                midpoint=mids[i].copy(),
                g_x=evaluate_constraints(p, xs[i]),
                g_y=evaluate_constraints(p, ys[i]),
                g_mid=gm[i].copy(),
                violated=[int(j) + 1 for j in np.nonzero(below[i])[0]],
            )
            return LevelsetReport(float(level), "counterexample", checked + i + 1, method, witness)
        checked += xs.shape[0]
        del xs, ys, mids, gm, below, flagged  # freed before the next block is drawn
    verdict = "convex_up_to_sampling" if checked else "empty_region"
    return LevelsetReport(float(level), verdict, checked, method, None)


def phi_convexity_probe(p: Problem, mu: float, seed: int = 42) -> PhiConvexityReport:
    """Sample the barrier Hessian at PHI_SAMPLES strictly interior points in the box.

    Reports the smallest eigenvalue seen and where; a value below
    PHI_CONVEX_PASS_TOL exhibits nonconvexity of the barrier at this mu,
    and the verdict reads "counterexample".  Raises
    DiagnosticsError when rejection sampling finds no strictly feasible
    points, or when some sampled Hessian is not finite (its terms overflow
    at a huge mu).
    """
    rng = np.random.default_rng(seed)
    cap = max(100_000, 200 * PHI_SAMPLES)
    pts, drawn = sample_box(
        rng,
        p.box,
        lambda draw: np.all(evaluate_constraints(p, draw) > 0.0, axis=1),
        PHI_SAMPLES,
        batch=4096,
        cap=cap,
    )
    if pts.shape[0] == 0:
        raise DiagnosticsError(f"no strictly feasible samples in {drawn} draws over the box")

    hessians = barrier_hessian(p, pts, mu)
    bad = np.count_nonzero(~np.isfinite(hessians).all(axis=(1, 2)))
    if bad:
        raise DiagnosticsError(
            f"{bad} of {pts.shape[0]} sampled barrier Hessians are not finite at mu = {mu}"
        )
    lowest = np.linalg.eigvalsh(hessians)[:, 0]
    i = int(np.argmin(lowest))  # ties go to the first sample
    return PhiConvexityReport(
        mu=float(mu),
        samples=int(pts.shape[0]),
        min_eigenvalue=float(lowest[i]),
        witness=pts[i].copy(),
        verdict="convex_up_to_sampling" if lowest[i] >= PHI_CONVEX_PASS_TOL else "counterexample",
    )


def tangential_curvature_probe(p: Problem, sample: BoundarySample) -> CurvatureReport:
    """Largest curvature of active constraints along boundary tangents.

    At each sampled boundary point and active constraint the Hessian is
    restricted to the tangent space of that constraint (orthogonal
    complement of its gradient); for a convex feasible set described by
    g_j >= 0 the restriction should never be significantly positive: the
    verdict reads "counterexample" where some curvature exceeds
    CURVATURE_PASS_TOL.  With one variable there is no tangent space and
    the report is vacuous.  A point where the Hessian cannot be taken (its
    walk fails or an entry overflows) is skipped and counted as unmeasured;
    where no active point is measured, as where the walk found no boundary,
    the verdict reads "empty_region".  A gradient entry that overflows
    raises EvalError.
    """
    if p.nvars == 1:
        entries = [CurvatureEntry(j + 1, 0, 0, None) for j in range(len(p.constraints))]
        return CurvatureReport(0, True, entries, "convex_up_to_sampling")
    entries, measured_points = [], 0
    for j, (g, pts) in enumerate(zip(p.constraints, sample.active)):
        jet = _active_hessians(g, j, pts)
        norms = _row_norms(jet.grad)
        measured = np.isfinite(jet.hess).all(axis=(1, 2))
        measured_points += int(np.count_nonzero(measured))
        keep = measured & (norms >= 1e-12)  # a degenerate gradient has no tangent space
        units = jet.grad[keep] / norms[keep, None]
        _, _, vh = np.linalg.svd(units[:, None, :])
        basis = vh[:, 1:]
        restricted = basis @ jet.hess[keep] @ basis.transpose(0, 2, 1)
        tops = np.linalg.eigvalsh(restricted)[:, -1]
        top = float(tops.max()) if tops.size else None
        entries.append(CurvatureEntry(j + 1, tops.size, int(np.count_nonzero(~measured)), top))
    bent = any(e.max_tangential_curvature > CURVATURE_PASS_TOL for e in entries if e.samples)
    verdict = "counterexample" if bent else "convex_up_to_sampling"
    if not measured_points:
        verdict = "empty_region"
    return CurvatureReport(int(sample.points.shape[0]), False, entries, verdict)
