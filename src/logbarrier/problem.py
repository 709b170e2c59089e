"""Problem container: objective, inequality constraints g_j(x) >= 0, box.

The box is a sampling window for grids and probes, not part of the feasible
set; problems that want bound constraints state them as g_j entries.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import namedtuple

import numpy as np

from . import expr

# 128 KiB per coordinate column: at 1 << 16 points each evaluation cost hundreds
# of page faults, as glibc returned the walker's temporaries to the system
GRID_BLOCK_POINTS = 1 << 14
MAX_RESOLUTION = 1 << 20  # points per axis, so that an axis takes at most 8 MiB
# points per grid: a scan of 1e8 points takes seconds, the 101^6 Slater grid hours
MAX_GRID_POINTS = 1 << 27
BISECT_ITERS = 60  # halvings of a ray's bracket, down to about machine precision


class ProblemError(Exception):
    pass


# A validated problem; problem_from_dict is the one place that builds it.
# objective is an Expr and constraints a tuple of Exprs; box has shape
# (nvars, 2), columns lo, hi; interior_point is an array or None.
Problem = namedtuple("Problem", "name nvars objective constraints box interior_point")


def grid_blocks(box: np.ndarray, res: int):
    """Yield the res-per-axis grid over the box in row-major order, in blocks.

    Each block is a (k, n) array of at most GRID_BLOCK_POINTS points; a
    consumer that keeps a point copies it, so that the block can be freed.
    Raises ProblemError, before any axis is allocated, for res above
    MAX_RESOLUTION or a grid of more than MAX_GRID_POINTS points.
    """
    if res > MAX_RESOLUTION:
        raise ProblemError(f"grid resolution must be at most {MAX_RESOLUTION}, got {res}")
    n = len(box)
    total = res**n
    if total > MAX_GRID_POINTS:
        raise ProblemError(
            f"a grid of {res}^{n} = {total} points exceeds the budget of {MAX_GRID_POINTS}"
        )
    axes = [np.linspace(lo, hi, res) for lo, hi in box]
    for start in range(0, total, GRID_BLOCK_POINTS):
        stop = min(start + GRID_BLOCK_POINTS, total)
        first = start // res
        rows = np.arange(first, (stop - 1) // res + 1)
        block = np.empty((rows.size * res, n))
        block[:, -1] = np.tile(axes[-1], rows.size)
        for k in range(n - 2, -1, -1):
            rows, i = np.divmod(rows, res)
            block[:, k] = np.repeat(axes[k][i], res)
        yield block[start - first * res : stop - first * res]


def box_exit(box: np.ndarray, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Length t at which each ray x + t * d leaves the box, +inf if it never does.

    dirs is (k, n); x is one start point, shape (n,), or one per ray, (k, n).
    A ray that starts on a face and points out of the box leaves at t = 0.
    """
    x = np.broadcast_to(x, dirs.shape)
    t_exit = np.full(dirs.shape[0], np.inf)
    for i, (lo, hi) in enumerate(box):
        d = dirs[:, i]
        pos, neg = d > 0, d < 0
        t_exit[pos] = np.minimum(t_exit[pos], (hi - x[pos, i]) / d[pos])
        t_exit[neg] = np.minimum(t_exit[neg], (lo - x[neg, i]) / d[neg])
    return t_exit


def walk_rays(
    p: Problem, x: np.ndarray, dirs: np.ndarray, level: float, iters: int = BISECT_ITERS
):
    """Bisect each ray x + t * d, t between 0 and its box exit, on min_j g_j >= level.

    dirs is (k, n); x is one start point, shape (n,), or one per ray, (k, n),
    and should lie in the set.  A ray that leaves the box at once, or never,
    gets the bracket [0, 0].  A point is inside where min_j g_j >= level
    holds there (a point where some g_j overflows is not).  A ray inside at
    its box exit ends there; every other ray's bracket is halved, keeping
    the midpoint as t_in where it is inside, else as the outer end, and the
    walk stops early once a halving would move no end, since no later one
    would.  Returns (t_in, t_exit): the last t seen inside, and the box
    exit each ray was bracketed by.
    """
    t_exit = box_exit(p.box, x, dirs)
    t_exit = np.where(np.isfinite(t_exit) & (t_exit > 0), t_exit, 0.0)
    inside = evaluate_constraints(p, x + t_exit[:, None] * dirs).min(axis=1) >= level
    t_in, t_out = np.where(inside, t_exit, 0.0), t_exit
    for _ in range(iters):
        mid = 0.5 * t_in + 0.5 * t_out  # halves first, so the sum stays in range
        ok = evaluate_constraints(p, x + mid[:, None] * dirs).min(axis=1) >= level
        if np.array_equal(mid, np.where(ok, t_in, t_out)):
            break
        t_in = np.where(ok, mid, t_in)
        t_out = np.where(ok, t_out, mid)
    return t_in, t_exit


def sample_box(rng: np.random.Generator, box: np.ndarray, keep, need: int, batch: int, cap: int):
    """Rejection-sample the box in uniform batches of `batch` points.

    keep maps a (batch, n) draw to a bool mask.  Draws stop once `need`
    points were kept or `cap` points drawn; both must be positive.  Returns
    the first `need` kept points in draw order, as a (k, n) array with
    k <= need, and the number of points drawn.
    """
    out = np.empty((need, box.shape[0]))  # filled in place: no second copy of the kept rows
    count, drawn = 0, 0
    while count < need and drawn < cap:
        draw = rng.uniform(box[:, 0], box[:, 1], size=(batch, box.shape[0]))
        drawn += batch
        rows = draw[keep(draw)][: need - count]
        out[count : count + rows.shape[0]] = rows
        count += rows.shape[0]
    return out[:count], drawn


def evaluate_constraints(p: Problem, x) -> np.ndarray:
    """The g_j at one point, shape (m,), or over an (N, nvars) batch, shape (N, m).

    At one point an overflow raises EvalError.  Over a batch, a point where
    some g_j overflows gets -inf for every g_j: the barrier cannot be
    evaluated there, so a scan counts it as infeasible instead of stopping.
    """
    if np.ndim(x) == 1:
        return expr.jets(p.constraints, x, 0).value
    values = expr.scan_values(p.constraints, x)
    values[~np.isfinite(values).all(axis=1)] = -np.inf
    return values


_KEYS = ("name", "nvars", "objective", "constraints", "box", "interior_point", "params")
_PARAM_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _finite(value, label: str) -> float:
    """value as a float; ProblemError unless it is a finite int or float (bools are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemError(f"{label} must be a number, got {value!r}")
    # exact for ints of any size, and false for nan
    if not abs(value) <= sys.float_info.max:
        raise ProblemError(f"{label} must be finite as a float, got {value!r}")
    return float(value)


def problem_from_dict(data: dict) -> Problem:
    """Build a Problem from its dict form.

    Required keys: name, nvars, objective, constraints, box.  Optional:
    interior_point (must be strictly feasible and strictly inside the box)
    and params, a mapping of names to numbers that the expressions may use:
    each name is bound as a constant, so with a = -1, a^2 is 1.  A param
    with an integer value may also serve as an exponent.  Box bounds,
    interior_point coordinates, param values and box widths hi - lo must
    be finite numbers; a string or a bool is none.  Any other key is
    refused, so a misspelled optional key is not silently dropped.
    """
    if not isinstance(data, dict):
        raise ProblemError("problem data must be a JSON object")
    for key in ("name", "nvars", "objective", "constraints", "box"):
        if key not in data:
            raise ProblemError(f"missing required key {key!r}")
    for key in data:
        if key not in _KEYS:
            raise ProblemError(f"unknown key {key!r} (known: {', '.join(_KEYS)})")

    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ProblemError("name must be a nonempty string")
    nvars = data["nvars"]
    if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 1:
        raise ProblemError("nvars must be a positive integer")

    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProblemError("params must be an object")
    for pname, value in params.items():
        if not _PARAM_NAME_RE.fullmatch(pname):
            raise ProblemError(f"invalid parameter name {pname!r}")
        if pname in ("ln", "exp") or re.fullmatch(r"x\d+", pname):
            raise ProblemError(f"parameter name {pname!r} collides with the expression language")
        _finite(value, "parameter value")

    def parse_one(text, label):
        if not isinstance(text, str):
            raise ProblemError(f"{label} must be a string")
        try:
            return expr.parse(text, nvars, params)
        except expr.ParseError as err:
            raise ProblemError(f"cannot parse {label}: {err}") from err

    objective = parse_one(data["objective"], "objective")
    raw_constraints = data["constraints"]
    if not isinstance(raw_constraints, list) or not raw_constraints:
        raise ProblemError("constraints must be a nonempty list of strings")
    constraints = tuple(
        parse_one(text, f"constraint {j + 1}") for j, text in enumerate(raw_constraints)
    )

    raw_box = data["box"]
    if not isinstance(raw_box, list) or len(raw_box) != nvars:
        raise ProblemError(f"box must list {nvars} [lo, hi] pairs")
    box = np.zeros((nvars, 2))
    for i, pair in enumerate(raw_box):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ProblemError(f"box entry {i + 1} must be a [lo, hi] pair")
        lo = _finite(pair[0], f"box entry {i + 1} lo")
        hi = _finite(pair[1], f"box entry {i + 1} hi")
        if not lo < hi:
            raise ProblemError(f"box entry {i + 1} must have lo < hi")
        if not math.isfinite(hi - lo):  # grids and samplers step by it
            raise ProblemError(f"box entry {i + 1} must have a finite width hi - lo")
        box[i] = (lo, hi)

    interior = None
    if data.get("interior_point") is not None:
        raw_pt = data["interior_point"]
        if not isinstance(raw_pt, list) or len(raw_pt) != nvars:
            raise ProblemError(f"interior_point must list {nvars} coordinates")
        interior = np.array(
            [_finite(v, f"interior_point coordinate {i + 1}") for i, v in enumerate(raw_pt)]
        )

    p = Problem(
        name=name,
        nvars=nvars,
        objective=objective,
        constraints=constraints,
        box=box,
        interior_point=interior,
    )

    if interior is not None:
        if np.any(interior <= box[:, 0]) or np.any(interior >= box[:, 1]):
            raise ProblemError("interior_point must lie strictly inside the box")
        try:
            strictly_feasible = np.all(evaluate_constraints(p, interior) > 0)
        except expr.EvalError as err:
            raise ProblemError(f"cannot evaluate the constraints at interior_point: {err}") from err
        if not strictly_feasible:
            raise ProblemError("interior_point must be strictly feasible")
    return p


def load(path) -> Problem:
    """Load a problem from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ProblemError(f"cannot read {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ProblemError(f"invalid JSON in {path}: {err}") from err
    return problem_from_dict(data)
