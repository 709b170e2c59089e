"""Problem container: objective, inequality constraints g_j(x) >= 0, box.

The box is a sampling window for grids and probes, not part of the feasible
set; problems that want bound constraints state them as g_j entries.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import expr
from .expr import Expr

# 128 KiB per coordinate column: at 1 << 16 points each evaluation cost hundreds
# of page faults, as glibc returned the walker's temporaries to the system
GRID_BLOCK_POINTS = 1 << 14


class ProblemError(Exception):
    pass


class Feasibility(str, Enum):
    STRICTLY_FEASIBLE = "strictly_feasible"
    BOUNDARY = "boundary"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True, slots=True)
class ActiveSet:
    """Indices (1-based) of constraints at or below an activation tolerance."""

    indices: frozenset[int]
    tolerance: float

    @staticmethod
    def of(gvals: np.ndarray, tolerance: float) -> "ActiveSet":
        """The constraints whose values g_j are at or below the tolerance."""
        indices = frozenset(int(j) + 1 for j in np.nonzero(gvals <= tolerance)[0])
        return ActiveSet(indices, tolerance)

    def as_sorted(self) -> list[int]:
        return sorted(self.indices)

    def __contains__(self, j: int) -> bool:
        return j in self.indices


@dataclass(frozen=True)
class Problem:
    name: str
    nvars: int
    objective: Expr
    constraints: tuple[Expr, ...]
    box: np.ndarray  # shape (nvars, 2), columns lo, hi
    interior_point: np.ndarray | None = None
    source: dict = field(default_factory=dict, repr=False)

    @property
    def nconstraints(self) -> int:
        return len(self.constraints)


def grid_blocks(box: np.ndarray, res: int):
    """Yield the res-per-axis grid over the box in row-major order, in blocks.

    Each block is a (k, n) array of at most GRID_BLOCK_POINTS points; a
    consumer that keeps a point copies it, so that the block can be freed.
    """
    axes = [np.linspace(lo, hi, res) for lo, hi in box]
    n = len(axes)
    total = res**n
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


def evaluate_constraints(p: Problem, x, constraints=None) -> np.ndarray:
    """The g_j at one point, shape (m,), or over an (N, nvars) batch, shape (N, m).

    constraints defaults to all of p's.  At one point an overflow raises
    EvalError.  Over a batch, a point where some g_j overflows gets -inf
    for every g_j: the barrier cannot be evaluated there, so a scan counts
    it as infeasible instead of stopping.
    """
    constraints = p.constraints if constraints is None else constraints
    if np.ndim(x) == 1:
        return np.array([j.value for j in expr.jets(constraints, x, 0)])
    values = expr.scan_values(constraints, x)
    values[~np.isfinite(values).all(axis=1)] = -np.inf
    return values


def feasibility(p: Problem, x, boundary_tol: float = 0.0) -> Feasibility:
    """Classify a point against the constraints (the box is ignored).

    Strictly feasible means every g_j > boundary_tol; boundary means no g_j
    is negative below -boundary_tol but some g_j is within the tolerance.
    """
    gvals = evaluate_constraints(p, x)
    if np.any(gvals < -boundary_tol):
        return Feasibility.INFEASIBLE
    if np.all(gvals > boundary_tol):
        return Feasibility.STRICTLY_FEASIBLE
    return Feasibility.BOUNDARY


def active_set(p: Problem, x, tolerance: float) -> ActiveSet:
    return ActiveSet.of(evaluate_constraints(p, x), tolerance)


_PARAM_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def _format_param(value) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemError(f"parameter value must be a number, got {value!r}")
    if isinstance(value, int):
        return repr(value)
    return repr(float(value))


def _substitute_params(text: str, params: dict) -> str:
    for name, value in params.items():
        text = re.sub(rf"\b{re.escape(name)}\b", _format_param(value), text)
    return text


def problem_from_dict(data: dict) -> Problem:
    """Build a Problem from its dict form.

    Required keys: name, nvars, objective, constraints, box.  Optional:
    interior_point (must be strictly feasible and strictly inside the box)
    and params, a mapping of names substituted textually into expression
    strings before parsing.
    """
    if not isinstance(data, dict):
        raise ProblemError("problem data must be a JSON object")
    for key in ("name", "nvars", "objective", "constraints", "box"):
        if key not in data:
            raise ProblemError(f"missing required key {key!r}")

    name = data["name"]
    if not isinstance(name, str) or not name:
        raise ProblemError("name must be a nonempty string")
    nvars = data["nvars"]
    if not isinstance(nvars, int) or isinstance(nvars, bool) or nvars < 1:
        raise ProblemError("nvars must be a positive integer")

    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProblemError("params must be an object")
    for pname in params:
        if not _PARAM_NAME_RE.match(pname):
            raise ProblemError(f"invalid parameter name {pname!r}")
        if pname in ("ln", "exp") or re.match(r"^x\d+$", pname):
            raise ProblemError(f"parameter name {pname!r} collides with the expression language")

    def parse_one(text, label):
        if not isinstance(text, str):
            raise ProblemError(f"{label} must be a string")
        try:
            return expr.parse(_substitute_params(text, params), nvars)
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
        lo, hi = float(pair[0]), float(pair[1])
        if not lo < hi:
            raise ProblemError(f"box entry {i + 1} must have lo < hi")
        box[i] = (lo, hi)

    interior = None
    if data.get("interior_point") is not None:
        raw_pt = data["interior_point"]
        if not isinstance(raw_pt, list) or len(raw_pt) != nvars:
            raise ProblemError(f"interior_point must list {nvars} coordinates")
        interior = np.array([float(v) for v in raw_pt])

    p = Problem(
        name=name,
        nvars=nvars,
        objective=objective,
        constraints=constraints,
        box=box,
        interior_point=interior,
        source=data,
    )

    if interior is not None:
        if np.any(interior <= box[:, 0]) or np.any(interior >= box[:, 1]):
            raise ProblemError("interior_point must lie strictly inside the box")
        try:
            status = feasibility(p, interior)
        except expr.EvalError as err:
            raise ProblemError(f"cannot evaluate the constraints at interior_point: {err}") from err
        if status is not Feasibility.STRICTLY_FEASIBLE:
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
