"""Built-in test problems.

Five two-variable instances: a Cassini-oval region whose defining function
is neither concave nor log-concave while the region itself is convex, a
hyperbola region with log-concave constraints, a box-with-ratio-constraint
instance whose barrier is provably nonconvex at interior points, a disk
control with a concave constraint, and the disk with its constraint cubed
so that boundary gradients vanish (a nondegeneracy failure control).

Objectives are linear where the point is isolating barrier curvature in
the constraint representation, quadratic on the disk controls.  Each
builtin is its problem file, data/<name>.json next to this module; this
module adds what the files do not carry: provenance and known optima.
"""

from __future__ import annotations

from collections import namedtuple
from pathlib import Path

from .problem import ProblemError, load

DATA_DIR = Path(__file__).parent / "data"


# x is a tuple of floats; a builtin's known_optimum is a KnownOptimum or None
KnownOptimum = namedtuple("KnownOptimum", "x f provenance")
CorpusEntry = namedtuple("CorpusEntry", "problem provenance known_optimum")


# the builtins, in the order names() lists them
_PROVENANCE = {
    "cassini": (
        "region bounded by a Cassini oval (squared-distance product to (-1,0) and (1,0) "
        "capped at 4); the region is convex although its defining function is not concave; "
        "linear objective chosen for testing"
    ),
    "hyperbola": (
        "region above the hyperbola x1*x2 = 1 in the positive quadrant, compactified with "
        "explicit bound constraints x_i <= 10; all constraints log-concave"
    ),
    "epsbox": (
        "unit box with a ratio constraint x1/(eps + x2^2) >= 0; with a linear objective and "
        "small eps the log-barrier is indefinite at interior points"
    ),
    "disk": "unit disk with concave constraint; nearest-point objective; convex control case",
    "degenerate-disk": (
        "unit disk with the constraint cubed: same feasible set as disk, but the constraint "
        "gradient vanishes on the boundary (nondegeneracy failure control)"
    ),
}

# 1/sqrt(2) and 3 - 2*sqrt(2), frozen to their float64 values
_DISK_XSTAR = (0.7071067811865476, 0.7071067811865476)
_DISK_FSTAR = 0.1715728752538097

_KNOWN: dict[str, KnownOptimum | None] = {
    "cassini": None,
    "hyperbola": KnownOptimum(
        x=(1.0, 1.0),
        f=2.0,
        provenance="analytic: symmetric tangency of x1 + x2 = c with x1*x2 = 1",
    ),
    "epsbox": KnownOptimum(
        x=(0.0, 1.0),
        f=-1.0,
        provenance="analytic: x1 - x2 minimized at the corner x1 = 0, x2 = b",
    ),
    "disk": KnownOptimum(
        x=_DISK_XSTAR,
        f=_DISK_FSTAR,
        provenance="analytic: nearest point of the unit disk to (1,1), f = 3 - 2*sqrt(2)",
    ),
    "degenerate-disk": KnownOptimum(
        x=_DISK_XSTAR,
        f=_DISK_FSTAR,
        provenance="same feasible set and objective as disk",
    ),
}


def names() -> list[str]:
    return list(_PROVENANCE)


def builtin(name: str) -> CorpusEntry:
    """Look up a built-in problem by name."""
    if name not in _PROVENANCE:
        known = ", ".join(names())
        raise ProblemError(f"unknown builtin problem {name!r} (choose from: {known})")
    return CorpusEntry(
        problem=load(DATA_DIR / f"{name}.json"),
        provenance=_PROVENANCE[name],
        known_optimum=_KNOWN[name],
    )

