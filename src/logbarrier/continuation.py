"""Continuation along a decreasing barrier weight schedule.

Each stage minimizes the barrier at the current mu, warm-starting from the
previous stage's solution, and is recorded as the path point inner returns.
As mu shrinks the iterates track the central path toward a KKT point; each
path point records the barrier's multiplier estimates mu / g_j.  The
certificate judges the final iterate alone, with its own active set and
multipliers.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .certificate import check_kkt
from .diagnostics import slater_find
from .inner import PathPoint, solve_inner
from .problem import Problem


# The longest schedule MuSchedule accepts, counted from logarithms before
# anything is built: weights() makes the whole list before the first stage,
# and a factor near 1 over a wide range would ask for 1e8 weights and more.
# The default schedule has 12 weights and --mu-factor 0.9 has 175.
MAX_WEIGHTS = 100_000


class MuSchedule:
    """Geometric weight schedule mu0 * factor^k, stopping at mu_min."""

    __slots__ = ("mu0", "factor", "mu_min")

    def __init__(self, mu0: float = 1.0, factor: float = 0.2, mu_min: float = 1e-8):
        if not 0.0 < mu_min <= mu0:
            raise ValueError("need 0 < mu_min <= mu0")
        if not math.isfinite(mu0):
            raise ValueError("need a finite mu0")
        if not 0.0 < factor < 1.0:
            raise ValueError("need 0 < factor < 1")
        count = math.floor((math.log(mu_min) - math.log(mu0)) / math.log(factor)) + 1
        if count > MAX_WEIGHTS:
            raise ValueError(f"schedule of about {count} weights; at most {MAX_WEIGHTS}")
        self.mu0, self.factor, self.mu_min = mu0, factor, mu_min

    def weights(self) -> list[float]:
        out = [self.mu0]
        while out[-1] * self.factor >= self.mu_min:
            out.append(out[-1] * self.factor)
        return out


# points: a PathPoint per stage; final_certificate: a KKTCertificate
SolveTrace = namedtuple("SolveTrace", "points final_certificate")


def solve(p: Problem, schedule: MuSchedule | None = None, x0=None) -> SolveTrace:
    """Run the full continuation and certify the final iterate.

    The start is x0, else the problem's interior point, else a grid search
    for a strictly feasible point; the first stage's barrier evaluation
    raises InfeasiblePointError when the start is not strictly interior,
    and EvalError where f or some g_j is undefined at it.  Each stage is one
    solve_inner call, which owns the stopping rule and returns the stage's
    path point (a late stage usually ends NO_PROGRESS at phi's float floor);
    the next starts at its x.  No stage aborts the run: check_kkt alone
    judges the final iterate, and the last stage's mu / g_j do not enter it.
    """
    if schedule is None:
        schedule = MuSchedule()
    x = x0
    if x is None:
        x = p.interior_point if p.interior_point is not None else slater_find(p).point
    points: list[PathPoint] = []
    for mu in schedule.weights():
        points.append(solve_inner(p, mu, x))
        x = points[-1].x
    return SolveTrace(points=points, final_certificate=check_kkt(p, x))
