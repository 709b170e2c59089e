"""Grid oracle: exhaustive scan, boundary polish, derivative spot checks."""

import json
from pathlib import Path

import numpy as np
import pytest

from logbarrier import cli, expr, oracle, problem
from logbarrier.oracle import OracleError
from logbarrier.problem import ProblemError

DATA = Path(__file__).resolve().parents[1] / "src" / "logbarrier" / "data"
ROOT_HALF = float(np.sqrt(0.5))
DISK_FSTAR = 3.0 - 2.0 * np.sqrt(2.0)


def test_disk_minimum(problems):
    r = oracle.grid_minimize(problems["disk"], res=501)
    assert r.polished is True
    assert r.grid_resolution == 501
    assert abs(r.f_best - DISK_FSTAR) <= 1e-6
    assert np.abs(r.x_best - ROOT_HALF).max() <= 1e-4


def test_degenerate_disk_minimum(problems):
    # the cubed constraint's gradient vanishes on the boundary; the polish
    # bisects rays on the sign of g alone, so it still reaches the zero set
    r = oracle.grid_minimize(problems["degenerate-disk"], res=501)
    assert abs(r.f_best - DISK_FSTAR) <= 1e-6


@pytest.mark.parametrize(
    "constraint, a",
    [
        ("(1 - x1^2 - x2^2)^3", (0.9932238214022842, -0.9583625403973901)),
        ("1 - x1^2 - x2^2", (-1.3989543548579892, -1.426379409199535)),
    ],
)
def test_disk_targets_reach_the_nearest_boundary_point(constraint, a):
    # min |x - a|^2 over the unit disk is (|a| - 1)^2, attained at a / |a|
    p = problem.problem_from_dict(
        {
            "name": "disk-target",
            "nvars": 2,
            "objective": f"(x1 - {a[0]!r})^2 + (x2 - {a[1]!r})^2",
            "constraints": [constraint],
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
        }
    )
    r = oracle.grid_minimize(p, res=2001)
    assert abs(r.f_best - (np.hypot(*a) - 1.0) ** 2) <= 1e-9


@pytest.mark.parametrize("nvars, res", [(1, 2001), (2, 2001), (3, 512)])
def test_default_resolution_is_the_finest_the_grid_budget_allows(nvars, res):
    # 2001^3 points are over the budget of 2^27, and 512^3 = 2^27 is not
    names = [f"x{i + 1}" for i in range(nvars)]
    p = problem.problem_from_dict(
        {
            "name": f"ball{nvars}",
            "nvars": nvars,
            "objective": " + ".join(names),
            "constraints": ["1 - " + " - ".join(f"{v}^2" for v in names)],
            "box": [[-1.5, 1.5]] * nvars,
        }
    )
    r = oracle.grid_minimize(p)
    assert r.grid_resolution == res
    assert abs(r.f_best + np.sqrt(nvars)) <= 1e-9


@pytest.mark.parametrize(
    "objective, constraint, f_star",
    [
        # only the centre (0, 0) is feasible on the res-11 grid; f* is at (-0.1, 0)
        ("x1", "0.01 - x1^2 - x2^2", -0.1),
        # an interior minimum at (-0.05, 0.03), nearest to the centre among grid points
        ("(x1 + 0.05)^2 + (x2 - 0.03)^2", "1 - x1^2 - x2^2", 0.0),
    ],
)
def test_polish_leaves_a_best_grid_point_at_the_centre(objective, constraint, f_star):
    # from c itself no ray turns, so the polish must first head down grad f
    p = problem.problem_from_dict(
        {
            "name": "centre",
            "nvars": 2,
            "objective": objective,
            "constraints": [constraint],
            "box": [[-1, 1], [-1, 1]],
        }
    )
    r = oracle.grid_minimize(p, res=11)
    assert r.polished is True
    assert abs(r.f_best - f_star) <= 1e-12
    assert expr.evaluate(p.constraints[0], r.x_best) >= 0.0


def test_no_polish_without_a_strictly_feasible_grid_point():
    # the feasible set is the segment x2 = 0: no point has min_j g_j > 0,
    # so there is no centre for the polish's rays
    p = problem.problem_from_dict(
        {
            "name": "segment",
            "nvars": 2,
            "objective": "x1",
            "constraints": ["-x2^2"],
            "box": [[-1, 1], [-1, 1]],
        }
    )
    r = oracle.grid_minimize(p, res=11)
    assert r.polished is False
    assert (r.f_best, r.x_best.tolist()) == (-1.0, [-1.0, 0.0])


def test_polish_stays_in_a_feasible_set_that_is_not_convex():
    # rays from the annulus' deepest point cross its hole, where f is lower
    p = problem.problem_from_dict(
        {
            "name": "annulus",
            "nvars": 2,
            "objective": "x1^2 + x2^2",
            "constraints": ["x1^2 + x2^2 - 0.25", "1 - x1^2 - x2^2"],
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
        }
    )
    r = oracle.grid_minimize(p, res=101)
    assert min(expr.evaluate(g, r.x_best) for g in p.constraints) >= 0.0
    assert abs(r.f_best - 0.25) <= 1e-9


def test_known_corner_minima(problems):
    r = oracle.grid_minimize(problems["hyperbola"], res=501)
    assert abs(r.f_best - 2.0) <= 1e-6
    r = oracle.grid_minimize(problems["epsbox"], res=501)
    assert abs(r.f_best - (-1.0)) <= 1e-6


def test_result_reproduces_objective(problems):
    for name in ("disk", "cassini"):
        r = oracle.grid_minimize(problems[name], res=201)
        again = expr.evaluate(problems[name].objective, r.x_best)
        assert abs(again - r.f_best) <= 1e-12 * max(1.0, abs(r.f_best))


def test_result_stays_feasible(problems):
    for p in problems.values():
        r = oracle.grid_minimize(p, res=201)
        assert min(expr.evaluate(g, r.x_best) for g in p.constraints) >= -1e-9


def test_nested_grids_never_regress(problems):
    # resolutions 2^k + 1 nest, so the raw scan can only improve
    p = problems["cassini"]
    f129 = oracle.grid_minimize(p, res=129, polish_steps=0).f_best
    f257 = oracle.grid_minimize(p, res=257, polish_steps=0).f_best
    f513 = oracle.grid_minimize(p, res=513, polish_steps=0).f_best
    assert f257 <= f129
    assert f513 <= f257


def test_polish_only_improves(problems):
    p = problems["cassini"]
    raw = oracle.grid_minimize(p, res=129, polish_steps=0)
    polished = oracle.grid_minimize(p, res=129)
    assert raw.polished is False
    assert polished.f_best <= raw.f_best


def test_one_variable_problem():
    p = problem.problem_from_dict(
        {
            "name": "segment",
            "nvars": 1,
            "objective": "x1",
            "constraints": ["1 - x1^2"],
            "box": [[-2, 2]],
            "interior_point": [0],
        }
    )
    r = oracle.grid_minimize(p, res=101)
    assert r.f_best == -1.0


def test_three_variable_problem():
    p = problem.problem_from_dict(
        {
            "name": "ball3",
            "nvars": 3,
            "objective": "x1 + x2 + x3",
            "constraints": ["1 - x1^2 - x2^2 - x3^2"],
            "box": [[-1.5, 1.5]] * 3,
            "interior_point": [0, 0, 0],
        }
    )
    r = oracle.grid_minimize(p, res=51)
    assert abs(r.f_best - (-np.sqrt(3.0))) <= 1e-4


def test_dimension_limit():
    p = problem.problem_from_dict(
        {
            "name": "ball4",
            "nvars": 4,
            "objective": "x1",
            "constraints": ["1 - x1^2 - x2^2 - x3^2 - x4^2"],
            "box": [[-1.5, 1.5]] * 4,
            "interior_point": [0, 0, 0, 0],
        }
    )
    with pytest.raises(ProblemError, match="^oracle supports up to 3 variables, got 4$"):
        oracle.grid_minimize(p, res=51)


def test_resolution_limit(problems):
    with pytest.raises(ProblemError, match="^oracle resolution must be at least 11$"):
        oracle.grid_minimize(problems["disk"], res=5)


def test_no_feasible_grid_point():
    thin = problem.problem_from_dict(
        {
            "name": "thin",
            "nvars": 1,
            "objective": "x1",
            "constraints": ["0.0000001 - (x1 - 0.33337)^2"],
            "box": [[0, 1]],
            "interior_point": [0.33337],
        }
    )
    with pytest.raises(OracleError, match="no feasible grid point"):
        oracle.grid_minimize(thin, res=11)


def test_deterministic(problems):
    a = oracle.grid_minimize(problems["cassini"], res=201)
    b = oracle.grid_minimize(problems["cassini"], res=201)
    assert cli.record("oracle", a) == cli.record("oracle", b)


@pytest.mark.parametrize("objective", ["x1^2 + x2^2 - 2*x1 - 2*x2 + 3", "1"])
def test_block_size_does_not_change_the_result(monkeypatch, objective):
    # the constant objective ties everywhere: the first feasible point wins
    data = json.loads((DATA / "disk.json").read_text(encoding="utf-8"))
    p = problem.problem_from_dict({**data, "objective": objective})
    want = cli.record("oracle", oracle.grid_minimize(p, res=101, polish_steps=0))
    monkeypatch.setattr(problem, "GRID_BLOCK_POINTS", 7)
    assert cli.record("oracle", oracle.grid_minimize(p, res=101, polish_steps=0)) == want
