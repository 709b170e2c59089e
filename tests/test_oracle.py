"""Grid oracle: exhaustive scan, boundary polish, derivative spot checks."""

import json

import numpy as np
import pytest

from logbarrier import cli, corpus, expr, oracle, problem
from logbarrier.oracle import OracleError
from logbarrier.problem import ProblemError

ROOT_HALF = float(np.sqrt(0.5))
DISK_FSTAR = 3.0 - 2.0 * np.sqrt(2.0)


def test_disk_minimum(problems):
    r = oracle.grid_minimize(problems["disk"], res=501)
    assert r.polished is True
    assert r.grid_resolution == 501
    assert abs(r.f_best - DISK_FSTAR) <= 1e-6
    assert np.abs(r.x_best - ROOT_HALF).max() <= 1e-4


def test_degenerate_disk_minimum(problems):
    # the cubed constraint flattens the boundary gradient; the polish
    # restoration must still cross the zero set instead of creeping
    r = oracle.grid_minimize(problems["degenerate-disk"], res=501)
    assert abs(r.f_best - DISK_FSTAR) <= 1e-6


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
    data = json.loads(corpus.entry_json("disk"))
    p = problem.problem_from_dict({**data, "objective": objective})
    want = cli.record("oracle", oracle.grid_minimize(p, res=101, polish_steps=0))
    monkeypatch.setattr(problem, "GRID_BLOCK_POINTS", 7)
    assert cli.record("oracle", oracle.grid_minimize(p, res=101, polish_steps=0)) == want
