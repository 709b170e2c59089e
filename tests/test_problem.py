"""Problem container, parameter substitution, feasibility classification."""

import json
from pathlib import Path

import numpy as np
import pytest

from logbarrier import expr, problem
from logbarrier.problem import Feasibility, ProblemError

DATA = Path(__file__).resolve().parents[1] / "data"

BASE = {
    "name": "unit",
    "nvars": 2,
    "objective": "x1 + x2",
    "constraints": ["1 - x1^2 - x2^2"],
    "box": [[-2, 2], [-2, 2]],
    "interior_point": [0, 0],
}


def _variant(**overrides):
    d = dict(BASE)
    d.update(overrides)
    return d


def test_from_dict_fields():
    p = problem.problem_from_dict(BASE)
    assert p.name == "unit"
    assert p.nvars == 2
    assert p.nconstraints == 1
    assert p.box.shape == (2, 2)
    assert np.array_equal(p.interior_point, [0.0, 0.0])


def test_interior_point_optional():
    p = problem.problem_from_dict(_variant(interior_point=None))
    assert p.interior_point is None


def test_param_substitution():
    d = _variant(objective="a*x1^k + b", params={"a": 0.25, "k": 2, "b": 1})
    p = problem.problem_from_dict(d)
    assert expr.evaluate(p.objective, np.array([2.0, 0.0])) == 2.0


def test_param_substitution_whole_word_only():
    # "eps" must not rewrite the "exp" call
    d = _variant(objective="exp(x1) + eps", params={"eps": 0.5})
    p = problem.problem_from_dict(d)
    assert expr.evaluate(p.objective, np.array([0.0, 0.0])) == 1.5


@pytest.mark.parametrize(
    "params, fragment",
    [
        ({"x1": 3}, "collides"),
        ({"ln": 3}, "collides"),
        ({"a": "three"}, "must be a number"),
        ({"a b": 3}, "invalid parameter name"),
    ],
)
def test_param_validation(params, fragment):
    with pytest.raises(ProblemError, match=fragment):
        problem.problem_from_dict(_variant(params=params))


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        ({"objective": "x3"}, "cannot parse objective"),
        ({"constraints": ["x1 +"]}, "cannot parse constraint 1"),
        ({"constraints": []}, "nonempty list"),
        ({"box": [[2, -2], [-2, 2]]}, "lo < hi"),
        ({"box": [[-2, 2]]}, "2"),
        ({"interior_point": [5, 0]}, "strictly inside the box"),
        ({"interior_point": [0.9999, 0.9999]}, "strictly feasible"),
        ({"interior_point": [0]}, "2 coordinates"),
        ({"nvars": 0}, "positive integer"),
        ({"name": ""}, "nonempty string"),
    ],
)
def test_from_dict_validation(overrides, fragment):
    with pytest.raises(ProblemError, match=fragment):
        problem.problem_from_dict(_variant(**overrides))


def test_missing_key():
    d = dict(BASE)
    del d["box"]
    with pytest.raises(ProblemError, match="box"):
        problem.problem_from_dict(d)


def test_feasibility_examples(problems):
    disk = problems["disk"]
    assert problem.feasibility(disk, np.array([0.0, 0.0])) is Feasibility.STRICTLY_FEASIBLE
    assert problem.feasibility(disk, np.array([1.0, 0.0])) is Feasibility.BOUNDARY
    assert problem.feasibility(disk, np.array([2.0, 0.0])) is Feasibility.INFEASIBLE
    # widening the band reclassifies a near-boundary point
    assert problem.feasibility(disk, np.array([0.9, 0.0]), boundary_tol=0.5) is Feasibility.BOUNDARY


def test_feasibility_monotone_in_tolerance(problems):
    # raising the tolerance never moves a point from infeasible to strictly feasible
    rng = np.random.default_rng(11)
    for p in problems.values():
        pts = rng.uniform(p.box[:, 0], p.box[:, 1], size=(40, p.nvars))
        for x in pts:
            lo = problem.feasibility(p, x, boundary_tol=1e-9)
            hi = problem.feasibility(p, x, boundary_tol=1e-2)
            if lo is Feasibility.INFEASIBLE:
                assert hi is not Feasibility.STRICTLY_FEASIBLE


def test_active_set_examples(problems):
    assert problem.active_set(problems["hyperbola"], np.array([1.0, 1.0]), 1e-6).as_sorted() == [1]
    assert problem.active_set(problems["epsbox"], np.array([0.0, 1.0]), 1e-6).as_sorted() == [1, 4]
    got = problem.active_set(problems["disk"], np.array([0.0, 0.0]), 1e-6)
    assert got.as_sorted() == []
    assert got.tolerance == 1e-6
    assert 1 not in got


def test_active_set_empty_when_strictly_feasible(problems):
    rng = np.random.default_rng(12)
    for p in problems.values():
        pts = rng.uniform(p.box[:, 0], p.box[:, 1], size=(40, p.nvars))
        for x in pts:
            tol = 1e-8
            if problem.feasibility(p, x, boundary_tol=tol) is Feasibility.STRICTLY_FEASIBLE:
                assert problem.active_set(p, x, tol).as_sorted() == []


def test_load_round_trip(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(BASE))
    p = problem.load(path)
    assert p.name == "unit"
    assert expr.evaluate(p.objective, np.array([1.0, 2.0])) == 3.0


def test_load_errors(tmp_path):
    with pytest.raises(ProblemError, match="cannot read"):
        problem.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ProblemError, match="invalid JSON"):
        problem.load(bad)


def test_load_data_files():
    names = {problem.load(path).name for path in sorted(DATA.glob("*.json"))}
    assert names == {"cassini", "hyperbola", "epsbox", "disk", "degenerate-disk"}


@pytest.mark.parametrize("budget", [1, 7, 1 << 16])
@pytest.mark.parametrize("nvars, res", [(1, 5), (2, 11), (3, 4)])
def test_grid_blocks_stream_the_row_major_grid(monkeypatch, budget, nvars, res):
    monkeypatch.setattr(problem, "GRID_BLOCK_POINTS", budget)
    box = np.array([[-1.0, 2.0], [0.5, 0.75], [-3.0, -2.0]][:nvars])
    blocks = list(problem.grid_blocks(box, res))
    axes = [np.linspace(lo, hi, res) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    assert np.array_equal(np.concatenate(blocks), np.stack([m.ravel() for m in mesh], axis=1))
    assert all(b.shape == (budget, nvars) for b in blocks[:-1])
    assert 1 <= blocks[-1].shape[0] <= budget


def test_interior_point_outside_a_constraint_domain():
    data = {
        "name": "ln-interior",
        "nvars": 1,
        "objective": "x1",
        "constraints": ["ln(x1)"],
        "box": [[-2, 2]],
        "interior_point": [-1],
    }
    with pytest.raises(ProblemError, match="interior_point"):
        problem.problem_from_dict(data)


def test_evaluate_constraints_one_point_or_a_batch(problems):
    rng = np.random.default_rng(12)
    for p in problems.values():
        pts = rng.uniform(p.box[:, 0], p.box[:, 1], size=(9, p.nvars))
        batch = problem.evaluate_constraints(p, pts)
        assert batch.shape == (9, p.nconstraints)
        for x, row in zip(pts, batch):
            one = problem.evaluate_constraints(p, x)
            assert one.shape == (p.nconstraints,)
            assert np.array_equal(one, row)
            assert np.array_equal(one, [expr.evaluate(g, x) for g in p.constraints])


def test_evaluate_constraints_of_a_scan_count_an_overflow_as_infeasible():
    p = problem.problem_from_dict(
        {
            "name": "overflow",
            "nvars": 2,
            "objective": "x1",
            "constraints": ["1 - exp(x1)", "exp(x2)", "4 - x2^2"],
            "box": [[-5, 800], [-800, 800]],
        }
    )
    pts = np.array([[0.0, 1.0], [800.0, 1.0], [-1.0, 800.0]])
    got = problem.evaluate_constraints(p, pts)
    assert np.array_equal(got[0], [0.0, np.e, 3.0])
    # -inf or +inf in one g_j: the whole point reads -inf
    assert np.all(got[1:] == -np.inf)
    for x in pts[1:]:
        with pytest.raises(expr.EvalError, match="overflow"):
            problem.evaluate_constraints(p, x)
    # a subset of the constraints, at a point or over a batch
    subset = [p.constraints[2], p.constraints[0]]
    assert np.array_equal(problem.evaluate_constraints(p, pts[:1], subset), [[3.0, 0.0]])
    assert np.array_equal(problem.evaluate_constraints(p, pts[0], subset), [3.0, 0.0])
