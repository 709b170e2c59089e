"""Builtin problem corpus and the JSON files shipped next to it."""

from pathlib import Path

import numpy as np
import pytest

from logbarrier import corpus, expr, oracle, problem
from logbarrier.problem import ProblemError

DATA = Path(__file__).resolve().parents[1] / "src" / "logbarrier" / "data"


def test_names():
    assert corpus.names() == ["cassini", "hyperbola", "epsbox", "disk", "degenerate-disk"]


def test_names_are_the_packaged_problem_files():
    assert corpus.DATA_DIR == DATA
    assert sorted(corpus.names()) == sorted(path.stem for path in DATA.glob("*.json"))


def test_unknown_name():
    with pytest.raises(ProblemError, match="unknown builtin"):
        corpus.builtin("nosuch")


def test_entries_have_provenance():
    for name in corpus.names():
        entry = corpus.builtin(name)
        assert entry.problem.name == name
        assert entry.provenance


def test_data_files_match_builtins():
    for name in corpus.names():
        got = problem.load(DATA / f"{name}.json")
        want = corpus.builtin(name).problem
        assert (got.name, got.nvars) == (want.name, want.nvars)
        # trees compare by structure: the same text parsed with the same params
        assert (got.objective, got.constraints) == (want.objective, want.constraints)
        assert np.array_equal(got.box, want.box)
        assert np.array_equal(got.interior_point, want.interior_point)


def test_constraint_counts():
    counts = {name: len(corpus.builtin(name).problem.constraints) for name in corpus.names()}
    assert counts == {
        "cassini": 1,
        "hyperbola": 5,
        "epsbox": 4,
        "disk": 1,
        "degenerate-disk": 1,
    }


def test_known_optima_present():
    known = {name: corpus.builtin(name).known_optimum for name in corpus.names()}
    assert known["cassini"] is None
    assert np.array_equal(known["hyperbola"].x, [1.0, 1.0])
    assert known["hyperbola"].f == 2.0
    assert np.array_equal(known["epsbox"].x, [0.0, 1.0])
    assert known["epsbox"].f == -1.0
    for name in ("disk", "degenerate-disk"):
        assert abs(known[name].f - (3.0 - 2.0 * np.sqrt(2.0))) <= 1e-12
        assert known[name].provenance


def test_known_optima_consistent():
    for name in corpus.names():
        entry = corpus.builtin(name)
        ko = entry.known_optimum
        if ko is None:
            continue
        p = entry.problem
        assert np.all(problem.evaluate_constraints(p, ko.x) >= -1e-12)
        assert abs(expr.evaluate(p.objective, ko.x) - ko.f) <= 1e-12 * max(1.0, abs(ko.f))


def test_known_optima_match_oracle():
    for name in corpus.names():
        entry = corpus.builtin(name)
        if entry.known_optimum is None:
            continue
        r = oracle.grid_minimize(entry.problem, res=2001)
        assert abs(r.f_best - entry.known_optimum.f) <= 1e-4, name


def test_interior_points_strictly_feasible():
    for name in corpus.names():
        p = corpus.builtin(name).problem
        assert p.interior_point is not None
        assert np.all(problem.evaluate_constraints(p, p.interior_point) > 0)
