"""Problem container, parameters bound in expressions, constraint scans."""

import gc
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logbarrier import cli, expr, problem
from logbarrier.problem import ProblemError

DATA = Path(__file__).resolve().parents[1] / "src" / "logbarrier" / "data"

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
    assert len(p.constraints) == 1
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


def test_negative_param_is_one_constant():
    # substituted as text, a^2 read -1.0^2, which is -(1.0^2)
    p = problem.problem_from_dict(_variant(objective="a^2 + x1", params={"a": -1}))
    assert expr.evaluate(p.objective, np.array([0.0, 0.0])) == 1.0


def _value_or_error(e, x):
    try:
        return np.float64(expr.evaluate(e, x)).tobytes()
    except expr.EvalError:
        return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["a^2 + x1", "x1 - a^3", "-a^2*x2", "x1/a - a", "exp(a*x1)*a", "a*x1^2 - x2/a^2"]),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-(10**6), 10**6),
        st.sampled_from([1e-5, -1e-5, 2.5e-300, -3e200, 5e-324, -0.0]),
    ),
)
@example("-a^2*x2", -0.0)  # inlined without parentheses, the sign of the zero would flip
def test_param_evaluates_as_its_parenthesized_literal(text, value):
    bound = expr.parse(text, 2, {"a": value})
    inlined = expr.parse(re.sub(r"\ba\b", f"({value!r})", text), 2)
    for x in ([0.7, -1.3], [-2.0, 0.25]):
        assert _value_or_error(bound, x) == _value_or_error(inlined, x)


@pytest.mark.parametrize(
    "params, fragment",
    [
        ({"x1": 3}, "collides"),
        ({"ln": 3}, "collides"),
        ({"a": "three"}, "must be a number"),
        ({"a b": 3}, "invalid parameter name"),
        ({"a": float("nan")}, "finite"),
        ({"a": 10**400}, "finite"),
        ({"a\n": 3}, "invalid parameter name"),
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
        ({"params": [1]}, "params must be an object"),
        ({"constraints": [3]}, "constraint 1 must be a string"),
        ({"box": [[0], [-2, 2]]}, r"box entry 1 must be a \[lo, hi\] pair"),
        (
            {"objective": "x1^a", "params": {"a": 0.5}},
            r"exponent must be an integer literal, found 'a' \(at position 3\)",
        ),
        ({"box": [[-1e308, 1.7e308], [-1e308, 1e308]]}, "box entry 1 must have a finite width"),
    ],
)
def test_from_dict_validation(overrides, fragment):
    with pytest.raises(ProblemError, match=fragment):
        problem.problem_from_dict(_variant(**overrides))


def test_problem_data_must_be_an_object():
    with pytest.raises(ProblemError, match="must be a JSON object"):
        problem.problem_from_dict([1, 2])


def test_missing_key():
    d = dict(BASE)
    del d["box"]
    with pytest.raises(ProblemError, match="box"):
        problem.problem_from_dict(d)


def test_unknown_key_is_refused(tmp_path, capsys):
    # a misspelled interior_point used to be dropped, and solve then started
    # from the Slater grid point and exited 0 on a different path
    d = {key: value for key, value in BASE.items() if key != "interior_point"}
    d["interior_pont"] = [0.5, 0]
    with pytest.raises(ProblemError, match="unknown key 'interior_pont'"):
        problem.problem_from_dict(d)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(d))
    assert cli.main(["solve", "--problem", str(path)]) == 2
    assert "unknown key 'interior_pont'" in capsys.readouterr().err


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


def test_one_variable_grid_blocks_slice_the_axis():
    # each block of a fine one-variable grid took a copy of the whole axis:
    # 32 MiB traced at 2^20 points, against the axis's own 8 MiB
    res = problem.MAX_RESOLUTION
    gc.collect()
    tracemalloc.start()
    try:
        for block in problem.grid_blocks(np.array([[-1.0, 1.0]]), res):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block[-1, 0] == 1.0
    assert peak < 9 * 2**20


def _exit_by_loop(box, x, d):
    t = np.inf
    for (lo, hi), xi, di in zip(box, x, d):
        if di > 0:
            t = min(t, (hi - xi) / di)
        elif di < 0:
            t = min(t, (lo - xi) / di)
    return t


def test_walk_rays_exits_match_a_loop_over_the_rays():
    # g = 1 holds everywhere, so each ray that leaves the box ends at its exit
    box = [[-1.0, 2.0], [0.5, 0.75], [-3.0, -2.0]]
    p = problem.problem_from_dict(
        _variant(nvars=3, objective="x1", constraints=["1"], box=box, interior_point=None)
    )
    dirs = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, -2.0, 0.0],
            [0.3, -0.7, 1e-3],
            [-1.0, 1.0, -1.0],
            [0.0, 0.0, 0.0],  # never leaves
            [0.0, 1e-300, 0.0],
        ]
    )
    starts = np.array(
        [
            [2.0, 0.6, -2.5],  # on the face x1 = hi, pointing out: t = 0
            [0.0, 0.5, -2.5],  # on the face x2 = lo, pointing out: t = 0
            [-1.0, 0.5, -3.0],  # on three lower faces, pointing in on x1
            [0.1, 0.7, -2.1],
            [0.0, 0.6, -2.5],
            [0.0, 0.6, -2.5],
        ]
    )
    for x in (starts, starts[3]):  # one start per ray, and one for every ray
        t_in, t_exit = problem.walk_rays(p, x, dirs, 0.0)
        exits = [_exit_by_loop(p.box, xk, d) for xk, d in zip(np.broadcast_to(x, dirs.shape), dirs)]
        assert list(t_exit) == [t if 0.0 < t < np.inf else 0.0 for t in exits]
        assert np.array_equal(t_in, t_exit)
    # rows 0 and 1 leave at once and row 4 never: their brackets are [0, 0]
    _, t_exit = problem.walk_rays(p, starts, dirs, 0.0)
    assert t_exit[0] == t_exit[1] == t_exit[4] == 0.0 and t_exit[5] == (0.75 - 0.6) / 1e-300


def _walk_by_loop(p, x, d, level, iters):
    """One ray's (t_in, t_out): its box exit where min_j g_j >= level holds there,
    else after iters halvings of [0, its box exit] on min_j g_j >= level."""

    def inside(t):
        return problem.evaluate_constraints(p, (x + t * d)[None, :]).min() >= level

    t_exit = _exit_by_loop(p.box, x, d)
    lo, hi = 0.0, t_exit if 0.0 < t_exit < np.inf else 0.0
    if inside(hi):
        return hi, hi
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def test_walk_rays_matches_the_scalar_loop():
    # the circle of radius sqrt(5) holds the box's axes but not its corners
    p = problem.problem_from_dict(_variant(constraints=["5 - x1^2 - x2^2", "x1 + 0.5"]))
    dirs = np.array(
        [
            [1.0, 0.0],  # still inside where it leaves the box
            [-1.0, 0.0],  # crosses x1 = -0.5
            [0.6, -0.8],  # crosses the circle
            [0.0, 1e-300],  # leaves the box at t = 1.5e300, inside
            [0.0, 0.0],  # never leaves: the bracket is [0, 0]
            [1.0, 0.0],  # starts on the face x1 = 2, pointing out: [0, 0]
            [-0.6, -0.8],
        ]
    )
    starts = np.array(
        [[0.0, 0.0], [0.2, 0.1], [0.1, -0.2], [0.0, 0.5], [0.1, 0.1], [2.0, 0.0], [-0.2, 0.0]]
    )
    for level in (0.0, 0.25):
        for x in (starts, np.zeros(2)):  # one start per ray, and one for every ray
            t_in, t_exit = problem.walk_rays(p, x, dirs, level)
            xs = np.broadcast_to(x, dirs.shape)
            want = [_walk_by_loop(p, xk, d, level, problem.BISECT_ITERS) for xk, d in zip(xs, dirs)]
            assert list(t_in) == [lo for lo, _ in want]
            exits = [_exit_by_loop(p.box, xk, d) for xk, d in zip(xs, dirs)]
            assert list(t_exit) == [t if 0.0 < t < np.inf else 0.0 for t in exits]
            # rows 0 and 3 are inside where they leave the box: they end there
            assert t_in[0] == t_exit[0] == 2.0 and t_in[3] == t_exit[3] > 1e300
            assert t_in[4] == t_exit[4] == 0.0
        # from the origin, row 1 crosses x1 + 0.5 = level
        assert (t_in[1], t_exit[1]) == (pytest.approx(0.5 - level), 2.0)
    # zero halvings leave t_in at 0 on every ray but those inside at their exits
    t_in, t_exit = problem.walk_rays(p, starts, dirs, 0.0, 0)
    assert np.array_equal(t_in != 0.0, [True, False, False, True, False, False, False])
    assert t_in[0] == t_exit[0] == 2.0


def test_walk_rays_stops_once_a_halving_moves_no_end(monkeypatch):
    # row 0 crosses x1 = 0.5, and after 54 halvings its bracket is two
    # adjacent floats, so the next midpoint moves no end and the walk stops
    # there; row 1 is inside at its box exit, so every point of it the walk
    # evaluates is that exit: it takes no halving
    p = problem.problem_from_dict(_variant(constraints=["0.5 - x1", "3 - x2"]))
    calls = []
    evaluate = problem.evaluate_constraints

    def counting(p, x):
        calls.append(x)
        return evaluate(p, x)

    dirs = np.array([[1.0, 0.0], [0.0, 1.0]])
    monkeypatch.setattr(problem, "evaluate_constraints", counting)
    t_in, t_exit = problem.walk_rays(p, np.zeros(2), dirs, 0.0)
    monkeypatch.undo()
    assert len(calls) == 1 + 55 < 1 + problem.BISECT_ITERS
    assert all(np.array_equal(x[1], [0.0, 2.0]) for x in calls)
    assert list(zip(t_in, t_exit)) == [(0.5, 2.0), (2.0, 2.0)]
    want = [_walk_by_loop(p, np.zeros(2), d, 0.0, problem.BISECT_ITERS) for d in dirs]
    assert want == [(0.5, np.nextafter(0.5, 1.0)), (2.0, 2.0)]


@pytest.mark.filterwarnings("error")  # no RuntimeWarning may escape
def test_walk_rays_bisects_a_bracket_whose_ends_sum_past_the_float_range():
    # the ray from (1, 0) along x1 leaves the box at 1.7e308 and crosses
    # 1e308 - x1 = 0 at t = 1e308 - 1, which rounds to 1e308; its first
    # midpoint 8.5e307 is inside, and 8.5e307 + 1.7e308 passes the float range
    p = problem.problem_from_dict(
        _variant(
            constraints=["1e308 - x1", "1 - x2^2"],
            box=[[0, 1.7e308], [-2, 2]],
            interior_point=[1, 0],
        )
    )
    t_in, t_exit = problem.walk_rays(p, p.interior_point, np.array([[1.0, 0.0]]), 0.0)
    assert (t_in[0], t_exit[0]) == (1e308, 1.7e308)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.floats(0.1, 3.0),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    st.tuples(*[st.floats(0.05, 4.0)] * 4),
    st.floats(-0.5, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_walk_rays_ends_inside_and_at_the_exits_that_are(r, centre, widths, frac, seed):
    # a disk around a point of a random box, walked from its centre at a
    # level the centre meets; the axis rays leave the box straight through a face
    a, b = centre
    p = problem.problem_from_dict(
        _variant(
            constraints=["r2 - (x1 - a)^2 - (x2 - b)^2"],
            box=[[a - widths[0], a + widths[1]], [b - widths[2], b + widths[3]]],
            interior_point=None,
            params={"r2": r * r, "a": a, "b": b},
        )
    )
    level = frac * r * r
    dirs = np.vstack([np.eye(2), -np.eye(2), np.random.default_rng(seed).standard_normal((12, 2))])
    x = np.array([a, b])
    t_in, t_exit = problem.walk_rays(p, x, dirs, level)
    assert (t_in <= t_exit).all()
    assert (problem.evaluate_constraints(p, x + t_in[:, None] * dirs).min(axis=1) >= level).all()
    at_exit = problem.evaluate_constraints(p, x + t_exit[:, None] * dirs).min(axis=1) >= level
    assert np.array_equal(t_in == t_exit, at_exit)


def test_keep_first_keeps_the_accepted_rows_of_one_large_draw():
    box = np.array([[-1.0, 2.0], [0.0, 0.5], [3.0, 7.0]])

    def keep(pts):
        return pts[:, 0] + pts[:, 1] > 1.0

    def first(batch, cap, keep, need):
        """keep_first's rows over a seeded stream, and the number of rows it read."""
        read = []

        def draws():
            for block in problem.uniform_batches(np.random.default_rng(5), box, batch, cap):
                read.append(block.shape[0])
                yield block

        return problem.keep_first(draws(), keep, need), sum(read)

    rows, drawn = first(16, 10_000, keep, 50)
    big = np.random.default_rng(5).uniform(box[:, 0], box[:, 1], size=(drawn, 3))
    assert np.array_equal(rows, big[keep(big)][:50])
    assert drawn % 16 == 0 and keep(big[: drawn - 16]).sum() < 50 <= keep(big).sum()
    # the cap stops the draws first
    rows, drawn = first(16, 32, keep, 50)
    assert drawn == 32 and np.array_equal(rows, big[:32][keep(big[:32])])
    # nothing kept
    rows, drawn = first(16, 40, lambda pts: pts[:, 0] > 2.0, 5)
    assert rows.shape == (0, 3) and drawn == 48


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
        assert batch.shape == (9, len(p.constraints))
        for x, row in zip(pts, batch):
            one = problem.evaluate_constraints(p, x)
            assert one.shape == (len(p.constraints),)
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
