"""Hypothesis probes: Slater point, nondegeneracy, convexity checks."""

import gc
import tracemalloc

import numpy as np
import pytest

from logbarrier import barrier, diagnostics, expr, problem
from logbarrier.diagnostics import NoFeasibleSamplesError, SlaterUnverifiedError

VOID = problem.problem_from_dict(
    {
        "name": "void",
        "nvars": 1,
        "objective": "x1",
        "constraints": ["-1 - x1^2"],
        "box": [[-2, 2]],
    }
)

BALL3 = problem.problem_from_dict(
    {
        "name": "ball3",
        "nvars": 3,
        "objective": "x1 + x2 + x3",
        "constraints": ["1 - x1^2 - x2^2 - x3^2"],
        "box": [[-1.5, 1.5]] * 3,
    }
)
# constant margin over the box: every grid point ties
PLATEAU = problem.problem_from_dict(
    {"name": "plateau", "nvars": 2, "objective": "x1", "constraints": ["2"], "box": [[-1, 1], [0, 3]]}
)


def test_slater_finds_deep_points(problems):
    x0, margin = diagnostics.slater_find(problems["disk"])
    assert np.array_equal(x0, [0.0, 0.0])
    assert margin == 1.0

    x0, margin = diagnostics.slater_find(problems["cassini"])
    assert margin == 4.0

    x0, margin = diagnostics.slater_find(problems["hyperbola"])
    assert margin > 4.99


def test_slater_margin_is_reproducible(problems):
    for p in problems.values():
        x0, margin = diagnostics.slater_find(p)
        recomputed = min(expr.evaluate(g, x0) for g in p.constraints)
        assert margin > 0.0
        assert abs(margin - recomputed) <= 1e-12 * max(1.0, abs(margin))


def test_slater_unverified():
    with pytest.raises(SlaterUnverifiedError, match="no strictly feasible point"):
        diagnostics.slater_find(VOID)


def test_nondegeneracy_disk(problems):
    r = diagnostics.nondegeneracy_probe(problems["disk"])
    assert r.passed is True
    assert r.boundary_points == 256
    assert r.max_boundary_residual <= 1e-8
    (entry,) = r.entries
    assert entry.samples == 256
    assert abs(entry.min_gradient_norm - 2.0) <= 1e-6


def test_nondegeneracy_unreached_constraints(problems):
    r = diagnostics.nondegeneracy_probe(problems["hyperbola"])
    assert r.passed is True
    by_constraint = {e.constraint: e for e in r.entries}
    assert sorted(by_constraint) == [1, 2, 3, 4, 5]
    assert sum(e.samples for e in r.entries) == 256
    # boundary rays never land on the far box edges at x = 10
    for j in (2, 3):
        assert by_constraint[j].samples == 0
        assert by_constraint[j].min_gradient_norm is None
        assert by_constraint[j].passed is None
    assert by_constraint[1].samples > 0
    assert by_constraint[1].min_gradient_norm > 1.0
    for j in (4, 5):
        assert by_constraint[j].min_gradient_norm == 1.0


def test_nondegeneracy_detects_vanishing_gradient(problems):
    r = diagnostics.nondegeneracy_probe(problems["degenerate-disk"])
    assert r.passed is False
    (entry,) = r.entries
    assert entry.passed is False
    assert entry.min_gradient_norm <= 1e-4


def test_nondegeneracy_deterministic(problems):
    a = diagnostics.nondegeneracy_probe(problems["cassini"], seed=42)
    b = diagnostics.nondegeneracy_probe(problems["cassini"], seed=42)
    assert a.to_record() == b.to_record()
    c = diagnostics.nondegeneracy_probe(problems["cassini"], seed=7)
    assert c.passed is True


def test_nondegeneracy_accepts_explicit_center(problems):
    r = diagnostics.nondegeneracy_probe(problems["disk"], x0=np.array([0.1, -0.2]))
    assert r.passed is True


@pytest.mark.parametrize("level", [2.95, 2.5, 1.5, 4.0])
def test_levelset_counterexamples(problems, level):
    p = problems["cassini"]
    r = diagnostics.levelset_convexity_probe(p, levels=level)
    assert r.verdict == "counterexample"
    assert r.method in ("rejection", "grid")
    w = r.witness
    assert np.array_equal(w.midpoint, 0.5 * (w.x + w.y))
    assert w.violated == [1]
    # reported values must reproduce exactly under re-evaluation
    g = p.constraints[0]
    assert expr.evaluate(g, w.x) == w.g_x[0]
    assert expr.evaluate(g, w.y) == w.g_y[0]
    assert expr.evaluate(g, w.midpoint) == w.g_mid[0]
    assert w.g_x[0] >= level
    assert w.g_y[0] >= level
    assert w.g_mid[0] < level


@pytest.mark.parametrize("level", [0.0, -2.0])
def test_levelset_convex_levels(problems, level):
    r = diagnostics.levelset_convexity_probe(problems["cassini"], levels=level)
    assert r.verdict == "convex_up_to_sampling"
    assert r.witness is None
    assert r.pairs_checked == 10000


def test_levelset_empty_region(problems):
    r = diagnostics.levelset_convexity_probe(problems["cassini"], levels=5.0, pairs=1000)
    assert r.verdict == "empty_region"
    assert r.witness is None


def test_levelset_scoped_constraint(problems):
    r = diagnostics.levelset_convexity_probe(problems["hyperbola"], constraint=1, pairs=2000)
    assert r.scope == [1]
    assert r.verdict == "convex_up_to_sampling"
    assert r.pairs_checked == 2000


def test_levelset_bad_scope(problems):
    with pytest.raises(ValueError, match="out of range"):
        diagnostics.levelset_convexity_probe(problems["disk"], constraint=7)


def test_levelset_deterministic(problems):
    a = diagnostics.levelset_convexity_probe(problems["cassini"], levels=1.5, seed=42)
    b = diagnostics.levelset_convexity_probe(problems["cassini"], levels=1.5, seed=42)
    assert a.to_record() == b.to_record()
    c = diagnostics.levelset_convexity_probe(problems["cassini"], levels=1.5, seed=7)
    assert c.verdict == "counterexample"


def test_phi_convexity_indefinite(problems):
    r = diagnostics.phi_convexity_probe(problems["epsbox"], mu=1.0)
    assert r.samples == 1000
    assert r.min_eigenvalue < -1.0
    h = barrier.barrier_hessian(problems["epsbox"], r.witness, 1.0)
    eigs = np.linalg.eigvalsh(h)
    assert abs(eigs[0] - r.min_eigenvalue) <= 1e-9 * max(1.0, abs(r.min_eigenvalue))


@pytest.mark.parametrize("name", ["disk", "hyperbola"])
def test_phi_convexity_positive(problems, name):
    r = diagnostics.phi_convexity_probe(problems[name], mu=1.0)
    assert r.min_eigenvalue >= -1e-8


def test_phi_convexity_needs_samples():
    with pytest.raises(NoFeasibleSamplesError, match="no strictly feasible samples"):
        diagnostics.phi_convexity_probe(VOID, mu=1.0)


def test_curvature_disk(problems):
    r = diagnostics.tangential_curvature_probe(problems["disk"])
    assert r.vacuous is False
    (entry,) = r.entries
    assert entry.samples == 256
    assert abs(entry.max_tangential_curvature + 2.0) <= 1e-6


def test_curvature_convex_boundaries(problems):
    for name in ("cassini", "hyperbola"):
        r = diagnostics.tangential_curvature_probe(problems[name])
        for entry in r.entries:
            if entry.samples > 0:
                assert entry.max_tangential_curvature <= 1e-6


def test_curvature_vacuous_in_one_variable():
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
    r = diagnostics.tangential_curvature_probe(p)
    assert r.vacuous is True
    (entry,) = r.entries
    assert entry.samples == 0
    assert entry.max_tangential_curvature is None


def _slater_cases(problems):
    # (problem, grid_res); 7 divides neither resolution, so tiny blocks split rows
    return [(p, 101) for p in problems.values()] + [(BALL3, 23), (PLATEAU, 101)]


def test_slater_plateau_keeps_the_first_grid_point():
    x0, margin = diagnostics.slater_find(PLATEAU)
    assert np.array_equal(x0, [-1.0, 0.0])
    assert margin == 2.0


def test_block_size_does_not_change_results(monkeypatch, problems):
    plane = problem.problem_from_dict(
        {"name": "plane", "nvars": 3, "objective": "x1", "constraints": ["-x3^2"], "box": [[-2, 2]] * 3}
    )
    levelset_cases = [
        (problems["cassini"], 5.0),  # empty region
        (problems["cassini"], 3.9999999),  # the two foci only: a grid counterexample
        (plane, 0.0),  # a plane: more members than GRID_FALLBACK_CAP
    ]

    def run_all():
        slater = [diagnostics.slater_find(p, res) for p, res in _slater_cases(problems)]
        levelsets = [
            diagnostics.levelset_convexity_probe(p, levels=a, pairs=1000).to_record()
            for p, a in levelset_cases
        ]
        return slater, levelsets

    want_slater, want_levelsets = run_all()
    assert [r["method"] for r in want_levelsets] == ["grid"] * 3
    assert [r["verdict"] for r in want_levelsets] == [
        "empty_region",
        "counterexample",
        "convex_up_to_sampling",
    ]
    assert want_levelsets[2]["pairs_checked"] == diagnostics.GRID_FALLBACK_CAP * 511 // 2
    monkeypatch.setattr(problem, "GRID_BLOCK_POINTS", 7)
    got_slater, got_levelsets = run_all()
    assert got_levelsets == want_levelsets
    for (x_want, m_want), (x_got, m_got) in zip(want_slater, got_slater):
        assert np.array_equal(x_got, x_want) and m_got == m_want


def test_slater_scan_memory_stays_bounded():
    # the whole 101^3 grid of 3 coordinates alone would take 24.7 MB
    gc.collect()
    tracemalloc.start()
    try:
        diagnostics.slater_find(BALL3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # 1.1 MiB with blocks of 16384 points, 4.0 MiB with 65536


def _boundary_reference(p, x0, count, seed, activation_tol=1e-6):
    """Per point and active constraint: (j, gradient norm, top tangential curvature or None)."""
    rng = np.random.default_rng(seed)
    directions = diagnostics._random_directions(rng, count, p.nvars)
    points, gvals, _ = diagnostics._boundary_batch(p, x0, directions)
    out = []
    for x, gx in zip(points, gvals):
        for j, g in enumerate(p.constraints):
            if gx[j] > activation_tol:
                continue
            jet = expr.evaluate_dual(g, x)
            norm = float(np.linalg.norm(jet.grad))
            top = None
            if norm >= 1e-12 and p.nvars > 1:
                _, _, vh = np.linalg.svd((jet.grad / norm).reshape(1, -1))
                top = float(np.linalg.eigvalsh(vh[1:] @ jet.hess @ vh[1:].T)[-1])
            out.append((j, norm, top))
    return out


@pytest.mark.parametrize("name", ["cassini", "hyperbola", "epsbox", "disk", "degenerate-disk"])
def test_batched_boundary_probes_match_a_point_by_point_loop(problems, name):
    p = problems[name]
    x0, _ = diagnostics.slater_find(p)
    ref = _boundary_reference(p, x0, 256, 42)
    ndg = diagnostics.nondegeneracy_probe(p, x0=x0)
    cur = diagnostics.tangential_curvature_probe(p, x0=x0)
    # row norms of a stacked array may round differently from a vector's norm
    eps = np.finfo(float).eps
    for j in range(p.nconstraints):
        norms = [norm for k, norm, _ in ref if k == j]
        tops = [top for k, _, top in ref if k == j and top is not None]
        assert ndg.entries[j].samples == len(norms)
        assert cur.entries[j].samples == len(tops)
        if not norms:
            assert ndg.entries[j].min_gradient_norm is None
            continue
        assert ndg.entries[j].min_gradient_norm == pytest.approx(min(norms), rel=4 * eps)
        top = cur.entries[j].max_tangential_curvature
        if not tops:
            assert top is None
        else:
            assert top == pytest.approx(max(tops), rel=1e3 * eps, abs=1e3 * eps)


def test_phi_probe_reports_the_lowest_point_eigenvalue(problems):
    p = problems["epsbox"]
    r = diagnostics.phi_convexity_probe(p, 1.0, samples=200, seed=5)
    eig = np.linalg.eigvalsh(barrier.barrier_hessian(p, r.witness, 1.0))[0]
    assert r.samples == 200
    assert r.min_eigenvalue == eig < 0.0


@pytest.mark.filterwarnings("error")  # no RuntimeWarning may escape
def test_levelset_midpoint_that_overflows_is_no_witness():
    # exp(x1*x2) >= 0.5 holds on the whole box, but overflows where x1*x2 > 709.78:
    # such points are no members, and a midpoint there proves nothing
    p = problem.problem_from_dict(
        {
            "name": "overflow-levelset",
            "nvars": 2,
            "objective": "x1",
            "constraints": ["exp(x1*x2)"],
            "box": [[0, 100], [0, 100]],
        }
    )
    report = diagnostics.levelset_convexity_probe(p, levels=0.5, pairs=2000)
    assert report.verdict == "convex_up_to_sampling"
    assert report.pairs_checked == 2000
