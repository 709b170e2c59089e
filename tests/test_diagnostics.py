"""Hypothesis probes: Slater point, nondegeneracy, convexity checks."""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from logbarrier import barrier, cli, diagnostics, expr, problem
from logbarrier.diagnostics import DiagnosticsError, SlaterUnverifiedError

VOID = problem.problem_from_dict(
    {
        "name": "void",
        "nvars": 1,
        "objective": "x1",
        "constraints": ["-1 - x1^2"],
        "box": [[-2, 2]],
    }
)

BALL3_DATA = {
    "name": "ball3",
    "nvars": 3,
    "objective": "x1 + x2 + x3",
    "constraints": ["1 - x1^2 - x2^2 - x3^2"],
    "box": [[-1.5, 1.5]] * 3,
}
BALL3 = problem.problem_from_dict(BALL3_DATA)
# a set with no interior: rejection sampling finds no member, so the
# level-set probe falls back to the grid and scans 130816 pairs
PLANE3_DATA = {
    "name": "plane3",
    "nvars": 3,
    "objective": "x1",
    "constraints": ["-x3^2"],
    "box": [[-2, 2]] * 3,
}
PLANE3 = problem.problem_from_dict(PLANE3_DATA)
# a single point: the grid fallback finds one member, so no pair
POINT = problem.problem_from_dict(
    {
        "name": "point",
        "nvars": 2,
        "objective": "x1",
        "constraints": ["-(x1^2 + x2^2)"],
        "box": [[-1, 1], [-1, 1]],
    }
)
# a disk of radius sqrt(10) around the whole box
WIDE = {
    "name": "wide",
    "nvars": 2,
    "objective": "x1",
    "constraints": ["10 - x1^2 - x2^2"],
    "box": [[-1, 1], [-1, 1]],
}
# constant margin over the box: every grid point ties
PLATEAU = problem.problem_from_dict(
    {"name": "plateau", "nvars": 2, "objective": "x1", "constraints": ["2"], "box": [[-1, 1], [0, 3]]}
)


def test_slater_finds_deep_points(problems):
    report = diagnostics.slater_find(problems["disk"])
    assert np.array_equal(report.point, [0.0, 0.0])
    assert report.margin == 1.0

    report = diagnostics.slater_find(problems["cassini"])
    assert report.margin == 4.0

    # the grid's best point itself, not the deeper (5, 5) between grid points
    report = diagnostics.slater_find(problems["hyperbola"])
    assert report.point.tolist() == [5.005, 5.005]
    assert report.margin == 4.995
    assert (report.grid_resolution, report.passed) == (diagnostics.SLATER_GRID_RES, True)


def test_slater_passes_on_a_set_about_one_grid_cell_wide():
    # radius 0.03 around (0.013, 0.017) with a grid step of 0.04: the
    # origin is the deepest grid point inside, at half the centre's margin
    thin = problem.problem_from_dict(
        {
            "name": "thin-disk",
            "nvars": 2,
            "objective": "x1",
            "constraints": ["0.0009 - (x1 - 0.013)^2 - (x2 - 0.017)^2"],
            "box": [[-2, 2], [-2, 2]],
        }
    )
    report = diagnostics.slater_find(thin)
    assert report.passed is True
    assert report.point.tolist() == [0.0, 0.0]
    assert abs(report.margin - 0.000442) <= np.spacing(0.000442)


def test_slater_margin_is_reproducible(problems):
    for p in problems.values():
        report = diagnostics.slater_find(p)
        recomputed = min(expr.evaluate(g, report.point) for g in p.constraints)
        assert report.margin > 0.0
        assert abs(report.margin - recomputed) <= 1e-12 * max(1.0, abs(report.margin))


def test_slater_unverified():
    with pytest.raises(SlaterUnverifiedError, match="no strictly feasible point"):
        diagnostics.slater_find(VOID)
    # the best margin, -(0^2 + 0^2) at the origin, is -0.0: reported without its sign
    with pytest.raises(SlaterUnverifiedError, match=r"\(best margin 0\.000e\+00\)$"):
        diagnostics.slater_find(POINT)


def _sample(p, **kwargs):
    """The boundary sample the CLI takes: rays from the Slater point."""
    return diagnostics.boundary_sample(p, diagnostics.slater_find(p).point, **kwargs)


def test_nondegeneracy_disk(problems):
    r = diagnostics.nondegeneracy_probe(problems["disk"], _sample(problems["disk"]))
    assert r.passed is True
    assert r.boundary_points == 256
    assert r.max_boundary_residual <= 1e-8
    (entry,) = r.constraints
    assert entry.samples == 256
    assert abs(entry.min_gradient_norm - 2.0) <= 1e-6


def test_nondegeneracy_unreached_constraints(problems):
    r = diagnostics.nondegeneracy_probe(problems["hyperbola"], _sample(problems["hyperbola"]))
    assert r.passed is True
    by_constraint = {e.constraint: e for e in r.constraints}
    assert sorted(by_constraint) == [1, 2, 3, 4, 5]
    assert sum(e.samples for e in r.constraints) == 256
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
    p = problems["degenerate-disk"]
    r = diagnostics.nondegeneracy_probe(p, _sample(p))
    assert r.passed is False
    (entry,) = r.constraints
    assert entry.passed is False
    assert entry.min_gradient_norm <= 1e-4


def test_nondegeneracy_deterministic(problems):
    p = problems["cassini"]
    a = diagnostics.nondegeneracy_probe(p, _sample(p, seed=42))
    b = diagnostics.nondegeneracy_probe(p, _sample(p, seed=42))
    assert cli.record("nondegeneracy", a) == cli.record("nondegeneracy", b)
    c = diagnostics.nondegeneracy_probe(p, _sample(p, seed=7))
    assert c.passed is True


def test_nondegeneracy_accepts_explicit_center(problems):
    p = problems["disk"]
    r = diagnostics.nondegeneracy_probe(p, diagnostics.boundary_sample(p, np.array([0.1, -0.2])))
    assert r.passed is True


def test_boundary_probes_on_a_set_no_ray_reaches():
    # the disk of radius sqrt(10) holds the whole box: every ray leaves
    # the box strictly feasible, so no boundary point is sampled
    p = problem.problem_from_dict(WIDE)
    sample = _sample(p)
    assert sample.points.shape == (0, 2)
    ndg = diagnostics.nondegeneracy_probe(p, sample)
    assert (ndg.rays, ndg.boundary_points, ndg.max_boundary_residual) == (256, 0, 0.0)
    assert ndg.constraints == [diagnostics.NondegeneracyEntry(1, 0, None, None)]
    assert ndg.passed is True
    # the curvature probe measured nothing, and its verdict says so
    cur = diagnostics.tangential_curvature_probe(p, sample)
    entry = diagnostics.CurvatureEntry(1, 0, 0, None)
    assert cur == diagnostics.CurvatureReport(0, False, [entry], "empty_region")


@pytest.mark.parametrize("name", ["disk", "hyperbola", "wide"])
def test_boundary_sample_evaluates_each_bisection_end_once(monkeypatch, problems, name):
    # outside the walk: once at its inside ends, which are the boundary points
    # and, where a ray is still inside at its box exit, that exit
    p = problem.problem_from_dict(WIDE) if name == "wide" else problems[name]
    x0 = diagnostics.slater_find(p).point
    calls = []
    evaluate = diagnostics.evaluate_constraints

    def counting(p, x):
        calls.append(np.shape(x))
        return evaluate(p, x)

    monkeypatch.setattr(diagnostics, "evaluate_constraints", counting)
    diagnostics.boundary_sample(p, x0)
    assert calls == [(diagnostics.BOUNDARY_RAYS, p.nvars)]


def test_boundary_points_on_the_box_faces_lie_on_the_boundary(problems):
    # epsbox's set is its box window: every ray is inside at its box exit
    # and ends exactly there, not one halving's roundoff short of it
    p = problems["epsbox"]
    sample = diagnostics.boundary_sample(p, diagnostics.slater_find(p).point)
    assert sample.points.shape[0] > 0
    assert sample.residuals.max() < 1e-16


def _disk_beside(constraints):
    return problem.problem_from_dict(
        {
            "name": "scaled",
            "nvars": 2,
            "objective": "x1",
            "constraints": constraints,
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
            "interior_point": [0, 0],
        }
    )


def _ndg(p):
    report = diagnostics.nondegeneracy_probe(p, diagnostics.boundary_sample(p, p.interior_point))
    return report.passed, [e.samples for e in report.constraints]


def test_boundary_activity_does_not_depend_on_the_scale_of_a_constraint():
    # a constant factor on g_j moves neither K nor the constraint each ray
    # crosses: c*(2 - x1) is never active beside the unit disk, whatever c
    assert _ndg(_disk_beside(["1 - x1^2 - x2^2", "2 - x1"])) == (True, [256, 0])
    for c in ("1e-7", "1e7"):
        assert _ndg(_disk_beside(["1 - x1^2 - x2^2", f"{c}*(2 - x1)"])) == (True, [256, 0]), c
    # the verdict of the disk written c*(1 - x1^2 - x2^2) still depends on c
    # through the absolute NONDEGENERACY_DELTA; its samples do not
    for c in ("1e-7", "1e160"):
        assert _ndg(_disk_beside([f"{c}*(1 - x1^2 - x2^2)"]))[1] == [256], c


@pytest.mark.parametrize("level", [2.95, 2.5, 1.5, 4.0])
def test_levelset_counterexamples(problems, level):
    p = problems["cassini"]
    r = diagnostics.levelset_convexity_probe(p, level)
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
    # the hyperbola region is convex although x1*x2 - 1 is not concave
    for name in ("cassini", "hyperbola"):
        p = problems[name]
        r = diagnostics.levelset_convexity_probe(p, level)
        assert r.level == level
        assert r.verdict == "convex_up_to_sampling"
        assert r.witness is None
        assert r.pairs_checked == 10000


def test_levelset_empty_region(monkeypatch, problems):
    monkeypatch.setattr(diagnostics, "LEVELSET_PAIRS", 1000)
    r = diagnostics.levelset_convexity_probe(problems["cassini"], 5.0)
    assert r.verdict == "empty_region"
    assert r.witness is None


def test_levelset_deterministic(problems):
    a = diagnostics.levelset_convexity_probe(problems["cassini"], 1.5, seed=42)
    b = diagnostics.levelset_convexity_probe(problems["cassini"], 1.5, seed=42)
    assert cli.record("levelset_convexity", a) == cli.record("levelset_convexity", b)
    c = diagnostics.levelset_convexity_probe(problems["cassini"], 1.5, seed=7)
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
    with pytest.raises(DiagnosticsError, match="no strictly feasible samples"):
        diagnostics.phi_convexity_probe(VOID, mu=1.0)


def test_curvature_disk(problems):
    r = diagnostics.tangential_curvature_probe(problems["disk"], _sample(problems["disk"]))
    assert r.vacuous is False
    (entry,) = r.constraints
    assert entry.samples == 256
    assert abs(entry.max_tangential_curvature + 2.0) <= 1e-6


def test_curvature_convex_boundaries(problems):
    for name in ("cassini", "hyperbola"):
        r = diagnostics.tangential_curvature_probe(problems[name], _sample(problems[name]))
        for entry in r.constraints:
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
    r = diagnostics.tangential_curvature_probe(p, _sample(p))
    assert r.vacuous is True
    (entry,) = r.constraints
    assert entry.samples == 0
    assert entry.max_tangential_curvature is None


def test_curvature_reads_empty_region_where_no_hessian_can_be_taken(monkeypatch, problems):
    # every boundary point of the disk is sampled, but none is measured
    p = problems["disk"]
    sample = _sample(p)
    evaluate_dual = expr.evaluate_dual

    def no_hessian(g, x, order):
        if order == 2:
            raise expr.EvalError("no Hessian here")
        return evaluate_dual(g, x, order)

    monkeypatch.setattr(expr, "evaluate_dual", no_hessian)
    r = diagnostics.tangential_curvature_probe(p, sample)
    entry = diagnostics.CurvatureEntry(1, 0, 256, None)
    assert r == diagnostics.CurvatureReport(256, False, [entry], "empty_region")


def test_curvature_skips_and_counts_the_points_without_a_hessian(monkeypatch, problems):
    # near x1 = 1 the zero term's Hessian is undefined (0 * inf) while its
    # value and gradient stay finite: one of the 256 points has no Hessian
    p = problem.problem_from_dict(
        {
            "name": "hessian-overflow",
            "nvars": 2,
            "objective": "x1 + x2",
            "constraints": ["1 - x1^2 - x2^2 + 0*exp(exp(10*(x1 - 1) + 6.551))"],
            "box": [[-1, 1], [-1, 1]],
        }
    )
    walks = []
    evaluate_dual = expr.evaluate_dual

    def counting(g, x, order):
        walks.append((np.ndim(x), order))
        return evaluate_dual(g, x, order)

    monkeypatch.setattr(expr, "evaluate_dual", counting)
    r = diagnostics.tangential_curvature_probe(p, _sample(p))
    (entry,) = r.constraints
    assert (entry.samples, entry.unmeasured) == (255, 1)
    assert abs(entry.max_tangential_curvature + 2.0) <= 1e-6
    assert r.verdict == "convex_up_to_sampling"
    # the batched walk fails, so the gradients take one walk and the Hessians one a point
    assert walks == [(2, 2), (2, 1)] + [(1, 2)] * 256
    walks.clear()
    r = diagnostics.tangential_curvature_probe(problems["disk"], _sample(problems["disk"]))
    assert (r.constraints[0].unmeasured, walks) == (0, [(2, 2)])


def _slater_cases(problems):
    # (problem, SLATER_GRID_RES); 7 divides neither resolution, so tiny blocks split rows
    return [(p, 101) for p in problems.values()] + [(BALL3, 23), (PLATEAU, 101)]


def test_slater_plateau_keeps_the_first_grid_point():
    report = diagnostics.slater_find(PLATEAU)
    assert np.array_equal(report.point, [-1.0, 0.0])
    assert report.margin == 2.0


def test_block_size_does_not_change_results(monkeypatch, problems):
    # the Slater grid scan and the rejection pairs are cut into blocks of
    # GRID_BLOCK_POINTS points; the grid fallback's pairs are not (see
    # test_grid_fallback_verdicts_and_pair_counts)
    levelset_cases = [
        # (problem, level, seed): witnesses at pairs 12 and 42, past the
        # first blocks of 3 pairs, and a convex set scanned to the end
        (problems["cassini"], 1.5, 7),
        (problems["cassini"], 1.5, 42),
        (problems["epsbox"], 0.0, 42),
    ]

    def run_all():
        slater, levelsets = [], []
        for p, res in _slater_cases(problems):
            monkeypatch.setattr(diagnostics, "SLATER_GRID_RES", res)
            slater.append(diagnostics.slater_find(p))
        for p, a, seed in levelset_cases:
            report = diagnostics.levelset_convexity_probe(p, a, seed=seed)
            levelsets.append(cli.record("levelset_convexity", report))
        return slater, levelsets

    monkeypatch.setattr(diagnostics, "LEVELSET_PAIRS", 10000)
    want_slater, want_levelsets = run_all()
    assert [r["method"] for r in want_levelsets] == ["rejection"] * 3
    assert [(r["verdict"], r["pairs_checked"]) for r in want_levelsets] == [
        ("counterexample", 12),
        ("counterexample", 42),
        ("convex_up_to_sampling", 10000),
    ]
    monkeypatch.setattr(problem, "GRID_BLOCK_POINTS", 7)
    got_slater, got_levelsets = run_all()
    assert got_levelsets == want_levelsets
    for want, got in zip(want_slater, got_slater):
        assert np.array_equal(got.point, want.point) and got.margin == want.margin
        assert got.grid_resolution == want.grid_resolution


def test_grid_fallback_verdicts_and_pair_counts(monkeypatch, problems):
    # rejection finds at most one member in each case, so the probe scans
    # the GRID_FALLBACK_RES grid for members, in blocks of GRID_BLOCK_POINTS
    # points, and pairs each of the first GRID_FALLBACK_CAP members with the
    # later ones, one block per member whatever GRID_BLOCK_POINTS is
    cases = [
        (problems["cassini"], 5.0),  # empty region
        (problems["cassini"], 3.9999999),  # the two foci only: a grid counterexample
        (PLANE3, 0.0),  # a plane: more members than GRID_FALLBACK_CAP
        (POINT, 0.0),  # one grid member, so no pair: empty region
    ]

    def run_all():
        return [
            cli.record("levelset_convexity", diagnostics.levelset_convexity_probe(p, a, seed=42))
            for p, a in cases
        ]

    monkeypatch.setattr(diagnostics, "LEVELSET_PAIRS", 1000)
    want = run_all()
    assert [r["method"] for r in want] == ["grid"] * 4
    assert [(r["verdict"], r["pairs_checked"]) for r in want] == [
        ("empty_region", 0),
        ("counterexample", 1),
        ("convex_up_to_sampling", diagnostics.GRID_FALLBACK_CAP * 511 // 2),
        ("empty_region", 0),
    ]
    monkeypatch.setattr(problem, "GRID_BLOCK_POINTS", 7)  # the member scan's blocks only
    assert run_all() == want


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


def _traced_peak(fn):
    fn()  # the first call pays for lazy imports
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_levelset_grid_fallback_memory_stays_bounded():
    # all 130816 pairs at once took 14.4 MiB, blocks of 16384 pairs 2.5 MiB;
    # one member against the later ones at a time takes 1.4 MiB
    report = diagnostics.levelset_convexity_probe(PLANE3, 0.0)
    assert (report.method, report.pairs_checked) == ("grid", 130816)
    assert _traced_peak(lambda: diagnostics.levelset_convexity_probe(PLANE3, 0.0)) < 2 * 2**20


def test_levelset_rejection_memory_stays_bounded():
    # 2.3 MiB when the 20000 member rows were pushed and scanned in one batch;
    # the rows themselves take 0.46 MiB
    report = diagnostics.levelset_convexity_probe(BALL3, 0.0)
    assert (report.method, report.pairs_checked) == ("rejection", 10000)
    assert _traced_peak(lambda: diagnostics.levelset_convexity_probe(BALL3, 0.0)) < 1.2 * 2**20


def test_diagnose_evaluates_at_most_a_block_of_points(monkeypatch, run_cli, problems, tmp_path):
    seen = []
    walk_roots = expr._walk_roots

    def recording(es, x, order):
        seen.append(x.shape[0])
        return walk_roots(es, x, order)

    monkeypatch.setattr(expr, "_walk_roots", recording)
    files = [["--builtin", name] for name in problems]
    for data in (BALL3_DATA, PLANE3_DATA):
        path = tmp_path / f"{data['name']}.json"
        path.write_text(json.dumps(data))
        files.append(["--problem", path])
    checks = "slater,nondegeneracy,curvature,levelset:0,phiconvexity:1"
    for source in files:
        code, _, _ = run_cli(["diagnose", *source, "--check", checks])
        assert code in (0, 3)
    assert max(seen) <= problem.GRID_BLOCK_POINTS
    assert max(seen) >= 5000  # the level-set probe's blocks of pairs


def _boundary_reference(p, sample):
    """Per point and active constraint: (j, gradient norm, top tangential curvature or None)."""
    out = []
    for x, gx in zip(sample.points, problem.evaluate_constraints(p, sample.points)):
        for j, g in enumerate(p.constraints):
            if gx[j] > gx.min():  # active: the least g_j, the one the ray crossed
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
    sample = _sample(p)
    assert (sample.rays, len(sample.active)) == (256, len(p.constraints))
    # each point lies inside K, at the walk's inside end
    least = problem.evaluate_constraints(p, sample.points).min(axis=1)
    assert np.array_equal(sample.residuals, least) and (least >= 0.0).all()
    ref = _boundary_reference(p, sample)
    ndg = diagnostics.nondegeneracy_probe(p, sample)
    cur = diagnostics.tangential_curvature_probe(p, sample)
    # row norms of a stacked array may round differently from a vector's norm
    eps = np.finfo(float).eps
    for j in range(len(p.constraints)):
        norms = [norm for k, norm, _ in ref if k == j]
        tops = [top for k, _, top in ref if k == j and top is not None]
        assert ndg.constraints[j].samples == len(norms)
        assert cur.constraints[j].samples == len(tops)
        if not norms:
            assert ndg.constraints[j].min_gradient_norm is None
            continue
        assert ndg.constraints[j].min_gradient_norm == pytest.approx(min(norms), rel=4 * eps)
        top = cur.constraints[j].max_tangential_curvature
        if not tops:
            assert top is None
        else:
            assert top == pytest.approx(max(tops), rel=1e3 * eps, abs=1e3 * eps)


def test_phi_probe_reports_the_lowest_point_eigenvalue(monkeypatch, problems):
    monkeypatch.setattr(diagnostics, "PHI_SAMPLES", 200)
    p = problems["epsbox"]
    r = diagnostics.phi_convexity_probe(p, 1.0, seed=5)
    eig = np.linalg.eigvalsh(barrier.barrier_hessian(p, r.witness, 1.0))[0]
    assert r.samples == 200
    assert r.min_eigenvalue == eig < 0.0


@pytest.mark.filterwarnings("error")  # no RuntimeWarning may escape
def test_levelset_midpoint_that_overflows_is_no_witness(monkeypatch):
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
    monkeypatch.setattr(diagnostics, "LEVELSET_PAIRS", 2000)
    report = diagnostics.levelset_convexity_probe(p, 0.5)
    assert report.verdict == "convex_up_to_sampling"
    assert report.pairs_checked == 2000
