"""KKT residual scoring, verdicts, and the optimality statement."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from logbarrier import certificate, cli, continuation, corpus, diagnostics, expr, problem
from logbarrier.certificate import Verdict


def _over_the_disk(objective, constraint="1 - x1^2 - x2^2"):
    return problem.problem_from_dict(
        {
            "name": "disk-variant",
            "nvars": 2,
            "objective": objective,
            "constraints": [constraint],
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
            "interior_point": [0, 0],
        }
    )


DATA = Path(__file__).resolve().parents[1] / "src" / "logbarrier" / "data"
HYPERBOLA = corpus.builtin("hyperbola").problem
DEGENERATE_DISK = corpus.builtin("degenerate-disk").problem
LINEAR_DISK = _over_the_disk("x1")
STEEP_DISK = _over_the_disk("200*x1")


def test_exact_kkt_point():
    cert = certificate.check_kkt(HYPERBOLA, np.array([1.0, 1.0]))
    assert cert.verdict is Verdict.KKT_POINT
    np.testing.assert_allclose(cert.multipliers, [1.0, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)
    assert cert.stationarity_residual <= 1e-15
    assert cert.complementarity_residual == 0.0
    assert cert.dual_feasibility_violation == 0.0
    assert cert.primal_feasibility_violation == 0.0
    assert cert.active_set == [1]
    assert cert.objective == 2.0


def test_stationarity_failure_named():
    cert = certificate.check_kkt(HYPERBOLA, np.array([2.0, 0.5]))
    assert cert.verdict is Verdict.NOT_CERTIFIED
    # grad f = (1, 1) and grad g1 = (0.5, 2): the part of grad f off grad g1
    # has norm |1 * 2 - 1 * 0.5| / |(0.5, 2)| = 1.5 / sqrt(4.25)
    assert cert.stationarity_residual == pytest.approx(1.5 / np.sqrt(4.25), rel=1e-12)
    assert cert.statement.startswith("not certified")
    assert "stationarity" in cert.statement


# the problem each residual is shown on, and for each the point x and the
# multipliers check_kkt picks there
PROBLEM_OF = {
    "stationarity": HYPERBOLA,
    "complementarity": STEEP_DISK,  # g1 about 1e-6 is active, lam = 100
    "primal feasibility": HYPERBOLA,
    "dual feasibility": LINEAR_DISK,  # grad f = (1, 0) = -0.5 grad g1 at (1, 0)
}


@pytest.mark.parametrize(
    "name, x, lam",
    [
        ("stationarity", [2.0, 0.5], [10 / 17, 0.0, 0.0, 0.0, 0.0]),
        ("complementarity", [-(1 - 5e-7), 0.0], [100 / (1 - 5e-7)]),
        ("primal feasibility", [1.0, 1.0 - 1e-6], [1.0000005, 0.0, 0.0, 0.0, 0.0]),
        ("dual feasibility", [1.0, 0.0], [-0.5]),
    ],
)
def test_a_residual_alone_over_its_tolerance_is_named(name, x, lam):
    cert = certificate.check_kkt(PROBLEM_OF[name], np.array(x))
    np.testing.assert_allclose(cert.multipliers, lam, rtol=1e-9, atol=0)
    over = {
        "stationarity": cert.stationarity_residual > certificate.STATIONARITY_TOL,
        "complementarity": cert.complementarity_residual > certificate.COMPLEMENTARITY_TOL,
        "primal feasibility": cert.primal_feasibility_violation > certificate.FEASIBILITY_TOL,
        "dual feasibility": cert.dual_feasibility_violation > certificate.DUAL_TOL,
    }
    assert [k for k, v in over.items() if v] == [name]
    assert cert.verdict is Verdict.NOT_CERTIFIED
    assert cert.statement.startswith(f"not certified: {name} residual ")


def test_a_flat_objective_inside_is_a_kkt_point_with_nothing_active():
    flat = _over_the_disk("0")
    cert = certificate.check_kkt(flat, np.array([0.2, 0.1]))
    assert (cert.verdict, cert.active_set, cert.multipliers.tolist()) == (
        Verdict.KKT_POINT,
        [],
        [0.0],
    )
    assert "x is a KKT point" in cert.statement
    # on the boundary least squares gives lam = -0.0, which prints as 0.0
    cert = certificate.check_kkt(flat, np.array([1.0, 0.0]))
    assert (cert.verdict, cert.active_set) == (Verdict.KKT_POINT, [1])
    assert cert.multipliers.tolist() == [0.0] and not np.signbit(cert.multipliers[0])


def test_negative_multiplier_rejected():
    # x1 over the disk is largest, not least, at (1, 0)
    cert = certificate.check_kkt(LINEAR_DISK, np.array([1.0, 0.0]))
    assert cert.multipliers.tolist() == [-0.5]
    assert cert.dual_feasibility_violation == 0.5
    assert cert.verdict is Verdict.NOT_CERTIFIED


def test_constraint_scaling_invariance(problems):
    # same feasible set, constraint scaled by 4: the same active set, lam / 4
    # and the identical stationarity residual
    scaled = _over_the_disk("(x1 - 1)^2 + (x2 - 1)^2", "4*(1 - x1^2 - x2^2)")
    x = np.array([0.70710678, 0.70710678])
    a = certificate.check_kkt(problems["disk"], x)
    b = certificate.check_kkt(scaled, x)
    assert a.active_set == b.active_set == [1]
    assert b.multipliers[0] == pytest.approx(a.multipliers[0] / 4.0, rel=1e-12)
    assert a.stationarity_residual == b.stationarity_residual


def test_check_is_pure(problems):
    p = problems["epsbox"]
    x = np.array([0.1, 0.9])
    want = cli.record("certificate", certificate.check_kkt(p, x))
    assert cli.record("certificate", certificate.check_kkt(p, x)) == want


def test_activation_tolerance_controls_active_set():
    # g_j <= ACTIVE_DISTANCE * w * |grad g_j| is a distance of 3e-6 in the
    # box of width 3: 1e-3 from the circle is inactive and 1e-7 active,
    # whatever g's scale
    for constraint in ["1 - x1^2 - x2^2", "1e4*(1 - x1^2 - x2^2)"]:
        p = _over_the_disk("(x1 - 1)^2 + (x2 - 1)^2", constraint)
        assert certificate.check_kkt(p, np.array([0.999, 0.0])).active_set == [], constraint
        assert certificate.check_kkt(p, np.array([1.0 - 1e-7, 0.0])).active_set == [1], constraint


@pytest.mark.parametrize("k", [-10, 0, 10])
@pytest.mark.parametrize("name", corpus.names())
def test_verdict_and_limit_do_not_depend_on_the_units_of_x(traces, name, k):
    # the builtin written in y = x / 2^k: each x_i becomes 2^k * x_i, and the
    # box and interior point are divided by 2^k, which a power of two does exactly
    a = 2.0**k
    data = json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))

    def scaled(text):
        return re.sub(r"\bx(\d+)\b", rf"({a!r}*x\1)", text)

    data["objective"] = scaled(data["objective"])
    data["constraints"] = [scaled(g) for g in data["constraints"]]
    data["box"] = (np.array(data["box"]) / a).tolist()
    data["interior_point"] = (np.array(data["interior_point"]) / a).tolist()
    got = continuation.solve(problem.problem_from_dict(data)).final_certificate
    want = traces[name].final_certificate
    assert got.verdict == want.verdict
    assert np.array_equal(got.x * a, want.x), (got.x * a, want.x)


def test_active_set_examples(problems):
    assert certificate.check_kkt(HYPERBOLA, [1.0, 1.0]).active_set == [1]
    assert certificate.check_kkt(problems["epsbox"], [0.0, 1.0]).active_set == [1, 4]
    got = certificate.check_kkt(problems["disk"], [0.0, 0.0])
    assert (got.active_set, got.least_active_singular_value) == ([], None)
    # the activity distance is ACTIVE_DISTANCE times the box's largest width, 3 for the disk
    assert got.activation_tolerance == certificate.ACTIVE_DISTANCE * 3.0 == 3e-6


def test_active_set_empty_when_strictly_feasible(problems):
    # a point where every g_j exceeds ACTIVE_DISTANCE * w * |grad g_j|, w the
    # box's largest width, lies farther than that from each zero set, to first order
    rng = np.random.default_rng(12)
    for p in problems.values():
        pts = rng.uniform(p.box[:, 0], p.box[:, 1], size=(40, p.nvars))
        distance = certificate.ACTIVE_DISTANCE * np.max(p.box[:, 1] - p.box[:, 0])
        for x in pts:
            jet = expr.jets(p.constraints, x, 1)
            margin = jet.value - distance * np.linalg.norm(jet.grad, axis=1)
            if np.all(margin > 0.0):
                assert certificate.check_kkt(p, x).active_set == []


def test_statement_branches():
    cert = certificate.check_kkt(HYPERBOLA, np.array([1.0, 1.0]))
    claim = cert.statement
    assert claim.startswith(
        "x is a KKT point at the stated tolerances whose active constraint gradients do not vanish"
    )
    assert "global minimizer" in claim
    # nothing checks that f or the feasible set is convex: the claim must say so
    assert "if f and the feasible set are convex, which is assumed, not checked" in claim
    assert "verified" not in claim
    # near the degenerate-disk limit, 1 - |x|^2 = 1e-6: every residual passes
    # with lam about 1e11, yet grad g1 = 3e-12 * -2x vanishes while grad f does not
    x = np.full(2, np.sqrt(0.5 - 5e-7))
    cert = certificate.check_kkt(DEGENERATE_DISK, x)
    assert cert.stationarity_residual <= certificate.STATIONARITY_TOL
    assert cert.complementarity_residual <= certificate.COMPLEMENTARITY_TOL
    assert cert.primal_feasibility_violation <= certificate.FEASIBILITY_TOL
    assert cert.dual_feasibility_violation <= certificate.DUAL_TOL
    refused = cert.statement
    assert cert.verdict is Verdict.NOT_CERTIFIED
    assert refused.startswith("not certified: the active constraint gradients vanish at x")
    assert "no finite multiplier exists" in refused
    # where grad f vanishes as well, lam = 0 is finite and x is certified
    cert = certificate.check_kkt(_over_the_disk("(x1 - x2)^2", "(1 - x1^2 - x2^2)^3"), x)
    assert (cert.verdict, cert.active_set) == (Verdict.KKT_POINT, [1])
    assert cert.least_active_singular_value < diagnostics.NONDEGENERACY_DELTA
    claim = cert.statement
    assert claim.startswith("x is a KKT point at the stated tolerances where grad f vanishes")


def test_record_keys(problems):
    cert = certificate.check_kkt(problems["disk"], np.array([0.0, 0.0]))
    rec = cli.record("certificate", cert)
    assert rec["record"] == "certificate"
    assert list(rec) == [
        "record",
        "x",
        "multipliers",
        "objective",
        "stationarity_residual",
        "complementarity_residual",
        "dual_feasibility_violation",
        "primal_feasibility_violation",
        "active_set",
        "activation_tolerance",
        "least_active_singular_value",
        "verdict",
        "statement",
    ]
