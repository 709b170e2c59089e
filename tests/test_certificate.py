"""KKT residual scoring, verdicts, and the optimality statement."""

import numpy as np
import pytest

from logbarrier import barrier, certificate, cli, problem
from logbarrier.certificate import Verdict

ZERO_OBJECTIVE_DISK = problem.problem_from_dict(
    {
        "name": "disk-flat",
        "nvars": 2,
        "objective": "0",
        "constraints": ["1 - x1^2 - x2^2"],
        "box": [[-1.5, 1.5], [-1.5, 1.5]],
        "interior_point": [0, 0],
    }
)


def test_exact_kkt_point(problems):
    p = problems["hyperbola"]
    lam = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    cert = certificate.check_kkt(p, np.array([1.0, 1.0]), lam)
    assert cert.verdict is Verdict.KKT_POINT
    assert cert.stationarity_residual == 0.0
    assert cert.complementarity_residual == 0.0
    assert cert.dual_feasibility_violation == 0.0
    assert cert.primal_feasibility_violation == 0.0
    assert cert.active_set == [1]
    assert cert.objective == 2.0


def test_stationarity_failure_named(problems):
    p = problems["hyperbola"]
    lam = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    cert = certificate.check_kkt(p, np.array([2.0, 1.0]), lam)
    assert cert.verdict is Verdict.NOT_CERTIFIED
    # grad f = (1, 1), lam grad g1 = (1, 2) at (2, 1), so the gap is exactly 1
    assert cert.stationarity_residual == 1.0
    statement = certificate.global_optimality_statement(cert, False)
    assert statement.startswith("not certified")
    assert "stationarity" in statement


# hyperbola: grad f = (1, 1), g1 = x1*x2 - 1, g2 = x1, g4 = 10 - x1; at (1, 1),
# lam = (1, 0, 0, 0, 0) is an exact KKT pair
@pytest.mark.parametrize(
    "name, x, lam",
    [
        ("stationarity", [1.0, 1.0], [0.5, 0.0, 0.0, 0.0, 0.0]),
        # lam2 * grad g2 + lam4 * grad g4 = 0, but g2 = 1 and g4 = 9
        ("complementarity", [1.0, 1.0], [1.0, 1.0, 0.0, 1.0, 0.0]),
        ("primal feasibility", [1.0, 1.0 - 1e-6], [1.0, 0.0, 0.0, 0.0, 0.0]),
        ("dual feasibility", [1.0, 1.0], [1.0, -1e-9, 0.0, 0.0, 0.0]),
    ],
)
def test_a_residual_alone_over_its_tolerance_is_named(problems, name, x, lam):
    cert = certificate.check_kkt(problems["hyperbola"], np.array(x), np.array(lam))
    over = {
        "stationarity": cert.stationarity_residual > certificate.STATIONARITY_TOL,
        "complementarity": cert.complementarity_residual > certificate.COMPLEMENTARITY_TOL,
        "primal feasibility": cert.primal_feasibility_violation > certificate.FEASIBILITY_TOL,
        "dual feasibility": cert.dual_feasibility_violation > certificate.DUAL_TOL,
    }
    assert [k for k, v in over.items() if v] == [name]
    assert cert.verdict is Verdict.NOT_CERTIFIED
    statement = certificate.global_optimality_statement(cert, True)
    assert statement.startswith(f"not certified: {name} residual ")


def test_unconstrained_minimum_verdict():
    cert = certificate.check_kkt(ZERO_OBJECTIVE_DISK, np.array([0.2, 0.1]), np.array([0.0]))
    assert cert.verdict is Verdict.UNCONSTRAINED_MINIMUM
    statement = certificate.global_optimality_statement(cert, True)
    assert "gradient vanishes" in statement


def test_negative_multiplier_rejected(problems):
    cert = certificate.check_kkt(
        problems["hyperbola"], np.array([1.0, 1.0]), np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
    )
    assert cert.dual_feasibility_violation == 1.0
    assert cert.verdict is Verdict.NOT_CERTIFIED


def test_tiny_multiplier_clamped(problems):
    lam = np.array([1.0, -1e-13, 0.0, 0.0, 0.0])
    cert = certificate.check_kkt(problems["hyperbola"], np.array([1.0, 1.0]), lam)
    assert cert.dual_feasibility_violation == 0.0
    assert cert.multipliers[1] == 0.0
    assert cert.verdict is Verdict.KKT_POINT


def test_multiplier_shape_checked(problems):
    with pytest.raises(ValueError, match="expected 1 multipliers"):
        certificate.check_kkt(problems["disk"], np.array([0.0, 0.0]), np.array([1.0, 2.0]))


def test_constraint_scaling_invariance(problems):
    # same feasible set, constraint scaled by 4; lam / 4 gives the identical residual
    scaled = problem.problem_from_dict(
        {
            "name": "disk-scaled",
            "nvars": 2,
            "objective": "x1^2 + x2^2 - 2*x1 - 2*x2 + 3",
            "constraints": ["4*(1 - x1^2 - x2^2)"],
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
            "interior_point": [0, 0],
        }
    )
    x = np.array([0.70710678, 0.70710678])
    lam = np.array([0.41421356])
    a = certificate.check_kkt(problems["disk"], x, lam)
    b = certificate.check_kkt(scaled, x, lam / 4.0)
    assert a.stationarity_residual == b.stationarity_residual


def test_barrier_point_residual_identities(problems):
    # with lam = mu / g the stationarity residual IS the barrier gradient norm,
    # and complementarity sits at mu by construction
    rng = np.random.default_rng(41)
    mu = 0.5
    for p in problems.values():
        found = 0
        while found < 5:
            x = rng.uniform(p.box[:, 0], p.box[:, 1])
            be = barrier.barrier_eval(p, x, mu)
            if not be.interior:
                continue
            found += 1
            cert = certificate.check_kkt(p, x, be.multipliers)
            assert cert.stationarity_residual == float(np.linalg.norm(be.gradient))
            assert abs(cert.complementarity_residual - mu) <= 1e-12 * mu


def test_check_is_pure(problems):
    p = problems["epsbox"]
    x = np.array([0.1, 0.9])
    lam = np.array([0.5, 0.0, 0.0, 0.2])
    want = cli.record("certificate", certificate.check_kkt(p, x, lam))
    assert cli.record("certificate", certificate.check_kkt(p, x, lam)) == want


def test_activation_tolerance_controls_active_set(problems):
    p = problems["disk"]
    x = np.array([0.999, 0.0])  # g about 2e-3
    tight = certificate.check_kkt(p, x, np.array([0.0]))
    loose = certificate.check_kkt(p, x, np.array([0.0]), activation=1e-2)
    assert tight.active_set == []
    assert loose.active_set == [1]


def test_statement_branches(problems):
    p = problems["hyperbola"]
    lam = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    cert = certificate.check_kkt(p, np.array([1.0, 1.0]), lam)
    verified = certificate.global_optimality_statement(cert, True)
    assert "global minimizer" in verified
    # nothing checks that the feasible set is convex: the claim must say so
    assert "if the feasible set is convex, which is assumed, not checked" in verified
    assert "verified" not in verified
    cautious = certificate.global_optimality_statement(cert, False, unverified="nondegeneracy")
    assert "nondegeneracy was not verified" in cautious
    assert "no global-optimality claim" in cautious


def _active(p, x, tolerance):
    lam = np.zeros(p.nconstraints)
    return certificate.check_kkt(p, np.array(x), lam, activation=tolerance)


def test_active_set_examples(problems):
    assert _active(problems["hyperbola"], [1.0, 1.0], 1e-6).active_set == [1]
    assert _active(problems["epsbox"], [0.0, 1.0], 1e-6).active_set == [1, 4]
    got = _active(problems["disk"], [0.0, 0.0], 1e-6)
    assert got.active_set == []
    assert got.activation_tolerance == 1e-6


def test_active_set_empty_when_strictly_feasible(problems):
    rng = np.random.default_rng(12)
    for p in problems.values():
        pts = rng.uniform(p.box[:, 0], p.box[:, 1], size=(40, p.nvars))
        for x in pts:
            tol = 1e-8
            if np.all(problem.evaluate_constraints(p, x) > tol):
                assert _active(p, x, tol).active_set == []


def test_record_keys(problems):
    cert = certificate.check_kkt(problems["disk"], np.array([0.0, 0.0]), np.array([2.0]))
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
        "verdict",
    ]
