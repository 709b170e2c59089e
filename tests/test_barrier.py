"""Barrier value, gradient, multiplier estimates, Hessian."""

import math

import numpy as np
import pytest

from logbarrier import barrier, expr, problem
from logbarrier.barrier import InfeasiblePointError

DISK_CENTER = {
    "name": "disk-flat",
    "nvars": 2,
    "objective": "0",
    "constraints": ["1 - x1^2 - x2^2"],
    "box": [[-1.5, 1.5], [-1.5, 1.5]],
    "interior_point": [0, 0],
}


def _feasible_points(p, rng, count, margin=1e-3):
    pts = []
    while len(pts) < count:
        x = rng.uniform(p.box[:, 0], p.box[:, 1])
        if min(expr.evaluate(g, x) for g in p.constraints) > margin:
            pts.append(x)
    return pts


def test_value_at_unit_margin(problems):
    # g = 1 at the disk center, so the ln term vanishes exactly
    disk = problems["disk"]
    f0 = expr.evaluate(disk.objective, np.array([0.0, 0.0]))
    assert barrier.barrier_value(disk, np.array([0.0, 0.0]), 1.0) == f0


def test_value_definition(problems):
    rng = np.random.default_rng(21)
    for p in problems.values():
        for x in _feasible_points(p, rng, 20):
            for mu in (1.0, 0.37, 1e-3):
                want = expr.evaluate(p.objective, x) - mu * sum(
                    math.log(expr.evaluate(g, x)) for g in p.constraints
                )
                got = barrier.barrier_value(p, x, mu)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_value_outside_interior(problems):
    disk = problems["disk"]
    assert barrier.barrier_value(disk, np.array([1.0, 0.0]), 1.0) == math.inf
    assert barrier.barrier_value(disk, np.array([2.0, 0.0]), 1.0) == math.inf


def test_eval_outside_interior(problems):
    be = barrier.barrier_eval(problems["disk"], np.array([1.0, 0.0]), 1.0)
    assert not be.interior
    assert be.value == math.inf
    assert be.gradient is None
    assert be.multipliers is None
    assert be.constraint_values.shape == (1,)


def test_multiplier_estimates(problems):
    be = barrier.barrier_eval(problems["disk"], np.array([0.0, 0.0]), 0.5)
    assert np.array_equal(be.multipliers, [0.5])  # mu / g with g = 1

    rng = np.random.default_rng(22)
    for p in problems.values():
        for x in _feasible_points(p, rng, 10):
            be = barrier.barrier_eval(p, x, 0.25)
            prods = be.multipliers * be.constraint_values
            assert np.abs(prods - 0.25).max() <= 1e-12 * 0.25


def test_gradient_identity_bitwise(problems):
    # gradient must be exactly grad f - grads^T (mu / g), not a numerical cousin
    rng = np.random.default_rng(23)
    for p in problems.values():
        for x in _feasible_points(p, rng, 10):
            be = barrier.barrier_eval(p, x, 0.7)
            fdual = expr.evaluate_dual(p.objective, x)
            grads = np.array([expr.evaluate_dual(g, x).grad for g in p.constraints])
            want = fdual.grad - grads.T @ be.multipliers
            assert np.array_equal(be.gradient, want)


def test_gradient_matches_finite_differences(problems):
    h = 1e-6
    rng = np.random.default_rng(24)
    for p in problems.values():
        for x in _feasible_points(p, rng, 10, margin=1e-2):
            be = barrier.barrier_eval(p, x, 0.5)
            for i in range(p.nvars):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (barrier.barrier_value(p, xp, 0.5) - barrier.barrier_value(p, xm, 0.5)) / (
                    2 * h
                )
                assert abs(be.gradient[i] - fd) <= 1e-5 * max(1.0, abs(be.gradient[i]), abs(fd))


def test_hessian_flat_disk_center():
    p = problem.problem_from_dict(DISK_CENTER)
    h = barrier.barrier_hessian(p, np.array([0.0, 0.0]), 1.0)
    assert np.array_equal(h, 2.0 * np.eye(2))


def test_hessian_scales_linearly_in_mu(problems):
    # linear objective: doubling mu doubles every Hessian entry exactly
    p = problems["cassini"]
    x = np.array([0.3, -0.2])
    assert np.array_equal(
        2.0 * barrier.barrier_hessian(p, x, 0.25), barrier.barrier_hessian(p, x, 0.5)
    )


def test_hessian_indefinite_sample(problems):
    # concave constraint curvature can defeat the 1/g^2 term away from the boundary
    h = barrier.barrier_hessian(problems["epsbox"], np.array([0.5, 0.3]), 1.0)
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] < 0.0


def test_hessian_outside_interior(problems):
    with pytest.raises(InfeasiblePointError, match="min g"):
        barrier.barrier_hessian(problems["disk"], np.array([1.0, 0.0]), 1.0)


def test_mu_must_be_positive(problems):
    disk = problems["disk"]
    x = np.array([0.0, 0.0])
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError, match="mu must be positive"):
            barrier.barrier_value(disk, x, mu)
        with pytest.raises(ValueError, match="mu must be positive"):
            barrier.barrier_eval(disk, x, mu)
        with pytest.raises(ValueError, match="mu must be positive"):
            barrier.barrier_hessian(disk, x, mu)


def test_value_infinite_where_an_expression_is_undefined():
    p = problem.problem_from_dict(
        {
            "name": "ln-objective",
            "nvars": 1,
            "objective": "ln(x1 - 1)",
            "constraints": ["x1", "5 - x1", "ln(x1 + 1)"],
            "box": [[-2, 6]],
        }
    )
    assert barrier.barrier_value(p, [0.5], 1.0) == math.inf  # every g_j > 0, f undefined
    assert barrier.barrier_value(p, [-1.5], 1.0) == math.inf  # g_3 undefined
    assert math.isfinite(barrier.barrier_value(p, [2.0], 1.0))


def test_hessian_of_a_batch_stacks_the_point_hessians(problems):
    rng = np.random.default_rng(111)
    for p in problems.values():
        pts = np.array(_feasible_points(p, rng, 50))
        stacked = barrier.barrier_hessian(p, pts, 0.3)
        assert stacked.shape == (len(pts), p.nvars, p.nvars)
        for x, h in zip(pts, stacked):
            assert np.array_equal(h, barrier.barrier_hessian(p, x, 0.3))
