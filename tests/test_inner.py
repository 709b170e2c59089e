"""Fixed-mu inner minimization: descent, feasibility, termination statuses."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from logbarrier import barrier, expr, inner, problem
from logbarrier.inner import InfeasibleStartError, InnerStatus

DISK_FLAT = problem.problem_from_dict(
    {
        "name": "disk-flat",
        "nvars": 2,
        "objective": "0",
        "constraints": ["1 - x1^2 - x2^2"],
        "box": [[-1.5, 1.5], [-1.5, 1.5]],
        "interior_point": [0, 0],
    }
)

UNIT_BOX = problem.problem_from_dict(
    {
        "name": "unit-box",
        "nvars": 2,
        "objective": "x1 + x2",
        "constraints": ["x1", "1 - x1", "x2", "1 - x2"],
        "box": [[-0.5, 1.5], [-0.5, 1.5]],
        "interior_point": [0.5, 0.5],
    }
)


def test_default_tolerance():
    assert inner.default_tolerance(1.0, 1e-8) == 1e-2
    assert inner.default_tolerance(1e-8, 1e-8) == 1e-8
    assert inner.default_tolerance(5e-7, 1e-8) == 1e-8


def test_analytic_center():
    r = inner.solve_inner(DISK_FLAT, 1.0, np.array([0.6, -0.3]), tol=1e-9)
    assert r.status is InnerStatus.CONVERGED
    assert np.abs(r.x).max() <= 1e-6


def test_monotone_descent_and_feasible_iterates(monkeypatch, problems):
    # solves are deterministic, so a solve capped at k steps ends at iterate k
    p = problems["cassini"]
    x0 = np.array([0.1, 0.1])
    tol = inner.default_tolerance(1.0, 1e-8)
    r = inner.solve_inner(p, 1.0, x0, tol)
    assert r.status is InnerStatus.CONVERGED
    iterates = []
    for k in range(r.iterations + 1):
        monkeypatch.setattr(inner, "MAX_ITERS", k)
        capped = inner.solve_inner(p, 1.0, x0, tol)
        assert capped.iterations == k
        iterates.append(capped.x)
    assert np.array_equal(iterates[0], x0)
    assert np.array_equal(iterates[-1], r.x)
    values = [barrier.barrier_eval(p, x, 1.0).value for x in iterates]
    assert all(b < a for a, b in zip(values, values[1:]))
    for x in iterates:
        assert min(expr.evaluate(g, x) for g in p.constraints) > 0.0
    assert r.grad_norm <= tol


def test_small_mu_tracks_constrained_minimizer(problems):
    r = inner.solve_inner(problems["disk"], 1e-6, np.array([0.0, 0.0]), 1e-8)
    assert r.status is InnerStatus.CONVERGED
    root_half = np.sqrt(0.5)
    assert np.abs(r.x - root_half).max() <= 1e-3


def test_start_independence(problems):
    p = problems["disk"]
    rng = np.random.default_rng(31)
    results = []
    while len(results) < 10:
        x0 = rng.uniform(p.box[:, 0], p.box[:, 1])
        if expr.evaluate(p.constraints[0], x0) < 0.05:
            continue
        r = inner.solve_inner(p, 0.1, x0, tol=1e-10)
        assert r.status is InnerStatus.CONVERGED
        results.append(r.x)
    for x in results[1:]:
        assert np.abs(x - results[0]).max() <= 1e-6


def test_newton_agrees_with_nelder_mead(problems):
    # an independent derivative-free minimizer of the same barrier value
    p = problems["cassini"]
    b = inner.solve_inner(p, 0.5, np.array([0.2, -0.1]), tol=1e-7)
    a = minimize(
        lambda x: barrier.barrier_value(p, x, 0.5),
        [0.2, -0.1],
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxiter": 10000},
    )
    assert a.success
    assert b.status is InnerStatus.CONVERGED
    assert np.abs(a.x - b.x).max() <= 1e-5
    assert b.iterations < a.nit


def test_infeasible_start(problems):
    with pytest.raises(InfeasibleStartError, match="strictly interior"):
        inner.solve_inner(problems["disk"], 1.0, np.array([2.0, 0.0]), 1e-2)
    # boundary is not interior either
    with pytest.raises(InfeasibleStartError):
        inner.solve_inner(problems["disk"], 1.0, np.array([1.0, 0.0]), 1e-2)


def test_max_iters_status(monkeypatch, problems):
    monkeypatch.setattr(inner, "MAX_ITERS", 1)
    tol = inner.default_tolerance(1e-4, 1e-8)
    r = inner.solve_inner(problems["cassini"], 1e-4, np.array([0.1, 0.1]), tol)
    assert r.status is InnerStatus.MAX_ITERS
    assert r.iterations == 1
    assert r.grad_norm > tol


def test_line_search_stall_status(problems):
    # within an ulp of the boundary every backtracked Newton step either
    # leaves the interior or fails the Armijo test
    p = problems["cassini"]
    x0 = np.array([-1.6063481213192292, -0.45167526013009995])
    assert 0.0 < expr.evaluate(p.constraints[0], x0) <= 1e-15
    r = inner.solve_inner(p, 1.0, x0, 1e-2)
    assert r.status is InnerStatus.LINE_SEARCH_STALL
    assert r.iterations == 0
    assert min(expr.evaluate(g, r.x) for g in p.constraints) > 0.0


def test_a_step_that_leaves_phi_unchanged_is_refused(monkeypatch, problems):
    # within an ulp of the boundary the Newton step is about 1e-16 long; at
    # t = 2.9e-11 the decrease Armijo asks for rounds away, and accepting
    # the equal value there moved x2 by 1.6e-27 a step until MAX_ITERS
    monkeypatch.setattr(inner, "MAX_ITERS", 50)
    p = problems["cassini"]
    x0 = np.array([1.7320508075688772, 0.0])
    r = inner.solve_inner(p, 1.0, x0, inner.default_tolerance(1.0, 1e-8))
    assert r.status is not InnerStatus.MAX_ITERS
    assert r.status is InnerStatus.LINE_SEARCH_STALL
    assert np.array_equal(r.x, x0)


def test_newton_direction_is_steepest_descent_where_the_hessian_overflows():
    # w = grad g1 / g1 = (1e170, 0), so mu w w^T overflows to inf
    x = np.array([1e-170, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        gradient = barrier.barrier_eval(UNIT_BOX, x, 1.0).gradient
        assert not np.all(np.isfinite(barrier.barrier_hessian(UNIT_BOX, x, 1.0)))
        d, slope = inner._newton_step(UNIT_BOX, x, 1.0, gradient)
    assert np.all(np.isfinite(gradient))
    assert np.array_equal(d, -gradient)
    assert slope == -math.inf  # |gradient|^2 overflows, with no warning


def _singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.mark.parametrize(
    "solve",
    [_singular, lambda a, b: -b, lambda a, b: np.full_like(b, np.nan)],
    ids=["singular", "ascent", "not-finite"],
)
def test_newton_direction_is_steepest_descent_where_the_solve_fails(monkeypatch, solve):
    x = np.array([0.3, 0.6])
    gradient = barrier.barrier_eval(UNIT_BOX, x, 1.0).gradient
    assert not np.array_equal(inner._newton_step(UNIT_BOX, x, 1.0, gradient)[0], -gradient)
    monkeypatch.setattr(inner.np.linalg, "solve", solve)
    assert np.array_equal(inner._newton_step(UNIT_BOX, x, 1.0, gradient)[0], -gradient)
