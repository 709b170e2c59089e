"""Fixed-mu inner minimization: descent, feasibility, termination statuses."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

from logbarrier import barrier, expr, inner, problem
from logbarrier.barrier import InfeasiblePointError
from logbarrier.inner import InnerStatus

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


def test_analytic_center(monkeypatch):
    monkeypatch.setattr(inner, "STAGE_TARGET", 1e-9)
    r = inner.solve_inner(DISK_FLAT, 1.0, np.array([0.6, -0.3]))
    assert r.status is InnerStatus.CONVERGED
    assert np.abs(r.x).max() <= 1e-6


def test_monotone_descent_and_feasible_iterates(monkeypatch, problems):
    # solves are deterministic, so a solve capped at k steps ends at iterate k
    p = problems["cassini"]
    x0 = np.array([0.1, 0.1])
    r = inner.solve_inner(p, 1.0, x0)
    assert r.status is InnerStatus.CONVERGED
    iterates = []
    for k in range(r.iterations + 1):
        monkeypatch.setattr(inner, "MAX_ITERS", k)
        capped = inner.solve_inner(p, 1.0, x0)
        assert capped.iterations == k
        iterates.append(capped.x)
    assert np.array_equal(iterates[0], x0)
    assert np.array_equal(iterates[-1], r.x)
    values = [barrier.barrier_eval(p, x, 1.0).value for x in iterates]
    assert all(b < a for a, b in zip(values, values[1:]))
    for x in iterates:
        assert min(expr.evaluate(g, x) for g in p.constraints) > 0.0
    assert r.grad_norm <= inner.STAGE_TARGET * 1.0


def test_small_mu_tracks_constrained_minimizer(problems):
    r = inner.solve_inner(problems["disk"], 1e-6, np.array([0.0, 0.0]))
    assert r.status is InnerStatus.CONVERGED
    root_half = np.sqrt(0.5)
    assert np.abs(r.x - root_half).max() <= 1e-3


def test_start_independence(monkeypatch, problems):
    monkeypatch.setattr(inner, "STAGE_TARGET", 1e-9)  # 1e-10 at mu 0.1
    p = problems["disk"]
    rng = np.random.default_rng(31)
    results = []
    while len(results) < 10:
        x0 = rng.uniform(p.box[:, 0], p.box[:, 1])
        if expr.evaluate(p.constraints[0], x0) < 0.05:
            continue
        r = inner.solve_inner(p, 0.1, x0)
        assert r.status in (InnerStatus.CONVERGED, InnerStatus.NO_PROGRESS)
        results.append(r.x)
    for x in results[1:]:
        assert np.abs(x - results[0]).max() <= 1e-6


def test_newton_agrees_with_nelder_mead(monkeypatch, problems):
    # an independent derivative-free minimizer of the same barrier value
    monkeypatch.setattr(inner, "STAGE_TARGET", 2e-7)  # 1e-7 at mu 0.5
    p = problems["cassini"]
    b = inner.solve_inner(p, 0.5, np.array([0.2, -0.1]))
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
    with pytest.raises(InfeasiblePointError, match="strictly interior"):
        inner.solve_inner(problems["disk"], 1.0, np.array([2.0, 0.0]))
    # boundary is not interior either
    with pytest.raises(InfeasiblePointError):
        inner.solve_inner(problems["disk"], 1.0, np.array([1.0, 0.0]))


def test_max_iters_status(monkeypatch, problems):
    monkeypatch.setattr(inner, "MAX_ITERS", 1)
    r = inner.solve_inner(problems["cassini"], 1e-4, np.array([0.1, 0.1]))
    assert r.status is InnerStatus.MAX_ITERS
    assert r.iterations == 1
    assert r.grad_norm > inner.STAGE_TARGET * 1e-4


def _counting_trials(monkeypatch) -> list:
    """One entry per barrier_value call solve_inner makes from now on."""
    calls = []
    barrier_value = inner.barrier_value

    def counting(*args):
        calls.append(None)
        return barrier_value(*args)

    monkeypatch.setattr(inner, "barrier_value", counting)
    return calls


def test_no_step_from_the_boundary_ends_no_progress(monkeypatch, problems):
    # within an ulp of the boundary every backtracked Newton step either
    # leaves the interior or fails the Armijo test, until the decrease it
    # predicts rounds away against phi
    p = problems["cassini"]
    x0 = np.array([-1.6063481213192292, -0.45167526013009995])
    assert 0.0 < expr.evaluate(p.constraints[0], x0) <= 1e-15
    trials = _counting_trials(monkeypatch)
    r = inner.solve_inner(p, 1.0, x0)
    assert (r.status, r.iterations) == (InnerStatus.NO_PROGRESS, 1)
    assert np.array_equal(r.x, x0)
    assert len(trials) <= 54


def test_a_step_that_leaves_phi_unchanged_is_refused(monkeypatch, problems):
    # within an ulp of the boundary the Newton step is about 1e-16 long; at
    # t = 2.9e-11 the decrease Armijo asks for rounds away, and accepting
    # the equal value there moved x2 by 1.6e-27 a step until MAX_ITERS
    monkeypatch.setattr(inner, "MAX_ITERS", 50)
    p = problems["cassini"]
    x0 = np.array([1.7320508075688772, 0.0])
    trials = _counting_trials(monkeypatch)
    r = inner.solve_inner(p, 1.0, x0)
    assert (r.status, r.iterations) == (InnerStatus.NO_PROGRESS, 1)
    assert np.array_equal(r.x, x0)
    assert len(trials) <= 54


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
