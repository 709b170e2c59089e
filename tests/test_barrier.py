"""Barrier value, gradient, multiplier estimates, Hessian."""

import math
import warnings

import numpy as np
import pytest

from logbarrier import barrier, corpus, expr, problem
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
    # off the strict interior there is no gradient to return, so the evaluation refuses
    with pytest.raises(InfeasiblePointError, match="min g"):
        barrier.barrier_eval(problems["disk"], np.array([1.0, 0.0]), 1.0)


# per builtin, a point where the least g_j is exactly 0 and one where it is negative
EDGE_POINTS = {
    "cassini": ([0.0, 1.0], [2.0, 0.0]),
    "hyperbola": ([1.0, 1.0], [0.5, 0.5]),
    "epsbox": ([0.5, 0.0], [0.5, -0.5]),
    "disk": ([1.0, 0.0], [1.5, 0.0]),
    "degenerate-disk": ([1.0, 0.0], [1.5, 0.0]),
}


@pytest.mark.parametrize("name", corpus.names())
def test_the_barrier_is_defined_on_the_strict_interior_alone(problems, name):
    p = problems[name]
    boundary, exterior = map(np.array, EDGE_POINTS[name])
    assert problem.evaluate_constraints(p, boundary).min() == 0.0
    assert problem.evaluate_constraints(p, exterior).min() < 0.0
    for x in (boundary, exterior):
        assert barrier.barrier_value(p, x, 1.0) == math.inf
        with pytest.raises(InfeasiblePointError, match="min g"):
            barrier.barrier_eval(p, x, 1.0)
        with pytest.raises(InfeasiblePointError, match="min g"):
            barrier.barrier_hessian(p, x, 1.0)
    with pytest.raises(InfeasiblePointError, match="min g"):  # one exterior point in a batch
        barrier.barrier_hessian(p, np.array([p.interior_point, exterior]), 1.0)
    # every g_j > 0 at the interior point, and ln of a negative number there
    undefined = p._replace(objective=expr.parse("ln(x1 - 100)", p.nvars))
    assert barrier.barrier_value(undefined, p.interior_point, 1.0) == math.inf
    with pytest.raises(expr.EvalError):
        barrier.barrier_eval(undefined, p.interior_point, 1.0)


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


def test_value_is_bitwise_the_evaluation_value_along_every_path(problems, traces):
    # the inner line search compares a barrier_value against a barrier_eval
    # value, so the two must round alike
    for name, trace in traces.items():
        p = problems[name]
        for pt in trace.points:
            want = barrier.barrier_eval(p, pt.x, pt.mu).value
            assert barrier.barrier_value(p, pt.x, pt.mu) == want, (name, pt.mu)


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


@pytest.mark.parametrize("fn", [barrier.barrier_value, barrier.barrier_eval])
def test_point_functions_refuse_a_batch(problems, fn):
    # summed over a batch, the log term would mix every point's g_j into each value
    with pytest.raises(ValueError, match="takes one point"):
        fn(problems["disk"], np.array([[0.0, 0.0], [0.5, 0.0]]), 1.0)


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


def test_hessian_stays_finite_where_a_constraint_value_squared_overflows():
    p = problem.problem_from_dict(
        {
            "name": "exp-wall",
            "nvars": 1,
            "objective": "x1",
            "constraints": ["exp(x1) - exp(-1)", "500 - x1"],
            "box": [[-2, 600]],
        }
    )
    xs = np.array([[460.0], [3.0]])  # g_1(460) is about 1e199, so g_1^2 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = barrier.barrier_hessian(p, xs, 1.0)
        at_460 = barrier.barrier_hessian(p, xs[0], 1.0)
    c = math.exp(-1)
    for x, h in zip(xs[:, 0], stacked):
        r = c * math.exp(-x)  # c e^x / (e^x - c)^2, rewritten to stay finite
        want = r / (1 - r) ** 2 + 1 / (500 - x) ** 2
        assert h[0, 0] == pytest.approx(want, rel=1e-12)
    assert np.array_equal(at_460, stacked[0])


def test_each_barrier_call_walks_f_and_every_g_once(monkeypatch, problems):
    walks = []
    walk_roots = expr._walk_roots

    def recording(es, x, order):
        walks.append(len(es))
        return walk_roots(es, x, order)

    monkeypatch.setattr(expr, "_walk_roots", recording)
    rng = np.random.default_rng(112)
    for p in problems.values():
        pts = np.array(_feasible_points(p, rng, 5))
        calls = [
            (barrier.barrier_value, pts[0]),
            (barrier.barrier_eval, pts[0]),
            (barrier.barrier_hessian, pts[0]),
            (barrier.barrier_hessian, pts),  # the phi probe's batch
        ]
        for fn, x in calls:
            walks.clear()
            fn(p, x, 0.3)
            assert walks == [1 + len(p.constraints)], (p.name, fn.__name__, x.shape)


def _eval_from_separate_walks(p, x, mu):
    """barrier_eval's value, gradient and objective from a walk of f and one of the g_j."""
    f, g = expr.evaluate_dual(p.objective, x, 1), expr.jets(p.constraints, x, 1)
    multipliers = mu / g.value
    value = f.value - mu * float(np.sum(np.log(g.value)))
    return value, f.grad - g.grad.T @ multipliers, f.value


def _hessian_from_separate_walks(p, x, mu):
    g = expr.jets(p.constraints, x, 2)
    h = expr.evaluate_dual(p.objective, x).hess
    with np.errstate(over="ignore"):
        w = g.grad / g.value[..., None]
        terms = mu * (w[..., :, None] * w[..., None, :]) - (mu / g.value)[..., None, None] * g.hess
        for term in terms:
            h += term
    return h


def test_one_jet_rounds_as_separate_walks_of_f_and_the_constraints(problems, traces):
    rng = np.random.default_rng(113)
    for name, p in problems.items():
        sampled = [(x, 0.7) for x in _feasible_points(p, rng, 10)]
        for x, mu in sampled + [(pt.x, pt.mu) for pt in traces[name].points]:
            be = barrier.barrier_eval(p, x, mu)
            value, gradient, objective = _eval_from_separate_walks(p, x, mu)
            assert be.value == value and be.objective == objective, (name, mu)
            assert np.array_equal(be.gradient, gradient), (name, mu)
            want = _hessian_from_separate_walks(p, x, mu)
            assert np.array_equal(barrier.barrier_hessian(p, x, mu), want), (name, mu)
        pts = np.array([x for x, _ in sampled])
        want = _hessian_from_separate_walks(p, pts, 0.7)
        assert np.array_equal(barrier.barrier_hessian(p, pts, 0.7), want), name
