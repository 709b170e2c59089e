"""Expression layer: parsing, evaluation, forward-mode first and second derivatives."""

import gc
import weakref

import numpy as np
import pytest

from logbarrier import expr
from logbarrier.expr import (
    Add,
    Const,
    Div,
    EvalError,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    ParseError,
    Pow,
    Sub,
    Var,
)


def test_parse_structure():
    assert expr.parse("x1 + x2", 2) == Expr(Add(Var(0), Var(1)), 2)
    assert expr.parse("-2", 1).root == Neg(Const(2.0))
    assert expr.parse("x1^2^3", 1).root == Pow(Pow(Var(0), 2), 3)


@pytest.mark.parametrize(
    "text, x, want",
    [
        ("5", [0.0], 5.0),
        ("x1*x2 - 1", [2.0, 1.0], 1.0),
        ("x1/x2", [1.0, 4.0], 0.25),
        ("x1^-2", [2.0], 0.25),
        ("2*x1^2", [3.0], 18.0),  # ^ binds tighter than *
        ("-x1^2", [2.0], -4.0),  # unary minus binds looser than ^
        ("x1 - -x2", [1.0, 2.0], 3.0),
        ("exp(0) + ln(1)", [0.0], 1.0),
        ("( x1 ) * ( x2 )", [2.0, 3.0], 6.0),
    ],
)
def test_evaluate(text, x, want):
    e = expr.parse(text, len(x))
    assert expr.evaluate(e, np.array(x)) == want


@pytest.mark.parametrize(
    "text, position, fragment",
    [
        ("x1 +", 4, "end of input"),
        ("", 0, "end of input"),
        ("(x1", 3, "end of input"),
        ("x1 x2", 3, "trailing"),
        ("x1^2.5", 3, "integer literal"),
        ("x1^(2)", 3, "integer literal"),
        ("x0", 0, "out of range"),
        ("x3", 0, "out of range"),
        ("y1", 0, "unknown identifier"),
    ],
)
def test_parse_errors(text, position, fragment):
    with pytest.raises(ParseError) as ei:
        expr.parse(text, 2)
    assert ei.value.position == position
    assert fragment in str(ei.value)


@pytest.mark.parametrize(
    "text, x",
    [
        ("ln(x1)", [0.0]),
        ("ln(x1)", [-1.0]),
        ("x1/x2", [1.0, 0.0]),
        ("x1^-1", [0.0]),
    ],
)
def test_evaluate_domain_errors(text, x):
    e = expr.parse(text, len(x))
    with pytest.raises(EvalError):
        expr.evaluate(e, np.array(x))
    with pytest.raises(EvalError):
        expr.evaluate_dual(e, np.array(x))


def test_dual_examples():
    d = expr.evaluate_dual(expr.parse("x1*x2", 2), np.array([2.0, 3.0]))
    assert d.value == 6.0
    assert np.array_equal(d.grad, [3.0, 2.0])
    assert np.array_equal(d.hess, [[0.0, 1.0], [1.0, 0.0]])

    d = expr.evaluate_dual(expr.parse("ln(x1)", 1), np.array([2.0]))
    assert d.grad[0] == 0.5
    assert d.hess[0, 0] == -0.25

    d = expr.evaluate_dual(expr.parse("x1^3", 1), np.array([2.0]))
    assert (d.value, d.grad[0], d.hess[0, 0]) == (8.0, 12.0, 12.0)


def _random_tree(rng, nvars, depth):
    # positive constants only: a negative literal would re-parse as Neg(Const)
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Const(round(float(rng.uniform(0.5, 2.5)), 6))
        return Var(int(rng.integers(nvars)))
    a = _random_tree(rng, nvars, depth - 1)
    b = _random_tree(rng, nvars, depth - 1)
    op = int(rng.integers(7))
    if op == 0:
        return Add(a, b)
    if op == 1:
        return Sub(a, b)
    if op == 2:
        return Mul(a, b)
    if op == 3:
        return Neg(a)
    if op == 4:
        return Pow(a, int(rng.integers(2, 4)))
    if op == 5:
        return Ln(Add(Const(1.5), Mul(a, a)))  # argument >= 1.5, always safe
    return Div(a, Add(Const(1.5), Mul(b, b)))


def _sample_cases(seed, count, nvars=2):
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        e = Expr(_random_tree(rng, nvars, 4), nvars)
        x = rng.uniform(-2.0, 2.0, size=nvars)
        try:
            d = expr.evaluate_dual(e, x)
        except EvalError:
            continue
        # keep magnitudes moderate so finite differences stay meaningful
        if abs(d.value) > 1e6 or np.abs(d.grad).max() > 1e6 or np.abs(d.hess).max() > 1e6:
            continue
        cases.append((e, x, d))
    return cases


def test_dual_hessian_bitwise_symmetric():
    for _, _, d in _sample_cases(seed=101, count=60):
        assert np.array_equal(d.hess, d.hess.T)


def test_dual_gradient_matches_finite_differences():
    h = 1e-5
    for e, x, d in _sample_cases(seed=202, count=60):
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd = (expr.evaluate(e, xp) - expr.evaluate(e, xm)) / (2 * h)
            assert abs(d.grad[i] - fd) <= 1e-5 * max(1.0, abs(d.grad[i]), abs(fd))


def test_dual_hessian_matches_gradient_differences():
    h = 1e-5
    for e, x, d in _sample_cases(seed=303, count=40):
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            col = (expr.evaluate_dual(e, xp).grad - expr.evaluate_dual(e, xm).grad) / (2 * h)
            err = np.abs(d.hess[:, i] - col)
            scale = np.maximum(1.0, np.abs(d.hess[:, i]))
            assert (err <= 1e-3 * scale).all()


def test_serialize_round_trip_specific():
    for root in [
        Pow(Neg(Var(0)), 2),
        Sub(Const(1.0), Neg(Var(1))),
        Mul(Neg(Var(0)), Add(Var(1), Const(2.0))),
        Div(Var(0), Mul(Var(1), Const(3.0))),
        Neg(Add(Var(0), Var(1))),
        Pow(Pow(Var(0), 2), 3),
        Ln(Exp(Var(0))),
    ]:
        e = Expr(root, 2)
        assert expr.parse(expr.serialize(e), 2) == e


def test_serialize_round_trip_random():
    rng = np.random.default_rng(404)
    for _ in range(200):
        e = Expr(_random_tree(rng, 3, 5), 3)
        assert expr.parse(expr.serialize(e), 3) == e


def test_evaluate_many_matches_scalar():
    rng = np.random.default_rng(505)
    for e, _, _ in _sample_cases(seed=606, count=20):
        pts = rng.uniform(-2.0, 2.0, size=(17, 2))
        try:
            many = expr.evaluate_many(e, pts)
        except EvalError:
            continue
        for i in range(len(pts)):
            assert many[i] == expr.evaluate(e, pts[i])


def test_evaluate_many_constant_broadcast():
    e = expr.parse("5", 1)
    assert np.array_equal(expr.evaluate_many(e, np.array([[1.0], [2.0], [3.0]])), [5.0, 5.0, 5.0])


def test_evaluate_many_domain_error():
    e = expr.parse("ln(x1)", 1)
    with pytest.raises(EvalError):
        expr.evaluate_many(e, np.array([[1.0], [-1.0]]))


def test_ln_curvature_matrix_identity(problems):
    # g^2 * hess(ln g) == g * hess(g) - grad(g) grad(g)^T wherever g > 0
    g = problems["cassini"].constraints[0]
    ln_g = Expr(Ln(g.root), g.nvars)
    rng = np.random.default_rng(707)
    checked = 0
    while checked < 25:
        x = rng.uniform(-2.0, 2.0, size=2)
        d = expr.evaluate_dual(g, x)
        if d.value <= 1e-2:
            continue
        dl = expr.evaluate_dual(ln_g, x)
        lhs = d.value**2 * dl.hess
        rhs = d.value * d.hess - np.outer(d.grad, d.grad)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs))
        checked += 1


def test_evaluators_leave_no_reference_cycles(problems):
    # a cycle would keep the caller's points alive until the next GC pass,
    # which numpy allocations do not trigger
    gc.collect()
    gc.disable()
    try:
        for p in problems.values():
            pts = np.tile(p.interior_point, (5, 1))
            for e in (p.objective, *p.constraints):
                expr.evaluate(e, p.interior_point)
                expr.evaluate_dual(e, p.interior_point)
                expr.evaluate_many(e, pts)
            ref = weakref.ref(pts)
            del pts
            assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
