"""Expression layer: parsing, evaluation, forward-mode first and second derivatives."""

import gc
import warnings
import weakref

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy.parsing import sympy_parser

from logbarrier import expr
from logbarrier.expr import EvalError, Expr, ParseError


def test_parse_structure():
    assert expr.parse("x1 + x2", 2) == Expr(("add", ("var", 0), ("var", 1)), 2)
    assert expr.parse("-2", 1).root == ("neg", ("const", 2.0))
    assert expr.parse("x1^2^3", 1).root == ("pow", ("pow", ("var", 0), 2), 3)
    assert expr.parse("1e-400", 1).root == ("const", 0.0)  # finite, unlike 1e400
    # the tag tells apart nodes of the same shape
    assert expr.parse("ln(x1)", 1) != expr.parse("exp(x1)", 1)
    assert expr.parse("x1 + x2", 2).root != expr.parse("x1 - x2", 2).root
    root = expr.parse("x1*ln(x2) + 3", 2).root
    assert hash(root) == hash(expr.parse("x1*ln(x2) + 3", 2).root)


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


# also the objectives of tests/corpus_digest.py's malformed problem files
PARSE_ERRORS = [
    ("x1 +", 4, "end of input"),
    ("", 0, "end of input"),
    ("(x1", 3, "end of input"),
    ("x1 x2", 3, "trailing"),
    ("x1^2.5", 3, "integer literal"),
    ("x1^(2)", 3, "integer literal"),
    ("x0", 0, "out of range"),
    ("x3", 0, "out of range"),
    ("y1", 0, "unknown identifier"),
    ("x1 $ 2", 3, "unexpected character '$'"),
    ("ln x1", 3, "expected '('"),
    ("x1^", 3, "unexpected end of input"),  # where the exponent should be
    ("x1 + )", 5, "unexpected token ')'"),
    ("(x1 x2", 4, "expected ')', found 'x2'"),
    ("x1^-", 4, "unexpected end of input"),
    ("x1 + 1e400", 5, "number '1e400' is not finite as a float"),
    # the text is ASCII: other digits and whitespace are not read as such
    ("x1 + \u0663", 5, "unexpected character"),  # Arabic-Indic three
    ("\uff11\uff10", 0, "unexpected character"),  # full-width 10
    ("x1^\u0662", 3, "unexpected character"),  # Arabic-Indic two
    ("x1\u00a0+ 1", 2, "unexpected character"),  # no-break space
]


@pytest.mark.parametrize("text, position, fragment", PARSE_ERRORS)
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
    # positive constants only, like the literals of expression text
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return ("const", round(float(rng.uniform(0.5, 2.5)), 6))
        return ("var", int(rng.integers(nvars)))
    a = _random_tree(rng, nvars, depth - 1)
    b = _random_tree(rng, nvars, depth - 1)
    op = int(rng.integers(9))
    if op == 0:
        return ("add", a, b)
    if op == 1:
        return ("sub", a, b)
    if op == 2:
        return ("mul", a, b)
    if op == 3:
        return ("neg", a)
    if op == 4:
        return ("pow", a, int(rng.integers(2, 4)))
    if op == 5:
        return ("ln", ("add", ("const", 1.5), ("mul", a, a)))  # argument >= 1.5, always safe
    if op == 6:
        return ("exp", ("div", a, ("add", ("const", 1.5), ("mul", a, a))))  # |argument| < 0.5
    if op == 7:
        # base >= 1.5
        return ("pow", ("add", ("const", 1.5), ("mul", b, b)), -int(rng.integers(1, 4)))
    return ("div", a, ("add", ("const", 1.5), ("mul", b, b)))


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
    ln_g = Expr(("ln", g.root), g.nvars)
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


def test_evaluate_many_returns_fresh_arrays():
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    before = pts.copy()
    for text in ("x1", "x2", "5"):
        e = expr.parse(text, 2)
        expr.evaluate_many(e, pts)[:] = 99.0
        for part in expr.evaluate_dual(e, pts):
            part[...] = 99.0
    es = [expr.parse(text, 2) for text in ("x1", "x2", "5")]
    for x in (pts, pts[0]):
        want = [part.copy() for part in expr.jets(es, x)]
        for part in expr.jets(es, x):
            part[...] = 99.0
        assert all(np.array_equal(a, b) for a, b in zip(expr.jets(es, x), want))
    assert np.array_equal(pts, before)


def test_jet_shapes_and_orders():
    e = expr.parse("x1*x2^2", 2)
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, -1.0]])
    for order in (0, 1, 2):
        point = expr.evaluate_dual(e, pts[0], order)
        batch = expr.evaluate_dual(e, pts, order)
        assert isinstance(point.value, float) and batch.value.shape == (3,)
        assert (point.grad is None, batch.grad is None) == (order < 1, order < 1)
        assert (point.hess is None, batch.hess is None) == (order < 2, order < 2)
        if order >= 1:
            assert point.grad.shape == (2,) and batch.grad.shape == (3, 2)
        if order == 2:
            assert point.hess.shape == (2, 2) and batch.hess.shape == (3, 2, 2)
    # rows of a batch are the point results, bit for bit
    batch = expr.evaluate_dual(e, pts)
    for i, x in enumerate(pts):
        point = expr.evaluate_dual(e, x)
        assert batch.value[i] == point.value
        assert np.array_equal(batch.grad[i], point.grad)
        assert np.array_equal(batch.hess[i], point.hess)
    # a list of expressions stacks on a first axis; its rows are evaluate_dual's
    es = [e, expr.parse("exp(x1) - x2", 2)]
    for order in (0, 1, 2):
        for x, lead in ((pts[0], ()), (pts, (3,))):
            stacked = expr.jets(es, x, order)
            shapes = [(2,) + lead + (2,) * k if k <= order else None for k in range(3)]
            assert [None if a is None else a.shape for a in stacked] == shapes
            for k, g in enumerate(es):
                one = expr.evaluate_dual(g, x, order)
                assert [None if a is None else a[k].tobytes() for a in stacked] == [
                    None if a is None else np.asarray(a).tobytes() for a in one
                ]
    with pytest.raises(ValueError):
        expr.evaluate_dual(e, pts, 3)
    with pytest.raises(ValueError):
        expr.evaluate(e, [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "text, x",
    [
        ("exp(1000)", 0.0),
        ("x1^400", 10.0),
        ("x1*x1", 1e200),
        ("ln(0)", 0.0),
        ("1/0", 0.0),
        ("0^-2", 0.0),
        # undefined even though IEEE arithmetic would carry on to a finite value
        ("1/(1/x1)", 0.0),
        ("exp(ln(x1))", 0.0),
    ],
)
def test_overflow_and_domain_errors_in_every_entry_point(text, x):
    e = expr.parse(text, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        calls = [
            lambda: expr.evaluate(e, [x]),
            lambda: expr.evaluate_many(e, [[1.0], [x]]),
            lambda: expr.evaluate_dual(e, [x]),
            lambda: expr.evaluate_dual(e, [[x]], 1),
        ]
        for call in calls:
            with pytest.raises(EvalError):
                call()


def test_overflow_inside_the_walk_is_not_an_error():
    e = expr.parse("1/exp(1000)", 1)
    assert expr.evaluate(e, [0.0]) == 0.0
    assert expr.evaluate_many(e, [[0.0]])[0] == 0.0
    with pytest.raises(EvalError):
        expr.evaluate_dual(e, [0.0], 1)  # the gradient is 0 * inf


def test_scan_values_keep_an_overflow_and_raise_on_a_domain_error():
    es = [expr.parse("1 - exp(x1)", 2), expr.parse("exp(x1)", 2), expr.parse("x2", 2)]
    pts = np.array([[0.0, 1.0], [800.0, 2.0], [-1.0, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may escape
        got = expr.scan_values(es, pts)
        with pytest.raises(EvalError):
            expr.scan_values([expr.parse("ln(x1)", 2)], pts)
    assert got.shape == (3, 3) and got.flags.f_contiguous
    assert not np.shares_memory(got, pts)
    assert np.array_equal(got[1], [-np.inf, np.inf, 2.0])
    rows = [0, 2]  # where nothing overflows, the values of evaluate_many and jets
    for e, col in zip(es, got.T):
        assert np.array_equal(col[rows], expr.evaluate_many(e, pts[rows]))
    assert np.array_equal(got[rows], expr.jets(es, pts[rows], 0).value.T)


# Trees with every node kind, unguarded: ln, division and negative powers hit
# their singularities at the zeros of the coordinate grid below.
_LEAVES = st.one_of(
    st.sampled_from([("const", 0.0), ("const", 0.5), ("const", 1.0), ("const", 2.0)]),
    st.tuples(st.just("var"), st.integers(0, 1)),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.tuples(st.just("neg"), kids),
        st.tuples(st.just("ln"), kids),
        st.tuples(st.just("exp"), kids),
        st.tuples(st.just("add"), kids, kids),
        st.tuples(st.just("sub"), kids, kids),
        st.tuples(st.just("mul"), kids, kids),
        st.tuples(st.just("div"), kids, kids),
        st.tuples(st.just("pow"), kids, st.integers(-3, 3)),
    ),
    max_leaves=8,
)
_COORDS = st.integers(-8, 8).map(lambda k: k / 4)
_POINTS = st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=4)


def _subtrees(node):
    yield node
    for child in node[1:]:
        if isinstance(child, tuple):  # not a constant's value, an index or an exponent
            yield from _subtrees(child)


def _moderate(node, x) -> bool:
    """No subexpression overflows, nor has a magnitude outside [1e-6, 1e6] other than 0.

    Derivatives stay finite there, so evaluate_dual fails exactly where the
    value fails; elsewhere it may also fail on an infinite or undefined derivative.
    """
    for sub in _subtrees(node):
        try:
            v = abs(expr.evaluate(Expr(sub, 2), x))
        except EvalError as err:
            if "overflow" in str(err):
                return False
            continue
        if v != 0.0 and not 1e-6 <= v <= 1e6:
            return False
    return True


def _bits(value):
    return None if value is None else np.float64(value).tobytes()


def _outcome(call):
    try:
        return call()
    except EvalError:
        return None


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(_TREES, _POINTS)
def test_entry_points_agree_bit_for_bit(root, rows):
    e = Expr(root, 2)
    pts = np.array(rows, dtype=float)
    assume(all(_moderate(root, x) for x in pts))
    values = []
    for x in pts:
        v = _outcome(lambda: expr.evaluate(e, x))
        assert _bits(v) == _bits(_outcome(lambda: expr.evaluate_many(e, x[None, :])[0]))
        for order in (1, 2):
            jet = _outcome(lambda: expr.evaluate_dual(e, x, order))
            assert _bits(v) == _bits(None if jet is None else jet.value)
        values.append(v)
    many = _outcome(lambda: expr.evaluate_many(e, pts))
    if any(v is None for v in values):
        assert many is None
    else:
        assert [_bits(v) for v in values] == [_bits(v) for v in many]
    # the rows of a batch jet are the jets at its points
    for order in (0, 1, 2):
        batch = _outcome(lambda: expr.jets([e], pts, order))
        rows = [_outcome(lambda: expr.jets([e], x, order)) for x in pts]
        assert (batch is None) == any(row is None for row in rows)
        for i, row in enumerate(rows if batch is not None else []):
            for whole, part in zip(batch, row):
                assert (whole is None) == (part is None)
                assert whole is None or whole[0, i].tobytes() == part[0].tobytes()


def _sympy(node, syms, number=sympy.Float):
    """The tree as a sympy expression, built by the operators Python reads in its text."""

    def walk(node):
        match node:
            case ("const", value):
                return number(value)
            case ("var", index):
                return syms[index]
            case ("neg", operand):
                return -walk(operand)
            case ("ln", operand):
                return sympy.log(walk(operand))
            case ("exp", operand):
                return sympy.exp(walk(operand))
            case ("add", lhs, rhs):
                return walk(lhs) + walk(rhs)
            case ("sub", lhs, rhs):
                return walk(lhs) - walk(rhs)
            case ("mul", lhs, rhs):
                return walk(lhs) * walk(rhs)
            case ("div", lhs, rhs):
                return walk(lhs) / walk(rhs)
            case ("pow", base, exponent):
                return walk(base) ** sympy.Integer(exponent)
        raise TypeError(node)

    return walk(node)


def _assert_matches_sympy(e: Expr, xs):
    syms = sympy.symbols(f"x1:{e.nvars + 1}")
    f = _sympy(e.root, syms)
    grad = [sympy.diff(f, s) for s in syms]
    hess = [[sympy.diff(g, s) for s in syms] for g in grad]
    exact = sympy.lambdify(syms, [grad, hess], modules="mpmath")
    for x in xs:
        jet = expr.evaluate_dual(e, x)
        with mpmath.workdps(40):
            g_ref, h_ref = exact(*[mpmath.mpf(float(v)) for v in x])
            g_ref = np.array([float(v) for v in g_ref])
            h_ref = np.array([[float(v) for v in row] for row in h_ref])
        for ours, ref in ((jet.grad, g_ref), (jet.hess, h_ref)):
            scale = max(1.0, float(np.abs(ref).max()))
            np.testing.assert_allclose(ours, ref, rtol=1e-10, atol=1e-10 * scale)


def test_derivatives_match_sympy_on_the_corpus(problems):
    rng = np.random.default_rng(808)
    for p in problems.values():
        xs = [p.interior_point, *rng.uniform(p.box[:, 0], p.box[:, 1], size=(4, p.nvars))]
        for e in (p.objective, *p.constraints):
            defined = [x for x in xs if _outcome(lambda: expr.evaluate(e, x)) is not None]
            assert defined
            _assert_matches_sympy(e, defined)


def test_derivatives_match_sympy_on_generated_trees():
    for e, x, _ in _sample_cases(seed=909, count=25):
        _assert_matches_sympy(e, [x])


# Expression text with no redundant parentheses, as (text, level) with the
# levels of the grammar, loosest first: a child whose level is below the
# one its place needs is parenthesized.  A power is never a base without
# parentheses, since Python reads x^2^3 as x^(2^3) and the parser as (x^2)^3.
_SUM, _TERM, _UNARY, _POW, _ATOM = range(5)


def _wrap(child, level):
    text, own = child
    return text if own >= level else f"({text})"


_TEXTS = st.recursive(
    st.tuples(
        # dyadic literals, so a float and sympy's exact rational are one number
        st.sampled_from(["0", "2", "3", "0.5", "1.25", ".75", "2.", "25e-2", "3E0", "x1", "x2"]),
        st.just(_ATOM),
    ),
    lambda kids: st.one_of(
        kids.map(lambda a: (f"-{_wrap(a, _UNARY)}", _UNARY)),
        st.tuples(kids, st.sampled_from([" + ", " - "]), kids).map(
            lambda t: (_wrap(t[0], _SUM) + t[1] + _wrap(t[2], _TERM), _SUM)
        ),
        st.tuples(kids, st.sampled_from(["*", "/"]), kids).map(
            lambda t: (_wrap(t[0], _TERM) + t[1] + _wrap(t[2], _UNARY), _TERM)
        ),
        st.tuples(kids, st.integers(-3, 3)).map(lambda t: (f"{_wrap(t[0], _ATOM)}^{t[1]}", _POW)),
        st.tuples(st.sampled_from(["ln", "exp"]), kids).map(lambda t: (f"{t[0]}({t[1][0]})", _ATOM)),
    ),
    max_leaves=8,
).map(lambda t: t[0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_TEXTS)
@example("-x1^2")  # unary minus binds looser than ^
@example("x1 - x2 - 2/x1/x2")  # both left associative
def test_parse_reads_text_as_sympy_does(text):
    # sympy builds each tree by Python's own precedence, with exact
    # rationals for the literals, so equal precedence and associativity
    # give structurally equal expressions
    syms = sympy.symbols("x1:3")
    theirs = sympy_parser.parse_expr(
        text,
        local_dict={"x1": syms[0], "x2": syms[1], "ln": sympy.log, "exp": sympy.exp},
        transformations=sympy_parser.standard_transformations
        + (sympy_parser.convert_xor, sympy_parser.rationalize),
    )
    assert _sympy(expr.parse(text, 2).root, syms, sympy.Rational) == theirs


def _text(node):
    """A tree as (text, level): expression text with no redundant parentheses."""
    match node:
        case ("const", value):
            return repr(value), _ATOM  # positive, as in _random_tree
        case ("var", index):
            return f"x{index + 1}", _ATOM
        case ("ln" | "exp" as name, operand):
            return f"{name}({_text(operand)[0]})", _ATOM
        case ("neg", operand):
            return f"-{_wrap(_text(operand), _UNARY)}", _UNARY
        case ("add" | "sub" as op, lhs, rhs):
            sign = " + " if op == "add" else " - "
            return _wrap(_text(lhs), _SUM) + sign + _wrap(_text(rhs), _TERM), _SUM
        case ("mul" | "div" as op, lhs, rhs):
            sign = "*" if op == "mul" else "/"
            return _wrap(_text(lhs), _TERM) + sign + _wrap(_text(rhs), _UNARY), _TERM
        case ("pow", base, exponent):
            return f"{_wrap(_text(base), _ATOM)}^{exponent}", _POW
    raise TypeError(node)


def test_serialize_round_trip_specific():
    for root in [
        ("pow", ("neg", ("var", 0)), 2),
        ("sub", ("const", 1.0), ("neg", ("var", 1))),
        ("mul", ("neg", ("var", 0)), ("add", ("var", 1), ("const", 2.0))),
        ("div", ("var", 0), ("mul", ("var", 1), ("const", 3.0))),
        ("neg", ("add", ("var", 0), ("var", 1))),
        ("pow", ("pow", ("var", 0), 2), 3),
        ("ln", ("exp", ("var", 0))),
    ]:
        assert expr.parse(_text(root)[0], 2) == Expr(root, 2)


def test_serialize_round_trip_random():
    rng = np.random.default_rng(404)
    for _ in range(200):
        root = _random_tree(rng, 3, 5)
        assert expr.parse(_text(root)[0], 3) == Expr(root, 3)
