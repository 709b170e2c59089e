"""Expression trees for objectives and constraints.

A small closed language: floating literals, variables x1..xn, the four
arithmetic operators, integer powers, unary minus, ln and exp.  Expressions
are parsed once into immutable trees.

One recursive walker evaluates them: forward-mode Taylor propagation
(Griewank and Walther, Evaluating Derivatives, 2008, ch. 13) of the value,
and on request the gradient and dense Hessian.  It takes a float per
variable (one point) or an array per variable (a batch) and runs the same
IEEE operations on both, so evaluate, evaluate_many and evaluate_dual agree
bit for bit.  Integer powers use repeated squaring, ln and exp use numpy.
jets stacks the jets of a list of expressions on a first axis, so row j
of its gradient is grad g_j; evaluate_dual drops that axis.

Domain rules, the same for every entry point: a division by zero, an
invalid operation (ln of a nonpositive number, 0 * inf, inf - inf) or a
nonfinite final value raises EvalError.  Overflow and underflow inside the
walk are not errors by themselves: 1/exp(1000) is 0.0.  A derivative can
fail where the value does not: the gradient of 1/exp(1000) needs 0 * inf.
scan_values, which serves grid and sampling scans, differs in one rule
only: a final value that overflows is +-inf there, not an error.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np


class ParseError(Exception):
    """Syntax or naming problem in expression text, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(Exception):
    pass


class Expr(NamedTuple):
    """A parsed expression over a fixed number of variables.

    root is a tree of tagged tuples: ("const", v) with a float v, ("var", i)
    with a 0-based i (written 1-based as x1, x2, ... in text), ("neg", a),
    ("ln", a), ("exp", a), ("add", lhs, rhs), ("sub", lhs, rhs),
    ("mul", lhs, rhs), ("div", lhs, rhs) and ("pow", base, n) with an int n.
    Tuples give trees equality, hashing and immutability; the tag tells
    ln from exp and add from sub.
    """

    root: tuple
    nvars: int


# Every non-space character starts a match, so one scan covers the text
# (trailing whitespace aside); "bad" catches a character no token allows.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S))",
    re.ASCII,
)
_VAR_RE = re.compile(r"^x(\d+)$")


# The binary operators by level, loosest binding first; each is left associative.
_BINARY_LEVELS = ({"+": "add", "-": "sub"}, {"*": "mul", "/": "div"})


class _Parser:
    def __init__(self, text: str, nvars: int, params: dict):
        self.tokens = []  # (kind, text, pos); kind: "num", "ident", "end" or the operator
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            tok, pos = m.group(kind), m.start(kind)
            if kind == "bad":
                raise ParseError(f"unexpected character {tok!r}", pos)
            self.tokens.append((tok if kind == "op" else kind, tok, pos))
        self.tokens.append(("end", "", len(text)))
        self.nvars = nvars
        self.params = params
        self.i = 0

    def take(self, kind: str | None = None) -> tuple:
        """The next token, which must be of kind if one is given."""
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            if tok[0] == "end":
                raise ParseError("unexpected end of input", tok[2])
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def binary(self, level: int) -> tuple:
        if level == len(_BINARY_LEVELS):
            return self.unary()
        tags = _BINARY_LEVELS[level]
        node = self.binary(level + 1)
        while self.tokens[self.i][0] in tags:
            node = (tags[self.take()[0]], node, self.binary(level + 1))
        return node

    def unary(self) -> tuple:
        if self.tokens[self.i][0] == "-":
            self.take()
            return ("neg", self.unary())
        node = self.atom()
        while self.tokens[self.i][0] == "^":
            self.take()
            node = ("pow", node, self.exponent())
        return node

    def exponent(self) -> int:
        sign = 1
        if self.tokens[self.i][0] == "-":
            self.take()
            sign = -1
        kind, text, pos = self.tokens[self.i]
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        value = self.params.get(text) if kind == "ident" else None
        if type(value) is not int:
            if kind != "num" or not text.isdigit():
                raise ParseError(f"exponent must be an integer literal, found {text!r}", pos)
            value = int(text)
        self.take()
        return sign * value

    def atom(self) -> tuple:
        kind, text, pos = self.tokens[self.i]
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        if kind not in ("num", "ident", "("):
            raise ParseError(f"unexpected token {text!r}", pos)
        self.take()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number {text!r} is not finite as a float", pos)
            return ("const", value)
        if kind == "(":
            inner = self.binary(0)
            self.take(")")
            return inner
        m = _VAR_RE.match(text)
        if m:
            k = int(m.group(1))
            if k < 1 or k > self.nvars:
                raise ParseError(f"variable x{k} out of range for {self.nvars} variable(s)", pos)
            return ("var", k - 1)
        if text in ("ln", "exp"):
            self.take("(")
            inner = self.binary(0)
            self.take(")")
            return (text, inner)  # tagged with the function's name
        if text in self.params:
            return ("const", float(self.params[text]))
        raise ParseError(f"unknown identifier {text!r}", pos)


def parse(text: str, nvars: int, params: dict | None = None) -> Expr:
    """Parse expression text over variables x1..x<nvars>.

    Grammar, loosest binding first: '+'/'-' then '*'/'/' then unary minus,
    then '^' with an integer literal exponent (left associative, so a^2^3
    means (a^2)^3).  ln and exp take a parenthesized argument.  A numeric
    literal must be finite as a float.  params maps further identifiers to
    numbers: each parses as one constant, so with a = -1, a^2 is 1.  A
    param with an int value may also be an exponent.
    """
    if nvars < 1:
        raise ValueError("nvars must be at least 1")
    parser = _Parser(text, nvars, params or {})
    try:
        root = parser.binary(0)
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.tokens[parser.i][2]) from None
    kind, text, pos = parser.tokens[parser.i]
    if kind != "end":
        raise ParseError(f"unexpected trailing input {text!r}", pos)
    return Expr(root, nvars)


class Jet(NamedTuple):
    """Value, gradient and Hessian of m expressions, the expression axis first.

    At one point: shapes (m,), (m, n) and (m, n, n); over a batch of N
    points: (m, N), (m, N, n) and (m, N, n, n).  Derivatives above the order
    asked for are None.  evaluate_dual's jet has no expression axis.
    """

    value: float | np.ndarray
    grad: np.ndarray | None
    hess: np.ndarray | None


class _At(NamedTuple):
    """Where a walk is taken: per-variable values and the seed derivatives.

    Derivative arrays put the variable axes first and the point axis last,
    so one formula serves a point (no point axis) and a batch (an axis of
    length N, or of length 1 where the derivative is the same everywhere).
    """

    xs: list  # np.float64 per variable, or an (N,) array per variable
    units: list  # gradient of each variable; None at order 0
    zero_grad: np.ndarray | None
    zero_hess: np.ndarray | None


def _outer(a, b):
    return a[:, None] * b[None, :]


def _ipow(v, n: int):
    """v**n by repeated squaring, so a point and a batch round alike."""
    if n < 0:
        return 1.0 / _ipow(v, -n)
    result = None
    while n:
        if n & 1:
            result = v if result is None else result * v
        n >>= 1
        if n:
            v = v * v
    return 1.0 if result is None else result


# The walker is a module-level function taking the point(s) as an argument:
# a nested recursive closure is a reference cycle that would keep the
# caller's input alive until a GC pass.
def _walk(node: tuple, at: _At) -> tuple:
    """(value, gradient, Hessian) of a subtree; derivatives above the order are None.

    The product, quotient and chain rules combine every rank-one pair as
    S + S^T, so Hessians come out exactly symmetric.
    """
    match node:
        case ("const", value):
            return value, at.zero_grad, at.zero_hess
        case ("var", index):
            return at.xs[index], at.units[index], at.zero_hess
        case ("neg", operand):
            v, g, h = _walk(operand, at)
            return -v, g if g is None else -g, h if h is None else -h
        case ("add", lhs, rhs):
            (va, ga, ha), (vb, gb, hb) = _walk(lhs, at), _walk(rhs, at)
            return va + vb, ga if ga is None else ga + gb, ha if ha is None else ha + hb
        case ("sub", lhs, rhs):
            (va, ga, ha), (vb, gb, hb) = _walk(lhs, at), _walk(rhs, at)
            return va - vb, ga if ga is None else ga - gb, ha if ha is None else ha - hb
        case ("mul", lhs, rhs):
            (va, ga, ha), (vb, gb, hb) = _walk(lhs, at), _walk(rhs, at)
            v = va * vb
            if ga is None:
                return v, None, None
            g = ga * vb + va * gb
            if ha is None:
                return v, g, None
            s = _outer(ga, gb)
            return v, g, ha * vb + va * hb + (s + s.swapaxes(0, 1))
        case ("div", lhs, rhs):
            (va, ga, ha), (vb, gb, hb) = _walk(lhs, at), _walk(rhs, at)
            v = va / vb
            if ga is None:
                return v, None, None
            g = (ga - v * gb) / vb
            if ha is None:
                return v, g, None
            s = _outer(g, gb)
            return v, g, (ha - (s + s.swapaxes(0, 1)) - v * hb) / vb
        case ("ln", operand):
            va, ga, ha = _walk(operand, at)
            v = np.log(va)
            if ga is None:
                return v, None, None
            g = ga / va
            if ha is None:
                return v, g, None
            return v, g, ha / va - _outer(g, g)
        case ("exp", operand):
            va, ga, ha = _walk(operand, at)
            w = np.exp(va)
            if ga is None:
                return w, None, None
            if ha is None:
                return w, w * ga, None
            return w, w * ga, w * (ha + _outer(ga, ga))
        case ("pow", base, n):
            va, ga, ha = _walk(base, at)
            if n == 0:
                return 1.0, at.zero_grad, at.zero_hess
            if n == 1:
                return va, ga, ha
            v = _ipow(va, n)
            if ga is None:
                return v, None, None
            d1 = n * _ipow(va, n - 1)
            if ha is None:
                return v, d1 * ga, None
            d2 = n * (n - 1) * _ipow(va, n - 2)
            return v, d1 * ga, d1 * ha + d2 * _outer(ga, ga)
    raise TypeError(f"not an expression node: {node!r}")


def _walk_roots(es, x, order: int) -> list[tuple]:
    """Walk every expression at x under the domain rules; root values are not yet checked."""
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    n = x.shape[-1] if x.ndim in (1, 2) else 0
    for e in es:
        if e.nvars != n:
            raise ValueError(f"x must have shape ({e.nvars},) or (N, {e.nvars}), got {x.shape}")
    batch = x.ndim == 2
    tail = (1,) if batch else ()
    at = _At(
        list(x.T) if batch else list(x),
        list(np.eye(n).reshape((n, n) + tail)) if order >= 1 else [None] * n,
        np.zeros((n,) + tail) if order >= 1 else None,
        np.zeros((n, n) + tail) if order >= 2 else None,
    )
    try:
        with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
            return [_walk(e.root, at) for e in es]
    except (FloatingPointError, ZeroDivisionError) as err:
        raise EvalError(f"outside the domain: {err}") from None
    except RecursionError:
        raise EvalError("expression nested too deeply to evaluate") from None


def _stack(parts, x: np.ndarray, k: int) -> np.ndarray | None:
    """The walk's k-th derivatives at x as one fresh array, the expression axis first.

    Over a batch each part has its point axis last, and the result has it
    second.  Parts of None (above the order asked for) give None.
    """
    if parts[0] is None or x.ndim == 1:
        return None if parts[0] is None else np.array(parts)
    out = np.empty((len(parts), len(x)) + x.shape[1:] * k)
    into = out.transpose(0, *range(2, out.ndim), 1) if k else out  # in the parts' layout
    for j, part in enumerate(parts):
        into[j] = part  # broadcasts a scalar, or a point axis of length 1
    return out


def jets(es, x, order: int = 2) -> Jet:
    """The stacked jet of a nonempty list of expressions over the same variables.

    x is a sequence of nvars floats (one point) or an (N, nvars) array (a
    batch); order is 0, 1 or 2, and Jet gives the shapes.  Every array is
    fresh.  Raises EvalError when any expression is undefined or overflows
    at any point; see the module docstring for the rules.
    """
    x = np.asarray(x, dtype=float)
    values, grads, hesses = zip(*_walk_roots(es, x, order))
    value = _stack(values, x, 0)
    if not (np.isfinite(value).all() if x.ndim == 2 else all(map(math.isfinite, values))):
        raise EvalError("overflow")
    return Jet(value, _stack(grads, x, 1), _stack(hesses, x, 2))


def scan_values(es, points) -> np.ndarray:
    """Values of expressions over an (N, nvars) batch, as a fresh column-major (N, len(es)) array.

    For grid and sampling scans: unlike evaluate_many, a value that
    overflows is +-inf rather than an EvalError, so that one far point does
    not stop a scan.  A domain error still raises EvalError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must have shape (N, nvars), got {points.shape}")
    return _stack([v for v, _, _ in _walk_roots(es, points, 0)], points, 0).T


def evaluate(e: Expr, x) -> float:
    """Value at a single point, given as a sequence of nvars floats."""
    if np.ndim(x) != 1:
        raise ValueError("evaluate takes one point; use evaluate_many for a batch")
    return float(jets([e], x, 0).value[0])


def evaluate_many(e: Expr, points) -> np.ndarray:
    """Values over an (N, nvars) array of points, as a fresh array of shape (N,)."""
    if np.ndim(points) != 2:
        raise ValueError(f"points must have shape (N, {e.nvars})")
    return jets([e], points, 0).value[0]


def evaluate_dual(e: Expr, x, order: int = 2) -> Jet:
    """Value, gradient and (at order 2) Hessian at one point or over a batch."""
    value, grad, hess = jets([e], x, order)
    return Jet(value[0], grad if grad is None else grad[0], hess if hess is None else hess[0])
