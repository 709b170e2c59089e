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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax or naming problem in expression text, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvalError(ExprError):
    pass


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Var:
    index: int  # 0-based; rendered 1-based as x1, x2, ...


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True, slots=True)
class Ln:
    operand: "Node"


@dataclass(frozen=True, slots=True)
class Exp:
    operand: "Node"


@dataclass(frozen=True, slots=True)
class Add:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True, slots=True)
class Sub:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True, slots=True)
class Mul:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True, slots=True)
class Div:
    lhs: "Node"
    rhs: "Node"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Node"
    exponent: int  # integer literal only


Node = Const | Var | Neg | Ln | Exp | Add | Sub | Mul | Div | Pow


@dataclass(frozen=True, slots=True)
class Expr:
    """A parsed expression over a fixed number of variables."""

    root: Node
    nvars: int

    def serialize(self) -> str:
        return serialize(self)


_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR_RE = re.compile(r"^x(\d+)$")
_OPS = set("+-*/^()")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "num", "ident", one of + - * / ^ ( ), or "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(_Token("ident", m.group(), i))
            i = m.end()
            continue
        if c in _OPS:
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], nvars: int):
        self.tokens = tokens
        self.nvars = nvars
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            if tok.kind == "end":
                raise ParseError("unexpected end of input", tok.pos)
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return self.take()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = Add(node, rhs) if op.kind == "+" else Sub(node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = Mul(node, rhs) if op.kind == "*" else Div(node, rhs)
        return node

    def factor(self) -> Node:
        if self.peek().kind == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        node = self.atom()
        while self.peek().kind == "^":
            self.take()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        tok = self.peek()
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        if tok.kind != "num" or not tok.text.isdigit():
            raise ParseError(f"exponent must be an integer literal, found {tok.text!r}", tok.pos)
        self.take()
        return sign * int(tok.text)

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.take()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.take()
            m = _VAR_RE.match(tok.text)
            if m:
                k = int(m.group(1))
                if k < 1 or k > self.nvars:
                    raise ParseError(
                        f"variable x{k} out of range for {self.nvars} variable(s)", tok.pos
                    )
                return Var(k - 1)
            if tok.text in ("ln", "exp"):
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return Ln(inner) if tok.text == "ln" else Exp(inner)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "(":
            self.take()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str, nvars: int) -> Expr:
    """Parse expression text over variables x1..x<nvars>.

    Grammar, loosest binding first: '+'/'-' then '*'/'/' then unary minus,
    then '^' with an integer literal exponent (left associative, so a^2^3
    means (a^2)^3).  ln and exp take a parenthesized argument.
    """
    if nvars < 1:
        raise ValueError("nvars must be at least 1")
    parser = _Parser(_tokenize(text), nvars)
    return Expr(parser.parse(), nvars)


# Rendering levels, loosest to tightest; a child whose level is below the
# level its context requires gets parenthesized.
_SUM, _TERM, _UNARY, _POW, _ATOM = 0, 1, 2, 3, 4


def _render(node: Node) -> tuple[str, int]:
    match node:
        case Const(value):
            return repr(value), _ATOM if value >= 0 else _UNARY
        case Var(index):
            return f"x{index + 1}", _ATOM
        case Ln(operand):
            return f"ln({_ser(operand, _SUM)})", _ATOM
        case Exp(operand):
            return f"exp({_ser(operand, _SUM)})", _ATOM
        case Neg(operand):
            return f"-{_ser(operand, _UNARY)}", _UNARY
        case Add(lhs, rhs):
            return f"{_ser(lhs, _SUM)} + {_ser(rhs, _TERM)}", _SUM
        case Sub(lhs, rhs):
            return f"{_ser(lhs, _SUM)} - {_ser(rhs, _TERM)}", _SUM
        case Mul(lhs, rhs):
            return f"{_ser(lhs, _TERM)}*{_ser(rhs, _UNARY)}", _TERM
        case Div(lhs, rhs):
            return f"{_ser(lhs, _TERM)}/{_ser(rhs, _UNARY)}", _TERM
        case Pow(base, exponent):
            # base may itself be a power (chains are left associative);
            # anything looser needs parentheses
            required = _POW if isinstance(base, Pow) else _ATOM
            return f"{_ser(base, required)}^{exponent}", _POW
    raise TypeError(f"not an expression node: {node!r}")


def _ser(node: Node, minlevel: int) -> str:
    text, level = _render(node)
    if level < minlevel:
        return f"({text})"
    return text


def serialize(e: Expr) -> str:
    """Render a tree back to text that parses to a structurally equal tree."""
    return _ser(e.root, _SUM)


class Jet(NamedTuple):
    """Value, gradient and Hessian of an expression.

    At one point: a float, shape (n,) and shape (n, n).  Over a batch of N
    points: shapes (N,), (N, n) and (N, n, n).  Derivatives above the order
    asked for are None.
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
def _walk(node: Node, at: _At) -> tuple:
    """(value, gradient, Hessian) of a subtree; derivatives above the order are None.

    The product, quotient and chain rules combine every rank-one pair as
    S + S^T, so Hessians come out exactly symmetric.
    """
    match node:
        case Const(value):
            return value, at.zero_grad, at.zero_hess
        case Var(index):
            return at.xs[index], at.units[index], at.zero_hess
        case Neg(operand):
            v, g, h = _walk(operand, at)
            return -v, g if g is None else -g, h if h is None else -h
        case Add(lhs, rhs):
            (va, ga, ha), (vb, gb, hb) = _walk(lhs, at), _walk(rhs, at)
            return va + vb, ga if ga is None else ga + gb, ha if ha is None else ha + hb
        case Sub(lhs, rhs):
            (va, ga, ha), (vb, gb, hb) = _walk(lhs, at), _walk(rhs, at)
            return va - vb, ga if ga is None else ga - gb, ha if ha is None else ha - hb
        case Mul(lhs, rhs):
            (va, ga, ha), (vb, gb, hb) = _walk(lhs, at), _walk(rhs, at)
            v = va * vb
            if ga is None:
                return v, None, None
            g = ga * vb + va * gb
            if ha is None:
                return v, g, None
            s = _outer(ga, gb)
            return v, g, ha * vb + va * hb + (s + s.swapaxes(0, 1))
        case Div(lhs, rhs):
            (va, ga, ha), (vb, gb, hb) = _walk(lhs, at), _walk(rhs, at)
            v = va / vb
            if ga is None:
                return v, None, None
            g = (ga - v * gb) / vb
            if ha is None:
                return v, g, None
            s = _outer(g, gb)
            return v, g, (ha - (s + s.swapaxes(0, 1)) - v * hb) / vb
        case Ln(operand):
            va, ga, ha = _walk(operand, at)
            v = np.log(va)
            if ga is None:
                return v, None, None
            g = ga / va
            if ha is None:
                return v, g, None
            return v, g, ha / va - _outer(g, g)
        case Exp(operand):
            va, ga, ha = _walk(operand, at)
            w = np.exp(va)
            if ga is None:
                return w, None, None
            if ha is None:
                return w, w * ga, None
            return w, w * ga, w * (ha + _outer(ga, ga))
        case Pow(base, n):
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


def jets(es, x, order: int = 2) -> list[Jet]:
    """Jets of expressions over the same variables, up to order 0, 1 or 2.

    x is a sequence of nvars floats (one point) or an (N, nvars) array (a
    batch); see Jet for the shapes.  Every array returned is fresh.  Raises
    EvalError when any expression is undefined or overflows at any point;
    see the module docstring for the rules.
    """
    x = np.asarray(x, dtype=float)
    walked = _walk_roots(es, x, order)
    batch = x.ndim == 2
    for v, _, _ in walked:
        if not (np.isfinite(v).all() if batch else math.isfinite(v)):
            raise EvalError("overflow")
    # fresh arrays: leaves share their seed derivatives, and a bare
    # variable's value over a batch is a view of x
    if not batch:
        return [
            Jet(float(v), g if g is None else g.copy(), h if h is None else h.copy())
            for v, g, h in walked
        ]
    count, n = x.shape  # the point axis goes first
    return [
        Jet(
            np.broadcast_to(v, (count,)).copy(),
            None if g is None else np.broadcast_to(np.moveaxis(g, -1, 0), (count, n)).copy(),
            None if h is None else np.broadcast_to(np.moveaxis(h, -1, 0), (count, n, n)).copy(),
        )
        for v, g, h in walked
    ]


def scan_values(es, points) -> np.ndarray:
    """Values of expressions over an (N, nvars) batch, as a fresh (N, len(es)) array.

    For grid and sampling scans: unlike evaluate_many, a value that
    overflows is +-inf rather than an EvalError, so that one far point does
    not stop a scan.  A domain error still raises EvalError.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"points must have shape (N, nvars), got {points.shape}")
    out = np.empty((points.shape[0], len(es)))
    for k, (v, _, _) in enumerate(_walk_roots(es, points, 0)):
        out[:, k] = v
    return out


def evaluate(e: Expr, x) -> float:
    """Value at a single point, given as a sequence of nvars floats."""
    if np.ndim(x) != 1:
        raise ValueError("evaluate takes one point; use evaluate_many for a batch")
    return jets([e], x, 0)[0].value


def evaluate_many(e: Expr, points) -> np.ndarray:
    """Values over an (N, nvars) array of points, as a fresh array of shape (N,)."""
    if np.ndim(points) != 2:
        raise ValueError(f"points must have shape (N, {e.nvars})")
    return jets([e], points, 0)[0].value


def evaluate_dual(e: Expr, x, order: int = 2) -> Jet:
    """Value, gradient and (at order 2) Hessian at one point or over a batch."""
    return jets([e], x, order)[0]
