"""Expression trees for objectives and constraints.

A small closed language: floating literals, variables x1..xn, the four
arithmetic operators, integer powers, unary minus, ln and exp.  Expressions
are parsed once into immutable trees and evaluated either as scalars, over
arrays of points, or with second-order forward-mode duals that carry the
gradient and dense Hessian alongside the value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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


def evaluate(e: Expr, x) -> float:
    """Evaluate at a single point, given as a sequence of nvars floats."""
    xs = [float(v) for v in x]
    if len(xs) != e.nvars:
        raise ValueError(f"point has {len(xs)} coordinates, expected {e.nvars}")
    return float(_ev_scalar(e.root, xs))


# Walkers take the point(s) as an argument: a nested recursive closure is a
# reference cycle that would keep the caller's input alive until a GC pass.
def _ev_scalar(node: Node, xs: list[float]) -> float:
    match node:
        case Const(value):
            return value
        case Var(index):
            return xs[index]
        case Neg(operand):
            return -_ev_scalar(operand, xs)
        case Ln(operand):
            v = _ev_scalar(operand, xs)
            if v <= 0.0:
                raise EvalError(f"ln of nonpositive value {v}")
            return math.log(v)
        case Exp(operand):
            try:
                return math.exp(_ev_scalar(operand, xs))
            except OverflowError:
                raise EvalError("overflow in exp") from None
        case Add(lhs, rhs):
            return _ev_scalar(lhs, xs) + _ev_scalar(rhs, xs)
        case Sub(lhs, rhs):
            return _ev_scalar(lhs, xs) - _ev_scalar(rhs, xs)
        case Mul(lhs, rhs):
            return _ev_scalar(lhs, xs) * _ev_scalar(rhs, xs)
        case Div(lhs, rhs):
            den = _ev_scalar(rhs, xs)
            if den == 0.0:
                raise EvalError("division by zero")
            return _ev_scalar(lhs, xs) / den
        case Pow(base, exponent):
            b = _ev_scalar(base, xs)
            if b == 0.0 and exponent < 0:
                raise EvalError("zero base with negative exponent")
            try:
                return b**exponent
            except OverflowError:
                raise EvalError("overflow in power") from None
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_many(e: Expr, points: np.ndarray) -> np.ndarray:
    """Evaluate over an (N, nvars) array of points, returning shape (N,).

    Domain checks mirror the scalar evaluator: any nonpositive ln argument,
    zero divisor, or zero base under a negative exponent raises EvalError.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != e.nvars:
        raise ValueError(f"points must have shape (N, {e.nvars})")
    out = _ev_many(e.root, pts)
    if np.ndim(out) == 0:
        return np.full(pts.shape[0], float(out))
    return np.asarray(out, dtype=float)


def _ev_many(node: Node, pts: np.ndarray):
    match node:
        case Const(value):
            return value
        case Var(index):
            return pts[:, index]
        case Neg(operand):
            return -_ev_many(operand, pts)
        case Ln(operand):
            v = _ev_many(operand, pts)
            if np.any(v <= 0.0):
                raise EvalError("ln of nonpositive value")
            return np.log(v)
        case Exp(operand):
            return np.exp(_ev_many(operand, pts))
        case Add(lhs, rhs):
            return _ev_many(lhs, pts) + _ev_many(rhs, pts)
        case Sub(lhs, rhs):
            return _ev_many(lhs, pts) - _ev_many(rhs, pts)
        case Mul(lhs, rhs):
            return _ev_many(lhs, pts) * _ev_many(rhs, pts)
        case Div(lhs, rhs):
            den = _ev_many(rhs, pts)
            if np.any(den == 0.0):
                raise EvalError("division by zero")
            return _ev_many(lhs, pts) / den
        case Pow(base, exponent):
            b = _ev_many(base, pts)
            if exponent < 0 and np.any(b == 0.0):
                raise EvalError("zero base with negative exponent")
            return b**exponent
    raise TypeError(f"not an expression node: {node!r}")


class Dual2:
    """Second-order dual number: value, gradient (n,), dense Hessian (n, n).

    Hessians stay exactly symmetric because every rank-one pair is combined
    as S + S.T before mixing with other terms.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: float, grad: np.ndarray, hess: np.ndarray):
        self.value = float(value)
        self.grad = grad
        self.hess = hess

    @staticmethod
    def constant(value: float, n: int) -> "Dual2":
        return Dual2(value, np.zeros(n), np.zeros((n, n)))

    @staticmethod
    def variable(value: float, index: int, n: int) -> "Dual2":
        g = np.zeros(n)
        g[index] = 1.0
        return Dual2(value, g, np.zeros((n, n)))

    def __neg__(self) -> "Dual2":
        return Dual2(-self.value, -self.grad, -self.hess)

    def __add__(self, other: "Dual2") -> "Dual2":
        return Dual2(self.value + other.value, self.grad + other.grad, self.hess + other.hess)

    def __sub__(self, other: "Dual2") -> "Dual2":
        return Dual2(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __mul__(self, other: "Dual2") -> "Dual2":
        s = np.outer(self.grad, other.grad)
        return Dual2(
            self.value * other.value,
            self.grad * other.value + self.value * other.grad,
            self.hess * other.value + self.value * other.hess + (s + s.T),
        )

    def __truediv__(self, other: "Dual2") -> "Dual2":
        if other.value == 0.0:
            raise EvalError("division by zero")
        value = self.value / other.value
        grad = (self.grad - value * other.grad) / other.value
        s = np.outer(grad, other.grad)
        hess = (self.hess - (s + s.T) - value * other.hess) / other.value
        return Dual2(value, grad, hess)

    def ln(self) -> "Dual2":
        if self.value <= 0.0:
            raise EvalError(f"ln of nonpositive value {self.value}")
        g = self.grad / self.value
        return Dual2(
            math.log(self.value),
            g,
            self.hess / self.value - np.outer(g, g),
        )

    def exp(self) -> "Dual2":
        try:
            w = math.exp(self.value)
        except OverflowError:
            raise EvalError("overflow in exp") from None
        return Dual2(w, w * self.grad, w * (self.hess + np.outer(self.grad, self.grad)))

    def pow_int(self, n: int) -> "Dual2":
        if n == 0:
            return Dual2.constant(1.0, self.grad.shape[0])
        if n == 1:
            return self
        if self.value == 0.0 and n < 0:
            raise EvalError("zero base with negative exponent")
        try:
            value = self.value**n
            d1 = n * self.value ** (n - 1)
            d2 = n * (n - 1) * self.value ** (n - 2)
        except OverflowError:
            raise EvalError("overflow in power") from None
        return Dual2(
            value,
            d1 * self.grad,
            d1 * self.hess + d2 * np.outer(self.grad, self.grad),
        )


def evaluate_dual(e: Expr, x) -> Dual2:
    """Evaluate with value, gradient and Hessian at a single point."""
    xs = [float(v) for v in x]
    if len(xs) != e.nvars:
        raise ValueError(f"point has {len(xs)} coordinates, expected {e.nvars}")
    return _ev_dual(e.root, xs)


def _ev_dual(node: Node, xs: list[float]) -> Dual2:
    match node:
        case Const(value):
            return Dual2.constant(value, len(xs))
        case Var(index):
            return Dual2.variable(xs[index], index, len(xs))
        case Neg(operand):
            return -_ev_dual(operand, xs)
        case Ln(operand):
            return _ev_dual(operand, xs).ln()
        case Exp(operand):
            return _ev_dual(operand, xs).exp()
        case Add(lhs, rhs):
            return _ev_dual(lhs, xs) + _ev_dual(rhs, xs)
        case Sub(lhs, rhs):
            return _ev_dual(lhs, xs) - _ev_dual(rhs, xs)
        case Mul(lhs, rhs):
            return _ev_dual(lhs, xs) * _ev_dual(rhs, xs)
        case Div(lhs, rhs):
            return _ev_dual(lhs, xs) / _ev_dual(rhs, xs)
        case Pow(base, exponent):
            return _ev_dual(base, xs).pow_int(exponent)
    raise TypeError(f"not an expression node: {node!r}")
