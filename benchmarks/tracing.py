"""Spans and leaf counters around the public functions of logbarrier.

The program itself is not modified: `Tracer.install` rebinds every name in
every loaded `logbarrier` module that refers to one of the traced
functions, because modules import names with `from .x import f` and a
wrapper on the defining module alone would miss those call sites.

Calls into the mid layers (continuation, inner, certificate, diagnostics,
oracle, problem) each record a span: name, start, end, parent span and op
id.  Calls into the leaf layers (expr, barrier) are too many for a span
each (a spinning solve makes about 1e5), so they only add their count and
time to per-name totals and to the enclosing span.  A call's self time is
its duration minus the time of the traced calls it made, leaf or span, so
the self times of all layers partition the op's wall time.  Spans stay in
memory until `write_spans`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

SPAN_FUNCTIONS = {
    "continuation.solve": ("logbarrier.continuation", "solve"),
    "inner.solve_inner": ("logbarrier.inner", "solve_inner"),
    "certificate.check_kkt": ("logbarrier.certificate", "check_kkt"),
    "diagnostics.slater_find": ("logbarrier.diagnostics", "slater_find"),
    "diagnostics.nondegeneracy_probe": ("logbarrier.diagnostics", "nondegeneracy_probe"),
    "diagnostics.tangential_curvature_probe": (
        "logbarrier.diagnostics",
        "tangential_curvature_probe",
    ),
    "diagnostics.levelset_convexity_probe": ("logbarrier.diagnostics", "levelset_convexity_probe"),
    "diagnostics.phi_convexity_probe": ("logbarrier.diagnostics", "phi_convexity_probe"),
    "oracle.grid_minimize": ("logbarrier.oracle", "grid_minimize"),
    "problem.load": ("logbarrier.problem", "load"),
}

LEAF_FUNCTIONS = {
    "expr.parse": ("logbarrier.expr", "parse"),
    "expr.evaluate": ("logbarrier.expr", "evaluate"),
    "expr.evaluate_dual": ("logbarrier.expr", "evaluate_dual"),
    "expr.evaluate_many": ("logbarrier.expr", "evaluate_many"),
    "barrier.barrier_value": ("logbarrier.barrier", "barrier_value"),
    "barrier.barrier_eval": ("logbarrier.barrier", "barrier_eval"),
    "barrier.barrier_hessian": ("logbarrier.barrier", "barrier_hessian"),
}

OP_SPAN = "cli.op"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    child_s: float = 0.0  # time covered by traced calls made directly from this one
    leaf_calls: int = 0
    leaf_s: float = 0.0  # time of the outermost leaf calls made from this span

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class LeafTotals:
    calls: int = 0
    self_s: float = 0.0
    points: int = 0  # rows passed to evaluate_many


@dataclass
class _Frame:
    span: int | None  # index into spans, None for a leaf call
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    leaves: dict[str, LeafTotals] = field(default_factory=dict)
    # (name, span index, args, kwargs, return value) of every span call
    results: list[tuple[str, int, tuple, dict, object]] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)
    _op: int | None = None

    # -- recording -------------------------------------------------------

    def _enclosing_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span
        return None

    def begin_span(self, name: str) -> _Frame:
        span = Span(name, time.perf_counter(), parent=self._enclosing_span(), op=self._op)
        self.spans.append(span)
        frame = _Frame(len(self.spans) - 1)
        self._stack.append(frame)
        return frame

    def end_span(self, frame: _Frame) -> None:
        self._stack.pop()
        span = self.spans[frame.span]
        span.end = time.perf_counter()
        span.child_s = frame.child_s
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def begin_op(self, op: int) -> _Frame:
        self._op = op
        return self.begin_span(OP_SPAN)

    def end_op(self, frame: _Frame) -> None:
        self.end_span(frame)
        self._op = None

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.begin_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end_span(frame)
            self.results.append((name, frame.span, args, kwargs, result))
            return result

        return traced

    def _leaf_wrapper(self, name: str, fn):
        totals = self.leaves.setdefault(name, LeafTotals())
        many = name == "expr.evaluate_many"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                totals.calls += 1
                totals.self_s += dur - frame.child_s
                if many:
                    totals.points += len(args[1] if len(args) > 1 else kwargs["points"])
                owner = self._enclosing_span()
                if owner is not None:
                    span = self.spans[owner]
                    span.leaf_calls += 1
                    if self._stack[-1].span is not None:  # outermost leaf call
                        span.leaf_s += dur
                if self._stack:
                    self._stack[-1].child_s += dur

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every reference to a traced function in loaded logbarrier modules."""
        wrappers = {}
        tables = ((SPAN_FUNCTIONS, self._span_wrapper), (LEAF_FUNCTIONS, self._leaf_wrapper))
        for table, make in tables:
            for name, (module, attr) in table.items():
                original = getattr(sys.modules[module], attr)
                wrappers[id(original)] = make(name, original)
        for modname, module in list(sys.modules.items()):
            if modname != "logbarrier" and not modname.startswith("logbarrier."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i,
                    "name": s.name,
                    "op": s.op,
                    "parent": s.parent,
                    "start_ms": s.start * 1e3,
                    "end_ms": s.end * 1e3,
                    "self_ms": s.self_s * 1e3,
                    "leaf_calls": s.leaf_calls,
                    "leaf_ms": s.leaf_s * 1e3,
                }
                fh.write(json.dumps(rec) + "\n")
