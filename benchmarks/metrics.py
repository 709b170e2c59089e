"""End-to-end statistics and per-layer metrics computed from a trace."""

from __future__ import annotations

import statistics

from tracing import Tracer

TAIL_BEYOND = 10


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least `beyond` samples above it.

    Returns (value, percentile, n): the order statistic with exactly
    `beyond` samples after it, the share of samples at or below it in
    percent, and the sample count.  Needs more than `beyond` samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for the tail, got {n}")
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def end_to_end(
    op_s: list[float], phase_s: float, setup_s: list[float], failed: int, rss_mb: float
):
    """name -> (value, unit, note) for the untraced run."""
    tail_s, tail_pct, n = tail(op_s)
    return {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "op_ms_p50": (1e3 * statistics.median(op_s), "ms", f"{n} ops"),
        "op_ms_tail": (1e3 * tail_s, "ms", f"p{tail_pct:.1f} of {n} ops, {TAIL_BEYOND} beyond"),
        "ops_per_s": (n / phase_s, "1/s", f"{n} ops in {phase_s:.3f} s"),
        "failed_frac": (failed / n, "ratio", f"{failed} of {n} ops failed"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of the benchmark process"),
    }


def _span_ms(tracer: Tracer, name: str) -> tuple[float, float, int]:
    """Total and self milliseconds, and the number of spans, for one span name."""
    total = self_ = 0.0
    count = 0
    for s in tracer.spans:
        if s.name == name:
            total += s.end - s.start
            self_ += s.self_s
            count += 1
    return 1e3 * total, 1e3 * self_, count


def layer_metrics(tracer: Tracer, default_stages: int) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every layer; default_stages is len(MuSchedule().weights())."""
    out: dict[str, tuple[float, str]] = {}
    leaves = tracer.leaves

    iterations = max_iters = stalls = 0
    stage_parent: dict[int, int] = {}
    for name, span_idx, args, kwargs, result in tracer.results:
        if name == "inner.solve_inner":
            iterations += result.iterations
            max_iters += result.status.value == "max_iters"
            stalls += result.status.value == "line_search_stall"
            parent = tracer.spans[span_idx].parent
            stage_parent[parent] = stage_parent.get(parent, 0) + 1
    retries = 0
    for name, span_idx, args, kwargs, result in tracer.results:
        if name == "continuation.solve":
            schedule = kwargs.get("schedule", args[1] if len(args) > 1 else None)
            planned = len(schedule.weights()) if schedule is not None else default_stages
            retries += stage_parent.get(span_idx, 0) - planned

    value_calls = leaves["barrier.barrier_value"].calls
    _, inner_self, stages = _span_ms(tracer, "inner.solve_inner")
    out["inner.iterations"] = (iterations, "count")
    out["inner.max_iters_stages"] = (max_iters, "count")
    out["inner.stall_stages"] = (stalls, "count")
    out["inner.trials_per_iteration"] = (value_calls / iterations if iterations else 0.0, "ratio")
    out["inner.self_ms"] = (inner_self, "ms")

    _, cont_self, _ = _span_ms(tracer, "continuation.solve")
    out["continuation.stages"] = (stages, "count")
    out["continuation.retries"] = (retries, "count")
    out["continuation.self_ms"] = (cont_self, "ms")

    for fn in ("barrier_value", "barrier_eval", "barrier_hessian"):
        t = leaves[f"barrier.{fn}"]
        out[f"barrier.{fn}.calls"] = (t.calls, "count")
        out[f"barrier.{fn}.self_ms"] = (1e3 * t.self_s, "ms")

    t = leaves["expr.parse"]
    out["expr.parse.calls"] = (t.calls, "count")
    out["expr.parse.self_ms"] = (1e3 * t.self_s, "ms")
    for fn in ("evaluate", "evaluate_dual"):
        t = leaves[f"expr.{fn}"]
        out[f"expr.{fn}.calls"] = (t.calls, "count")
        out[f"expr.{fn}.us_per_call"] = (1e6 * t.self_s / t.calls if t.calls else 0.0, "us")
    t = leaves["expr.evaluate_many"]
    out["expr.evaluate_many.calls"] = (t.calls, "count")
    out["expr.evaluate_many.points"] = (t.points, "count")
    out["expr.evaluate_many.ns_per_point"] = (1e9 * t.self_s / t.points if t.points else 0.0, "ns")

    _, kkt_self, kkt_calls = _span_ms(tracer, "certificate.check_kkt")
    out["certificate.check_kkt.calls"] = (kkt_calls, "count")
    out["certificate.check_kkt.self_ms"] = (kkt_self, "ms")

    slater_ms, _, slater_calls = _span_ms(tracer, "diagnostics.slater_find")
    out["diagnostics.slater_find.calls"] = (slater_calls, "count")
    out["diagnostics.slater_find.ms"] = (slater_ms, "ms")
    for probe in (
        "nondegeneracy_probe",
        "tangential_curvature_probe",
        "levelset_convexity_probe",
        "phi_convexity_probe",
    ):
        total, self_, _ = _span_ms(tracer, f"diagnostics.{probe}")
        out[f"diagnostics.{probe}.ms"] = (total, "ms")
        out[f"diagnostics.{probe}.self_ms"] = (self_, "ms")
    boundary = pairs = samples = 0
    for name, _, _, _, result in tracer.results:
        if name in ("diagnostics.nondegeneracy_probe", "diagnostics.tangential_curvature_probe"):
            boundary += result.boundary_points
        elif name == "diagnostics.levelset_convexity_probe":
            pairs += result.pairs_checked
        elif name == "diagnostics.phi_convexity_probe":
            samples += result.samples
    out["diagnostics.boundary_points"] = (boundary, "count")
    out["diagnostics.levelset.pairs_checked"] = (pairs, "count")
    out["diagnostics.phi.samples"] = (samples, "count")

    grid_ms, grid_self, _ = _span_ms(tracer, "oracle.grid_minimize")
    grid_points = 0
    for name, _, args, kwargs, result in tracer.results:
        if name == "oracle.grid_minimize":
            grid_points += result.grid_resolution ** args[0].nvars
    out["oracle.grid_minimize.ms"] = (grid_ms, "ms")
    out["oracle.grid_minimize.self_ms"] = (grid_self, "ms")
    out["oracle.grid_points"] = (grid_points, "count")

    load_ms, _, load_calls = _span_ms(tracer, "problem.load")
    out["problem.load.calls"] = (load_calls, "count")
    out["problem.load.ms"] = (load_ms, "ms")

    _, cli_self, ops = _span_ms(tracer, "cli.op")
    out["cli.self_ms"] = (cli_self, "ms")
    out["cli.ops"] = (ops, "count")
    return out
