"""Command-line front end.

Commands: solve (continuation run, trace + certificate), diagnose
(hypothesis probes), contour (grid CSV of a constraint for plotting
elsewhere), oracle (grid minimization), list (builtin problems).  All
structured output is line-delimited JSON records sharing one schema, so a
single reader parses traces, certificates and diagnostic reports alike;
record() writes each result record from its NamedTuple's fields.
Exit codes: 0 success (or met expectation), 2 usage or input error,
3 solver or assumption failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

import numpy as np

from . import corpus, problem
from .certificate import Verdict, global_optimality_statement
from .continuation import ContinuationError, MuSchedule, solve
from .diagnostics import (
    DiagnosticsError,
    SlaterUnverifiedError,
    boundary_sample,
    levelset_convexity_probe,
    nondegeneracy_probe,
    phi_convexity_probe,
    slater_find,
    tangential_curvature_probe,
)
from .expr import EvalError, scan_values
from .inner import InfeasibleStartError
from .oracle import MAX_ORACLE_VARS, MIN_RESOLUTION, OracleError, grid_minimize
from .problem import Problem, ProblemError

CURVATURE_PASS_TOL = 1e-6
PHI_CONVEX_PASS_TOL = -1e-8


def _fail(message: str) -> None:
    print(f"logbarrier: {message}", file=sys.stderr)


def _plain(value):
    """A result field as JSON data: a NamedTuple becomes a dict in field
    order, an array or list a list; numbers, str-Enums and None stay."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _plain(v) for name, v in zip(value._fields, value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def record(kind: str, result, **extra) -> dict:
    """The JSON record of a result NamedTuple: {"record": kind, **fields, **extra}.

    Every result record the CLI prints is written here, so a field's place
    in its NamedTuple is its key's place in the record.  A witness that is
    None (a level-set probe that found no counterexample) is left out.
    """
    rec = {"record": kind, **_plain(result), **extra}
    if "witness" in rec and rec["witness"] is None:
        del rec["witness"]
    return rec


class OutputError(Exception):
    """The --out file cannot be written."""


def _check_out(out: str) -> None:
    """Raise OutputError now if out cannot be opened for writing.

    Creates and truncates nothing; _write still reports what changes
    between this check and the write.
    """
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OutputError(f"cannot write {out}: {os.strerror(code)}")


def _write(chunks, out: str | None) -> None:
    """Write an iterable of text chunks to the --out file, or to stdout."""
    if not out:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as err:
        raise OutputError(f"cannot write {out}: {err.strerror or err}") from None


def _emit(lines: list[str], out: str | None) -> None:
    _write(["".join(line + "\n" for line in lines)], out)


def _load_problem(args) -> Problem:
    if args.builtin:
        return corpus.builtin(args.builtin).problem
    return problem.load(args.problem)


def _add_source(sub, required: bool = True):
    grp = sub.add_mutually_exclusive_group(required=required)
    grp.add_argument("--builtin", metavar="NAME", help="builtin problem name")
    grp.add_argument("--problem", metavar="PATH", help="problem JSON file")


def _seed(text: str) -> int:
    """The --seed type: numpy seeds its generators with non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_common(sub):
    sub.add_argument("--seed", type=_seed, default=42, help="seed for probe sampling")
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logbarrier",
        description="log-barrier continuation solver with KKT certificates and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run continuation and certify the final iterate")
    _add_source(sp)
    _add_common(sp)
    sp.add_argument("--mu0", type=float, default=1.0, help="initial barrier weight")
    sp.add_argument("--mu-factor", type=float, default=0.2, help="geometric decrease factor")
    sp.add_argument("--mu-min", type=float, default=1e-8, help="final barrier weight")
    sp.add_argument("--tol", type=float, default=1e-8, help="inner gradient tolerance floor")
    sp.add_argument(
        "--require-assumptions",
        action="store_true",
        help="verify strict feasibility and nondegeneracy before solving; fail otherwise",
    )

    sp = sub.add_parser("diagnose", help="run hypothesis probes")
    _add_source(sp)
    _add_common(sp)
    sp.add_argument(
        "--check",
        required=True,
        metavar="LIST",
        help="comma-separated: slater, nondegeneracy, curvature, levelset:A, phiconvexity:MU",
    )
    sp.add_argument(
        "--expect",
        choices=["nonconvex", "indefinite", "pass"],
        help="turn levelset/phiconvexity findings into pass/fail expectations",
    )

    sp = sub.add_parser("contour", help="grid CSV of one constraint over the box")
    _add_source(sp)
    _add_common(sp)
    sp.add_argument("--levels", default="0", metavar="CSV", help="level values, comma-separated")
    sp.add_argument("--res", type=int, default=201, help="grid resolution per axis")
    sp.add_argument("--constraint", type=int, default=1, help="1-based constraint index")

    sp = sub.add_parser("oracle", help="brute-force grid minimization")
    _add_source(sp)
    _add_common(sp)
    sp.add_argument("--res", type=int, default=2001, help="grid resolution per axis")
    sp.add_argument("--polish", type=int, default=50, help="projected-descent polish steps")

    sp = sub.add_parser("list", help="list builtin problems")
    sp.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    return parser


def _run_solve(args) -> int:
    try:
        p = _load_problem(args)
        schedule = MuSchedule(mu0=args.mu0, factor=args.mu_factor, mu_min=args.mu_min)
        if not math.isfinite(args.tol):
            raise ValueError(f"--tol must be finite, got {args.tol}")
    except (ProblemError, ValueError) as err:
        _fail(f"input error: {err}")
        return 2

    records: list[dict] = []
    assumptions_verified = False
    ndg = None
    start = None
    if args.require_assumptions:
        try:
            slater = slater_find(p)
        except SlaterUnverifiedError as err:
            _fail(f"assumption check failed (slater): {err}")
            return 3
        records.append(record("slater", slater))
        if p.interior_point is None:
            start = slater.point  # the point solve would search for again
        ndg = nondegeneracy_probe(p, boundary_sample(p, slater.point, seed=args.seed))
        records.append(record("nondegeneracy", ndg))
        if not ndg.passed:
            worst = min(
                (e.min_gradient_norm for e in ndg.constraints if e.min_gradient_norm is not None),
                default=0.0,
            )
            _emit([json.dumps(r) for r in records], args.out)
            _fail(
                "assumption check failed (nondegeneracy): active constraint gradient "
                f"norm {worst:.3e} below {ndg.delta:.1e} at sampled boundary points"
            )
            return 3
        assumptions_verified = True

    try:
        trace = solve(p, schedule, x0=start, tol_floor=args.tol)
    except (ContinuationError, InfeasibleStartError, SlaterUnverifiedError) as err:
        _fail(f"solve failed: {err}")
        return 3

    records.extend(record("path_point", pt) for pt in trace.points)
    cert = trace.final_certificate
    unverified = None
    if ndg is not None:
        # an active constraint that no sampled boundary point reached has
        # had its gradient checked nowhere
        unsampled = [f"g{j}" for j in cert.active_set if ndg.constraints[j - 1].samples == 0]
        if unsampled:
            assumptions_verified = False
            plural = "s" if len(unsampled) > 1 else ""
            unverified = (
                f"nondegeneracy of active constraint{plural} {', '.join(unsampled)}, "
                "which no sampled boundary point reached,"
            )
    statement = global_optimality_statement(cert, assumptions_verified, unverified=unverified)
    records.append(
        record(
            "certificate", cert, assumptions_verified=assumptions_verified, statement=statement
        )
    )
    _emit([json.dumps(r) for r in records], args.out)
    if cert.verdict is Verdict.NOT_CERTIFIED:
        _fail(f"final iterate not certified: {statement}")
        return 3
    return 0


def _parse_checks(text: str) -> list[tuple[str, float | None]]:
    checks: list[tuple[str, float | None]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty check name")
        if token in ("slater", "nondegeneracy", "curvature"):
            checks.append((token, None))
            continue
        name, sep, value = token.partition(":")
        if name in ("levelset", "phiconvexity") and sep:
            try:
                number = float(value)
            except ValueError:
                raise ValueError(f"bad numeric value in check {token!r}") from None
            if not math.isfinite(number):
                raise ValueError(f"check {token!r} needs a finite value")
            if name == "phiconvexity" and number <= 0:
                raise ValueError("phiconvexity needs mu > 0")
            checks.append((name, number))
            continue
        raise ValueError(f"unknown check {token!r}")
    return checks


def _run_diagnose(args) -> int:
    try:
        p = _load_problem(args)
        checks = _parse_checks(args.check)
    except (ProblemError, ValueError) as err:
        _fail(f"input error: {err}")
        return 2

    records: list[dict] = []
    all_passed = True
    slater = None  # the first slater_find outcome: its report, or its error message
    sample = None  # the boundary walk both boundary probes read
    for name, value in checks:
        try:
            if name in ("slater", "nondegeneracy", "curvature"):
                if slater is None:
                    try:
                        slater = slater_find(p)
                    except SlaterUnverifiedError as err:
                        slater = str(err)
                if isinstance(slater, str):
                    raise SlaterUnverifiedError(slater)
            if name in ("nondegeneracy", "curvature") and sample is None:
                sample = boundary_sample(p, slater.point, seed=args.seed)
            if name == "slater":
                records.append(record("slater", slater))
                passed = True
            elif name == "nondegeneracy":
                report = nondegeneracy_probe(p, sample)
                records.append(record("nondegeneracy", report))
                passed = report.passed
            elif name == "curvature":
                report = tangential_curvature_probe(p, sample)
                records.append(record("tangential_curvature", report))
                if args.expect == "pass":
                    passed = all(
                        e.max_tangential_curvature is None
                        or e.max_tangential_curvature <= CURVATURE_PASS_TOL
                        for e in report.constraints
                    )
                else:
                    passed = True
            elif name == "levelset":
                report = levelset_convexity_probe(p, value, seed=args.seed)
                records.append(record("levelset_convexity", report))
                if args.expect == "nonconvex":
                    passed = report.verdict == "counterexample"
                elif args.expect == "pass":
                    passed = report.verdict == "convex_up_to_sampling"
                else:
                    passed = True
            else:
                report = phi_convexity_probe(p, value, seed=args.seed)
                records.append(record("phi_convexity", report))
                if args.expect in ("indefinite", "nonconvex"):
                    passed = report.min_eigenvalue < 0.0
                elif args.expect == "pass":
                    passed = report.min_eigenvalue >= PHI_CONVEX_PASS_TOL
                else:
                    passed = True
        except DiagnosticsError as err:
            records.append({"record": name, "passed": False, "error": str(err)})
            passed = False
        if not passed:
            all_passed = False

    _emit([json.dumps(r) for r in records], args.out)
    if not all_passed:
        _fail("one or more checks failed (see report records)")
        return 3
    return 0


def _run_contour(args) -> int:
    try:
        p = _load_problem(args)
    except ProblemError as err:
        _fail(f"input error: {err}")
        return 2
    if p.nvars != 2:
        _fail(f"input error: contour needs a 2-variable problem, got {p.nvars}")
        return 2
    if args.res < 2:
        _fail(f"input error: resolution must be at least 2, got {args.res}")
        return 2
    if not 1 <= args.constraint <= p.nconstraints:
        _fail(f"input error: constraint index {args.constraint} out of range")
        return 2
    try:
        levels = [float(tok) for tok in args.levels.split(",") if tok.strip()]
    except ValueError:
        _fail(f"input error: bad level list {args.levels!r}")
        return 2
    if not levels:
        _fail("input error: empty level list")
        return 2

    g = p.constraints[args.constraint - 1]
    # a values-only pass first: where g is undefined somewhere on the grid,
    # the EvalError comes before any output, so none is left half written
    for block in problem.grid_blocks(p.box, args.res):
        scan_values([g], block)

    def chunks():
        # repr of a float round-trips exactly; tolist unwraps the numpy scalars
        yield "# levels: " + ",".join(repr(v) for v in levels) + "\nx1,x2,g\n"
        for block in problem.grid_blocks(p.box, args.res):
            values = scan_values([g], block)[:, 0]  # where g overflows, +-inf
            yield "".join(
                f"{x1!r},{x2!r},{v!r}\n" for (x1, x2), v in zip(block.tolist(), values.tolist())
            )

    _write(chunks(), args.out)
    return 0


def _run_oracle(args) -> int:
    try:
        p = _load_problem(args)
    except ProblemError as err:
        _fail(f"input error: {err}")
        return 2
    if p.nvars > MAX_ORACLE_VARS:
        _fail(f"input error: oracle supports up to {MAX_ORACLE_VARS} variables, got {p.nvars}")
        return 2
    if args.res < MIN_RESOLUTION:
        _fail(f"input error: oracle resolution must be at least {MIN_RESOLUTION}")
        return 2
    try:
        result = grid_minimize(p, res=args.res, polish_steps=args.polish)
    except OracleError as err:
        _fail(f"oracle failed: {err}")
        return 3
    _emit([json.dumps(record("oracle", result))], args.out)
    return 0


def _run_list(args) -> int:
    records = []
    for name in corpus.names():
        entry = corpus.builtin(name)
        rec = {
            "record": "problem",
            "name": name,
            "nvars": entry.problem.nvars,
            "constraints": entry.problem.nconstraints,
            "provenance": entry.provenance,
        }
        if entry.known_optimum is not None:
            rec["known_optimum"] = {
                "x": list(entry.known_optimum.x),
                "f": entry.known_optimum.f,
                "provenance": entry.known_optimum.provenance,
            }
        records.append(rec)
    _emit([json.dumps(r) for r in records], args.out)
    return 0


_HANDLERS = {
    "solve": _run_solve,
    "diagnose": _run_diagnose,
    "contour": _run_contour,
    "oracle": _run_oracle,
    "list": _run_list,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.out:
            _check_out(args.out)
        return _HANDLERS[args.command](args)
    # an expression undefined where a command must evaluate it, or an --out
    # path that is a directory or lies in a missing or unwritable one
    except (EvalError, OutputError) as err:
        _fail(f"input error: {err}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
