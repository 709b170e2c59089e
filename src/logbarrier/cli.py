"""Command-line front end.

Commands: solve (continuation run, trace + certificate), diagnose
(hypothesis probes), contour (grid CSV of a constraint for plotting
elsewhere), oracle (grid minimization), list (builtin problems).  All
structured output is line-delimited JSON records sharing one schema, so a
single reader parses traces, certificates and diagnostic reports alike.
Exit codes: 0 success (or met expectation), 2 usage or input error,
3 solver or assumption failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import corpus, problem
from .certificate import Verdict, global_optimality_statement
from .continuation import ContinuationError, MuSchedule, solve
from .diagnostics import (
    DiagnosticsError,
    NoFeasibleSamplesError,
    SLATER_GRID_RES,
    SlaterReport,
    SlaterUnverifiedError,
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


def _emit(lines: list[str], out: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_problem(args) -> Problem:
    if args.builtin:
        return corpus.builtin(args.builtin).problem
    return problem.load(args.problem)


def _add_source(sub, required: bool = True):
    grp = sub.add_mutually_exclusive_group(required=required)
    grp.add_argument("--builtin", metavar="NAME", help="builtin problem name")
    grp.add_argument("--problem", metavar="PATH", help="problem JSON file")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=42, help="seed for probe sampling")
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
        "--newton",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="use shifted-Newton inner steps (--no-newton for steepest descent)",
    )
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
    except (ProblemError, ValueError) as err:
        _fail(f"input error: {err}")
        return 2

    records: list[dict] = []
    assumptions_verified = False
    start = None
    if args.require_assumptions:
        try:
            x0, margin = slater_find(p, SLATER_GRID_RES)
        except SlaterUnverifiedError as err:
            _fail(f"assumption check failed (slater): {err}")
            return 3
        records.append(SlaterReport(x0, margin, SLATER_GRID_RES).to_record())
        if p.interior_point is None:
            start = x0  # the point solve would search for again
        ndg = nondegeneracy_probe(p, seed=args.seed, x0=x0)
        records.append(ndg.to_record())
        if not ndg.passed:
            worst = min(
                (e.min_gradient_norm for e in ndg.entries if e.min_gradient_norm is not None),
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
        trace = solve(p, schedule, x0=start, newton=args.newton, tol_floor=args.tol)
    except (ContinuationError, InfeasibleStartError, SlaterUnverifiedError) as err:
        _fail(f"solve failed: {err}")
        return 3

    records.extend(pt.to_record() for pt in trace.points)
    cert = trace.final_certificate
    cert_record = cert.to_record()
    cert_record["assumptions_verified"] = assumptions_verified
    cert_record["statement"] = global_optimality_statement(cert, assumptions_verified)
    records.append(cert_record)
    _emit([json.dumps(r) for r in records], args.out)
    if cert.verdict is Verdict.NOT_CERTIFIED:
        _fail(f"final iterate not certified: {cert_record['statement']}")
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
                checks.append((name, float(value)))
            except ValueError:
                raise ValueError(f"bad numeric value in check {token!r}") from None
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
    slater: tuple | str | None = None  # first slater_find outcome: (x0, margin) or its error
    for name, value in checks:
        try:
            if name in ("slater", "nondegeneracy", "curvature"):
                if slater is None:
                    try:
                        slater = slater_find(p, SLATER_GRID_RES)
                    except SlaterUnverifiedError as err:
                        slater = str(err)
                if isinstance(slater, str):
                    raise SlaterUnverifiedError(slater)
                x0, margin = slater
            if name == "slater":
                records.append(SlaterReport(x0, margin, SLATER_GRID_RES).to_record())
                passed = True
            elif name == "nondegeneracy":
                report = nondegeneracy_probe(p, seed=args.seed, x0=x0)
                records.append(report.to_record())
                passed = report.passed
            elif name == "curvature":
                report = tangential_curvature_probe(p, seed=args.seed, x0=x0)
                records.append(report.to_record())
                if args.expect == "pass":
                    passed = all(
                        e.max_tangential_curvature is None
                        or e.max_tangential_curvature <= CURVATURE_PASS_TOL
                        for e in report.entries
                    )
                else:
                    passed = True
            elif name == "levelset":
                report = levelset_convexity_probe(p, "all", value, seed=args.seed)
                records.append(report.to_record())
                if args.expect == "nonconvex":
                    passed = report.verdict == "counterexample"
                elif args.expect == "pass":
                    passed = report.verdict == "convex_up_to_sampling"
                else:
                    passed = True
            else:
                if value <= 0:
                    _fail("input error: phiconvexity needs mu > 0")
                    return 2
                report = phi_convexity_probe(p, value, seed=args.seed)
                records.append(report.to_record())
                if args.expect in ("indefinite", "nonconvex"):
                    passed = report.min_eigenvalue < 0.0
                elif args.expect == "pass":
                    passed = report.min_eigenvalue >= PHI_CONVEX_PASS_TOL
                else:
                    passed = True
        except (SlaterUnverifiedError, NoFeasibleSamplesError, DiagnosticsError) as err:
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
    ax1 = np.linspace(p.box[0, 0], p.box[0, 1], args.res)
    ax2 = np.linspace(p.box[1, 0], p.box[1, 1], args.res)
    m1, m2 = np.meshgrid(ax1, ax2, indexing="ij")
    points = np.stack([m1.ravel(), m2.ravel()], axis=1)
    values = scan_values([g], points)[:, 0]  # where g overflows, +-inf

    # repr of a float round-trips exactly; numpy scalars must be unwrapped first
    lines = ["# levels: " + ",".join(repr(v) for v in levels), "x1,x2,g"]
    lines.extend(
        f"{float(points[i, 0])!r},{float(points[i, 1])!r},{float(values[i])!r}"
        for i in range(points.shape[0])
    )
    _emit(lines, args.out)
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
    _emit([json.dumps(result.to_record())], args.out)
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
        return _HANDLERS[args.command](args)
    except EvalError as err:  # an expression undefined where a command must evaluate it
        _fail(f"input error: {err}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
