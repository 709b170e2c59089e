"""Command-line front end.

Commands: solve (continuation run, trace + certificate), diagnose
(hypothesis probes), contour (grid CSV of a constraint for plotting
elsewhere), oracle (grid minimization), list (builtin problems).  All
structured output is line-delimited JSON records sharing one schema, so a
single reader parses traces, certificates and diagnostic reports alike;
record() writes each record from a result namedtuple's fields.

Handlers return nothing and raise on failure; main() alone turns an
exception into an exit code.  Exit 0: success (or a met expectation).
Exit 2, printed as "input error": a usage error, InputError (a flag value
or check list the command refuses, among them an --out that cannot be
written), ProblemError (problem data, or grid and oracle limits) and
EvalError (an expression undefined where the command evaluates it).  Exit 3:
an honest negative, NegativeResult (not certified, an assumption or probe
failed, an expectation did not hold), or "COMMAND failed: ..." for solve's
InfeasiblePointError and SlaterUnverifiedError and oracle's OracleError.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys

import numpy as np

from . import corpus, problem
from .barrier import InfeasiblePointError
from .continuation import MuSchedule, solve
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
from .oracle import OracleError, grid_minimize
from .problem import Problem, ProblemError

# each --check name: the record kind its report and its error write, whether a value
# follows the name (levelset:A), true of the checks that read the problem rather than
# the Slater outcome, and whether --expect judges its verdict
CHECKS = {
    "slater": ("slater", False, False),
    "nondegeneracy": ("nondegeneracy", False, False),
    "curvature": ("tangential_curvature", False, True),
    "levelset": ("levelset_convexity", True, True),
    "phiconvexity": ("phi_convexity", True, True),
}
# the verdict each --expect value needs; an empty_region meets neither
EXPECTED = {"pass": "convex_up_to_sampling", "nonconvex": "counterexample"}
ASSUMPTIONS = "slater,nondegeneracy,curvature"  # the checks solve --require-assumptions runs


class InputError(Exception):
    """A flag value or check list the command refuses: exit 2."""


class NegativeResult(Exception):
    """An honest negative; its message is printed as is: exit 3."""


def _fail(message: str) -> None:
    print(f"logbarrier: {message}", file=sys.stderr)


def _plain(value):
    """A result field as JSON data: a namedtuple becomes a dict in field
    order, an array or list a list; numbers, strings, str-Enums and None stay."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _plain(v) for name, v in zip(value._fields, value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def record(kind: str, result) -> dict:
    """The JSON record of a result namedtuple: {"record": kind, **fields}.

    Every record of a result namedtuple is written here, so a field's place
    in its namedtuple is its key's place in the record, and a field that is
    None (a level-set probe's witness where it found no counterexample) is null.
    Two records have no namedtuple and are built by hand: list's problem
    record, and the error record of a check that raised.
    """
    return {"record": kind, **_plain(result)}


def _check_out(out: str) -> None:
    """Raise InputError now if out cannot be opened for writing.

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
    raise InputError(f"cannot write {out}: {os.strerror(code)}")


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
        raise InputError(f"cannot write {out}: {err.strerror or err}") from None


def _emit(records: list[dict], out: str | None) -> None:
    """Write records as line-delimited JSON to the --out file, or to stdout."""
    _write(["".join(json.dumps(r) + "\n" for r in records)], out)


def _load_problem(args) -> Problem:
    if args.builtin:
        return corpus.builtin(args.builtin).problem
    return problem.load(args.problem)


def _count(text: str) -> int:
    """The type of --seed (numpy seeds its generators with non-negative
    integers) and of --polish (a number of sweeps)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_common(sub, seed: bool):
    """--builtin or --problem, --seed where the command samples, and --out."""
    grp = sub.add_mutually_exclusive_group(required=True)
    grp.add_argument("--builtin", metavar="NAME", help="builtin problem name")
    grp.add_argument("--problem", metavar="PATH", help="problem JSON file")
    if seed:
        sub.add_argument("--seed", type=_count, default=42, help="seed for probe sampling")
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


@functools.cache  # one parser per process: each build is a reference cycle of ~260 objects
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logbarrier",
        description="log-barrier continuation solver with KKT certificates and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run continuation and certify the final iterate")
    _add_common(sp, seed=True)
    sp.add_argument("--mu0", type=float, default=1.0, help="initial barrier weight")
    sp.add_argument("--mu-factor", type=float, default=0.2, help="geometric decrease factor")
    sp.add_argument("--mu-min", type=float, default=1e-8, help="final barrier weight")
    sp.add_argument(
        "--require-assumptions",
        action="store_true",
        help="verify strict feasibility, nondegeneracy and boundary curvature before solving",
    )

    sp = sub.add_parser("diagnose", help="run hypothesis probes")
    _add_common(sp, seed=True)
    sp.add_argument(
        "--check",
        required=True,
        metavar="LIST",
        help="comma-separated: slater, nondegeneracy, curvature, levelset:A, phiconvexity:MU",
    )
    sp.add_argument(
        "--expect",
        choices=["nonconvex", "pass"],
        help="turn curvature, levelset and phiconvexity verdicts into pass/fail expectations",
    )

    sp = sub.add_parser("contour", help="grid CSV of one constraint over the box")
    _add_common(sp, seed=False)
    sp.add_argument("--levels", default="0", metavar="CSV", help="level values, comma-separated")
    sp.add_argument("--res", type=int, default=201, help="grid resolution per axis")
    sp.add_argument("--constraint", type=int, default=1, help="1-based constraint index")

    sp = sub.add_parser("oracle", help="brute-force grid minimization")
    _add_common(sp, seed=False)
    sp.add_argument("--res", type=int, help="grid points per axis (default 2001, 512 in 3-D)")
    sp.add_argument("--polish", type=_count, default=50, help="polish sweeps along rays; 0 skips")

    sp = sub.add_parser("list", help="list builtin problems")
    sp.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    return parser


def _run_solve(args) -> None:
    p = _load_problem(args)
    try:
        schedule = MuSchedule(mu0=args.mu0, factor=args.mu_factor, mu_min=args.mu_min)
    except ValueError as err:
        raise InputError(str(err)) from None

    records: list[dict] = []
    start = None
    if args.require_assumptions:
        records, failed, slater = _diagnose(p, _parse_checks(ASSUMPTIONS), args.seed, "pass")
        if failed:
            _emit(records, args.out)
            raise NegativeResult(f"assumption checks failed: {', '.join(failed)}")
        start = slater.point if p.interior_point is None else None  # solve would search again

    trace = solve(p, schedule, x0=start)
    records.extend(record("path_point", pt) for pt in trace.points)
    cert = trace.final_certificate
    records.append(record("certificate", cert))
    _emit(records, args.out)
    if cert.verdict == "not_certified":
        raise NegativeResult(f"final iterate not certified: {cert.statement}")


def _parse_checks(text: str) -> list[tuple[str, float | None]]:
    checks: list[tuple[str, float | None]] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise InputError("empty check name")
        name, sep, value = token.partition(":")
        if name not in CHECKS or bool(sep) != CHECKS[name][1]:
            raise InputError(f"unknown check {token!r}")
        number = None
        if sep:
            try:
                number = float(value)
            except ValueError:
                raise InputError(f"bad numeric value in check {token!r}") from None
            if not math.isfinite(number):
                raise InputError(f"check {token!r} needs a finite value")
            if name == "phiconvexity" and number <= 0:
                raise InputError("phiconvexity needs mu > 0")
        checks.append((name, number))
    return checks


def _diagnose(p: Problem, checks, seed: int, expect: str | None):
    """Run the checks; return their records, the names that failed and the Slater outcome."""
    records: list[dict] = []
    failed: list[str] = []
    # one slater_find report or refusal message, and one boundary walk past it, serve the
    # checks that take no value; the refusal is kept as text, since a kept exception's
    # traceback holds this frame, a cycle that pins the problem until a full collection
    slater = sample = None
    for name, value in checks:
        kind, reads_problem, judged = CHECKS[name]
        try:
            if not reads_problem:  # slater reads the Slater outcome; the other two, the sample
                if slater is None:
                    try:
                        slater = slater_find(p)
                    except SlaterUnverifiedError as err:
                        slater = str(err)
                if isinstance(slater, str):
                    raise SlaterUnverifiedError(slater)
                if name != "slater" and sample is None:
                    sample = boundary_sample(p, slater.point, seed=seed)
                probe = tangential_curvature_probe if name == "curvature" else nondegeneracy_probe
                report = slater if name == "slater" else probe(sample)
            elif name == "levelset":
                report = levelset_convexity_probe(p, value, seed=seed)
            else:
                report = phi_convexity_probe(p, value, seed=seed)
            if judged:
                passed = expect is None or report.verdict == EXPECTED[expect]
            else:
                passed = report.passed
            records.append(record(kind, report))
        except DiagnosticsError as err:
            records.append({"record": kind, "passed": False, "error": str(err)})
            passed = False
        if not passed:
            failed.append(name)
    return records, failed, slater


def _run_diagnose(args) -> None:
    p = _load_problem(args)
    checks = _parse_checks(args.check)
    if args.expect and not any(CHECKS[name][2] for name, _ in checks):
        raise InputError("--expect needs a curvature, levelset or phiconvexity check")
    records, failed, _ = _diagnose(p, checks, args.seed, args.expect)
    _emit(records, args.out)
    if failed:
        raise NegativeResult("one or more checks failed (see report records)")


def _run_contour(args) -> None:
    p = _load_problem(args)
    if p.nvars != 2:
        raise InputError(f"contour needs a 2-variable problem, got {p.nvars}")
    if args.res < 2:
        raise InputError(f"resolution must be at least 2, got {args.res}")
    if not 1 <= args.constraint <= len(p.constraints):
        raise InputError(f"constraint index {args.constraint} out of range")
    tokens = [tok.strip() for tok in args.levels.split(",") if tok.strip()]
    try:
        levels = [float(tok) for tok in tokens]
    except ValueError:
        raise InputError(f"bad level list {args.levels!r}") from None
    if not levels:
        raise InputError("empty level list")
    for tok, level in zip(tokens, levels):
        if not math.isfinite(level):
            raise InputError(f"level {tok!r} needs a finite value")

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


def _run_oracle(args) -> None:
    p = _load_problem(args)
    result = grid_minimize(p, res=args.res, polish_steps=args.polish)
    _emit([record("oracle", result)], args.out)


def _run_list(args) -> None:
    records = []
    for name in corpus.names():
        entry = corpus.builtin(name)
        rec = {
            "record": "problem",
            "name": name,
            "nvars": entry.problem.nvars,
            "constraints": len(entry.problem.constraints),
            "provenance": entry.provenance,
            "known_optimum": _plain(entry.known_optimum),
        }
        records.append(rec)
    _emit(records, args.out)


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
        _HANDLERS[args.command](args)
    # a refused flag value (an --out path that is a directory or lies in a
    # missing or unwritable one among them), bad problem data, or an
    # expression undefined where a command must evaluate it
    except (InputError, ProblemError, EvalError) as err:
        _fail(f"input error: {err}")
        return 2
    except NegativeResult as err:
        _fail(str(err))
        return 3
    except (InfeasiblePointError, SlaterUnverifiedError, OracleError) as err:
        _fail(f"{args.command} failed: {err}")
        return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
