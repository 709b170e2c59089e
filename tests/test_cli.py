"""Command-line surface: exit codes, records on stdout or --out, failure paths."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from logbarrier import cli, corpus, diagnostics, problem

DATA = Path(__file__).resolve().parents[1] / "src" / "logbarrier" / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


STRIP = {
    "name": "strip",
    "nvars": 2,
    "objective": "x1",
    "constraints": ["1 - 0.6*x1 - 0.8*x2", "1 + 0.6*x1 + 0.8*x2"],
    "box": [[-2, 2], [-2, 2]],
    "interior_point": [0, 0],
}


def _records(text):
    return [json.loads(line) for line in text.splitlines() if line]


@pytest.fixture()
def void_file(tmp_path):
    path = tmp_path / "void.json"
    path.write_text(
        json.dumps(
            {
                "name": "void",
                "nvars": 1,
                "objective": "x1",
                "constraints": ["-1 - x1^2"],
                "box": [[-2, 2]],
            }
        )
    )
    return path


@pytest.fixture()
def ball3_file(tmp_path):
    path = tmp_path / "ball3.json"
    path.write_text(
        json.dumps(
            {
                "name": "ball3",
                "nvars": 3,
                "objective": "x1 + x2 + x3",
                "constraints": ["1 - x1^2 - x2^2 - x3^2"],
                "box": [[-1.5, 1.5]] * 3,
                "interior_point": [0, 0, 0],
            }
        )
    )
    return path


@pytest.mark.parametrize("name", corpus.names())
def test_solve_prints_the_records_of_the_library_results(run_cli, traces, name):
    # the CLI adds nothing to a record: solve's stdout is cli.record of each
    # path point and of the final certificate that continuation.solve returns
    trace = traces[name]
    want = [cli.record("path_point", pt) for pt in trace.points]
    want.append(cli.record("certificate", trace.final_certificate))
    code, stdout, _ = run_cli(["solve", "--builtin", name])
    assert code == (3 if name == "degenerate-disk" else 0)
    assert stdout == "".join(json.dumps(r) + "\n" for r in want)


def test_solve_records(run_cli, tmp_path):
    out = tmp_path / "trace.jsonl"
    code, stdout, stderr = run_cli(["solve", "--builtin", "hyperbola", "--out", out])
    assert code == 0
    assert stdout == ""
    records = _records(out.read_text())
    assert [r["record"] for r in records[:-1]] == ["path_point"] * (len(records) - 1)
    cert = records[-1]
    assert cert["record"] == "certificate"
    assert cert["verdict"] == "kkt_point"
    # the claim rests on the certificate alone, without --require-assumptions
    assert cert["statement"].startswith("x is a KKT point at the stated tolerances")
    assert "global minimizer" in cert["statement"]
    assert abs(cert["objective"] - 2.0) <= 1e-4
    mus = [r["mu"] for r in records[:-1]]
    assert mus[0] == 1.0
    assert all(a > b for a, b in zip(mus, mus[1:]))


def test_solve_loads_problem_file(run_cli):
    code, stdout, _ = run_cli(["solve", "--problem", DATA / "disk.json"])
    assert code == 0
    cert = _records(stdout)[-1]
    assert cert["verdict"] == "kkt_point"
    assert abs(cert["objective"] - 0.1715728752538097) <= 1e-4


def test_solve_uncertified_exit(run_cli):
    # stopping continuation early leaves residuals above certificate tolerance
    code, stdout, stderr = run_cli(["solve", "--builtin", "disk", "--mu-min", "0.1"])
    assert code == 3
    assert _records(stdout)[-1]["verdict"] == "not_certified"
    assert "not certified" in stderr


def test_solve_certifies_a_steep_linear_objective(run_cli, tmp_path):
    # the last stages end no_progress above their gradient tolerance, and
    # the certificate still accepts the final iterate; c*x1 has lam = c / 2
    for objective, lam, tol in [("50*x1", 25.0, 1e-5), ("200*x1", 100.0, 1e-6)]:
        path = tmp_path / "steep.json"
        path.write_text(
            json.dumps(
                {
                    "name": "steep",
                    "nvars": 2,
                    "objective": objective,
                    "constraints": ["1 - x1^2 - x2^2"],
                    "box": [[-1.5, 1.5], [-1.5, 1.5]],
                    "interior_point": [0, 0],
                }
            )
        )
        code, stdout, _ = run_cli(["solve", "--problem", path])
        assert code == 0, objective
        cert = _records(stdout)[-1]
        assert cert["verdict"] == "kkt_point", objective
        assert abs(cert["multipliers"][0] - lam) <= tol, objective


@pytest.mark.parametrize("name", corpus.names())
def test_solve_prints_the_whole_path_off_the_default_schedule(run_cli, name):
    # stages below mu 1e-8 stop short of tolerance; none aborts the run
    code, stdout, stderr = run_cli(["solve", "--builtin", name, "--mu-min", "1e-12"])
    records = _records(stdout)
    assert [r["record"] for r in records] == ["path_point"] * 18 + ["certificate"]
    verdict = records[-1]["verdict"]
    assert (code == 0) == (verdict != "not_certified"), (code, verdict, stderr)
    if name in ("cassini", "hyperbola", "epsbox", "disk"):
        assert code == 0


def test_solve_verified_assumptions(run_cli, tmp_path):
    out = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(["solve", "--builtin", "disk", "--require-assumptions", "--out", out])
    assert code == 0
    records = _records(out.read_text())
    assert records[0]["record"] == "slater"
    assert records[1]["record"] == "nondegeneracy"
    cert = records[-1]
    assert "global minimizer" in cert["statement"]
    # the flag gates the solve; the certificate and its statement do not depend on it
    code, stdout, _ = run_cli(["solve", "--builtin", "disk"])
    assert (code, _records(stdout)[-1]) == (0, cert)


@pytest.mark.parametrize("mu_min", ["1e-8", "1e-12"])
def test_a_degenerate_limit_is_refused_without_the_assumption_check(run_cli, mu_min):
    # grad g = 0 at the cusped disk's limit while grad f is not, so no finite
    # multiplier exists there, however small the residuals
    code, stdout, stderr = run_cli(["solve", "--builtin", "degenerate-disk", "--mu-min", mu_min])
    assert code == 3
    records = _records(stdout)
    assert [r["record"] for r in records if r["record"] != "path_point"] == ["certificate"]
    cert = records[-1]
    assert (cert["verdict"], cert["active_set"]) == ("not_certified", [1])
    assert cert["least_active_singular_value"] < diagnostics.NONDEGENERACY_DELTA
    assert stderr.startswith(
        "logbarrier: final iterate not certified: not certified: "
        "the active constraint gradients vanish at x"
    )
    assert "no finite multiplier exists" in stderr


def test_the_global_claim_names_the_convexity_of_f_as_assumed(run_cli, tmp_path):
    # x1 - x2^2 is not convex: the KKT point (-1, 0) has f = -1, while the
    # minimum over the disk is -1.25 at (-0.5, +-sqrt(0.75))
    path = tmp_path / "concave.json"
    path.write_text(
        json.dumps(
            {
                "name": "concave",
                "nvars": 2,
                "objective": "x1 - x2^2",
                "constraints": ["1 - x1^2 - x2^2"],
                "box": [[-1.5, 1.5], [-1.5, 1.5]],
                "interior_point": [0, 0],
            }
        )
    )
    code, stdout, _ = run_cli(["solve", "--problem", path, "--require-assumptions"])
    assert code == 0
    cert = _records(stdout)[-1]
    assert cert["verdict"] == "kkt_point"
    assert abs(cert["objective"] + 1.0) <= 1e-6
    assert "if f and the feasible set are convex, which is assumed, not checked" in cert["statement"]


def test_solve_assumption_check_fails(run_cli, tmp_path):
    # a failed assumption prints the records diagnose prints, and its message names the check
    out = tmp_path / "trace.jsonl"
    code, stdout, stderr = run_cli(
        ["solve", "--builtin", "degenerate-disk", "--require-assumptions", "--out", out]
    )
    assert (code, stdout) == (3, "")
    assert stderr == "logbarrier: assumption checks failed: nondegeneracy, curvature\n"
    argv = ["diagnose", "--builtin", "degenerate-disk", "--check", cli.ASSUMPTIONS]
    assert run_cli(argv)[:2] == (3, out.read_text())
    records = _records(out.read_text())
    assert [(r["record"], r.get("passed")) for r in records] == [
        ("slater", True),
        ("nondegeneracy", False),
        ("tangential_curvature", None),
    ]
    # no boundary point has a tangent space, so no curvature was sampled
    assert records[2]["verdict"] == "empty_region"
    argv = ["diagnose", "--builtin", "degenerate-disk", "--check", "curvature", "--expect", "pass"]
    assert run_cli(argv)[0] == 3


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(
            ["--require-assumptions"],
            "assumption checks failed: slater, nondegeneracy, curvature\n",
            id="require-assumptions",
        ),
        ([], "solve failed: "),
    ],
)
def test_solve_without_an_interior_point_exits_3(run_cli, void_file, flags, message):
    code, stdout, stderr = run_cli(["solve", "--problem", void_file, *flags])
    # with the flag, the Slater search's error is each check's record, as diagnose prints it
    argv = ["diagnose", "--problem", void_file, "--check", "slater,nondegeneracy,curvature"]
    diagnosed = run_cli(argv)
    assert (code, stdout) == (3, diagnosed[1] if flags else "")
    assert diagnosed[0] == 3 and '"error": "no strictly feasible point' in diagnosed[1]
    assert stderr.startswith(f"logbarrier: {message}")


def _passed(rec):
    """Whether a check's record passed under --expect pass: a report with a
    verdict passes where it reads convex_up_to_sampling, the rest where passed."""
    if "verdict" in rec:
        return rec["verdict"] == "convex_up_to_sampling"
    return rec["passed"]


@pytest.mark.parametrize("seed", ["42", "7"])
@pytest.mark.parametrize("name", [*corpus.names(), "void"])
def test_require_assumptions_prints_the_diagnose_records(run_cli, void_file, name, seed):
    # one check runner: solve's gate prints diagnose's slater, nondegeneracy and
    # curvature records, all of its output on failure and the records before the
    # path on success; a curvature above 1e-6 fails it, as --expect pass does
    source = ["--problem", void_file] if name == "void" else ["--builtin", name]
    source += ["--seed", seed]
    code, stdout, stderr = run_cli(["solve", *source, "--require-assumptions"])
    checks = ["--check", "slater,nondegeneracy,curvature", "--expect", "pass"]
    checked, diagnosed, _ = run_cli(["diagnose", *source, *checks])
    lines = stdout.splitlines(keepends=True)
    path = next((k for k, line in enumerate(lines) if '"path_point"' in line), len(lines))
    assert "".join(lines[:path]) == diagnosed
    if checked == 0:
        assert 0 < path < len(lines)
    else:
        names = {kind: name for name, (kind, _, _) in cli.CHECKS.items()}
        failed = [names[r["record"]] for r in _records(diagnosed) if not _passed(r)]
        assert (code, path) == (3, len(lines))
        assert stderr == f"logbarrier: assumption checks failed: {', '.join(failed)}\n"


def test_readme_solve_section_names_every_solve_option():
    # the solve paragraph and the commands' shared introduction above it
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Commands") : readme.index("**`diagnose`**")]
    named = set(re.findall(r"--[a-z][a-z0-9-]*[a-z0-9]", section))
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        opt
        for action in subparsers.choices["solve"]._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    assert options - named == set(), "solve options the README does not name"
    assert named - options == set(), "README flags the solve parser does not accept"


def test_readme_diagnose_section_names_every_check_and_verdict():
    # a new --check row or verdict lands documented
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("**`diagnose`**") : readme.index("**`contour`**")]
    names = [f"`{name}" for name in cli.CHECKS]
    verdicts = [f"`{verdict}`" for verdict in (*cli.EXPECTED.values(), "empty_region")]
    assert [word for word in names + verdicts if word not in section] == []


@pytest.mark.parametrize("check", ["curvature", "levelset:0", "levelset:1.5", "phiconvexity:1"])
@pytest.mark.parametrize("name", corpus.names())
def test_the_verdict_decides_the_exit(run_cli, name, check):
    # --expect pass holds exactly where the printed verdict is convex_up_to_sampling,
    # and --expect nonconvex exactly where it is counterexample
    printed = []
    for expect, verdict in [("pass", "convex_up_to_sampling"), ("nonconvex", "counterexample")]:
        argv = ["diagnose", "--builtin", name, "--check", check, "--expect", expect]
        code, stdout, _ = run_cli(argv)
        (rec,) = _records(stdout)
        assert code == (0 if rec["verdict"] == verdict else 3), (expect, rec["verdict"])
        printed.append(rec)
    assert printed[0] == printed[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--builtin", "nosuch"],
        ["solve", "--problem", "/definitely/missing.json"],
        ["solve", "--builtin", "disk", "--mu0", "1e-9"],
        ["diagnose", "--builtin", "disk", "--check", "nosuchcheck"],
        ["diagnose", "--builtin", "disk", "--check", "phiconvexity:-0.5"],
        ["diagnose", "--builtin", "cassini", "--check", "levelset:abc"],
        ["contour", "--builtin", "cassini", "--res", "1"],
        ["contour", "--builtin", "cassini", "--constraint", "2"],
        ["contour", "--builtin", "cassini", "--levels", ""],
        ["contour", "--builtin", "cassini", "--levels", "a,b"],
        ["oracle", "--builtin", "disk", "--res", "5"],
        ["oracle", "--builtin", "disk", "--res", "11", "--polish", "-5"],
        # --seed only where the command samples
        ["contour", "--builtin", "cassini", "--res", "3", "--seed", "7"],
        ["oracle", "--builtin", "disk", "--res", "11", "--seed", "7"],
        ["diagnose", "--builtin", "disk", "--check", "slater,,curvature"],
        # a grid of 10^15 points per axis, whose axes alone would take PiB
        ["contour", "--builtin", "disk", "--res", "1000000000000000"],
        ["oracle", "--builtin", "disk", "--res", "1000000000000000"],
    ],
)
def test_input_errors_exit_2(run_cli, argv):
    code, _, stderr = run_cli(argv)
    assert code == 2
    assert "error" in stderr


@pytest.mark.parametrize("argv", [["solve"], ["diagnose", "--check", "slater"]])
def test_a_grid_over_the_point_budget_is_refused_at_once(run_cli, tmp_path, argv):
    # without interior_point both commands scan 101^6 points for one, hours of work
    path = tmp_path / "ball6.json"
    path.write_text(
        json.dumps(
            {
                "name": "ball6",
                "nvars": 6,
                "objective": "x1",
                "constraints": [" - ".join(["1"] + [f"x{i}^2" for i in range(1, 7)])],
                "box": [[-1.5, 1.5]] * 6,
            }
        )
    )
    start = time.perf_counter()
    code, stdout, stderr = run_cli([argv[0], "--problem", path, *argv[1:]])
    assert time.perf_counter() - start < 1.0
    assert (code, stdout) == (2, "")
    assert stderr.startswith("logbarrier: input error:")
    assert f"101^6 = {101**6} points" in stderr


@pytest.mark.parametrize("command", ["contour", "oracle"])
def test_a_resolution_above_the_bound_is_refused_before_any_axis(
    monkeypatch, run_cli, tmp_path, command
):
    def no_axis(*args, **kwargs):
        raise AssertionError("a grid axis was allocated")

    monkeypatch.setattr(np, "linspace", no_axis)
    out = tmp_path / "grid.out"
    res = problem.MAX_RESOLUTION + 1
    code, stdout, stderr = run_cli([command, "--builtin", "disk", "--res", res, "--out", out])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("logbarrier: input error:")
    assert not out.exists()


def test_contour_rejects_non_planar(run_cli, ball3_file):
    code, _, stderr = run_cli(["contour", "--problem", ball3_file])
    assert code == 2
    assert "two" in stderr or "2" in stderr


def test_diagnose_multiple_checks(run_cli, tmp_path):
    out = tmp_path / "diag.jsonl"
    code, _, _ = run_cli(
        ["diagnose", "--builtin", "disk", "--check", "slater,nondegeneracy,curvature", "--out", out]
    )
    assert code == 0
    records = _records(out.read_text())
    assert [r["record"] for r in records] == ["slater", "nondegeneracy", "tangential_curvature"]
    assert records[0]["passed"] is True
    assert records[1]["passed"] is True


@pytest.mark.parametrize("name", ["cassini", "hyperbola", "epsbox", "disk", "degenerate-disk"])
def test_diagnose_prints_the_slater_report(run_cli, name):
    code, stdout, stderr = run_cli(["diagnose", "--builtin", name, "--check", "slater"])
    assert (code, stderr) == (0, "")
    report = diagnostics.slater_find(corpus.builtin(name).problem)
    assert stdout == json.dumps(cli.record("slater", report)) + "\n"


@pytest.mark.parametrize(
    "argv, want",
    [
        (["diagnose", "--builtin", "epsbox", "--check", "phiconvexity:1", "--expect", "nonconvex"], 0),
        (["diagnose", "--builtin", "disk", "--check", "phiconvexity:1", "--expect", "nonconvex"], 3),
        (["diagnose", "--builtin", "cassini", "--check", "levelset:1.5", "--expect", "nonconvex"], 0),
        (["diagnose", "--builtin", "cassini", "--check", "levelset:1.5", "--expect", "pass"], 3),
        (["diagnose", "--builtin", "cassini", "--check", "levelset:0", "--expect", "pass"], 0),
        (["diagnose", "--builtin", "degenerate-disk", "--check", "nondegeneracy"], 3),
        (["diagnose", "--builtin", "disk", "--check", "phiconvexity:1", "--expect", "pass"], 0),
        (["diagnose", "--builtin", "epsbox", "--check", "phiconvexity:1", "--expect", "pass"], 3),
        (["diagnose", "--builtin", "disk", "--check", "curvature", "--expect", "pass"], 0),
        # nonconvex is the complement of pass on every convexity check
        (["diagnose", "--builtin", "disk", "--check", "curvature", "--expect", "nonconvex"], 3),
        (["diagnose", "--builtin", "disk", "--check", "levelset:0", "--expect", "nonconvex"], 3),
        (["diagnose", "--builtin", "cassini", "--check", "levelset:1.5", "--expect", "nonconvex"], 0),
        # an expectation no check in the list can test is a usage error
        (["diagnose", "--builtin", "disk", "--check", "slater", "--expect", "nonconvex"], 2),
        # the strip's barrier is convex, and its least sampled eigenvalue rounds to -2.9e-11
        (["diagnose", "--problem", "strip", "--check", "phiconvexity:1", "--expect", "pass"], 0),
        (["diagnose", "--problem", "strip", "--check", "phiconvexity:1", "--expect", "nonconvex"], 3),
        # one spelling per expectation: indefinite is no choice
        (["diagnose", "--builtin", "epsbox", "--check", "phiconvexity:1", "--expect", "indefinite"], 2),
    ],
)
def test_diagnose_expectations(run_cli, tmp_path, argv, want):
    if "strip" in argv:
        path = tmp_path / "strip.json"
        path.write_text(json.dumps(STRIP))
        argv = [str(path) if a == "strip" else a for a in argv]
    code, _, _ = run_cli(argv)
    assert code == want


def test_curvature_expectation_fails_where_the_boundary_bends_outward(run_cli, tmp_path):
    # the annulus's inner circle, g2 = x1^2 + x2^2 - 1, curves away from the set
    path = tmp_path / "annulus.json"
    path.write_text(
        json.dumps(
            {
                "name": "annulus",
                "nvars": 2,
                "objective": "x1",
                "constraints": ["4 - x1^2 - x2^2", "x1^2 + x2^2 - 1"],
                "box": [[-2.5, 2.5], [-2.5, 2.5]],
                "interior_point": [1.5, 0],
            }
        )
    )
    argv = ["diagnose", "--problem", path, "--check", "curvature", "--expect", "pass"]
    code, stdout, _ = run_cli(argv)
    (report,) = _records(stdout)
    assert [e["max_tangential_curvature"] > 0 for e in report["constraints"]] == [False, True]
    assert code == 3
    # solve's gate runs the same check with the same expectation
    code, stdout, stderr = run_cli(["solve", "--problem", path, "--require-assumptions"])
    assert (code, stderr) == (3, "logbarrier: assumption checks failed: curvature\n")
    assert _records(stdout)[-1] == report


def test_curvature_expectation_holds_where_the_set_is_nonconvex(run_cli, tmp_path):
    # the box [-1, 1]^2 outside a disk of radius 1/2: g1 bends away from the set
    path = tmp_path / "outside-disk.json"
    path.write_text(
        json.dumps(
            {
                "name": "outside-disk",
                "nvars": 2,
                "objective": "x1",
                "constraints": ["x1^2 + x2^2 - 0.25", "x1 + 1", "1 - x1", "x2 + 1", "1 - x2"],
                "box": [[-1, 1], [-1, 1]],
                "interior_point": [0.75, 0.75],
            }
        )
    )
    argv = ["diagnose", "--problem", path, "--check", "curvature", "--expect", "nonconvex"]
    code, stdout, _ = run_cli(argv)
    (report,) = _records(stdout)
    assert report["constraints"][0]["max_tangential_curvature"] == pytest.approx(2.0)
    assert code == 0


def test_diagnose_probe_failure_record(run_cli, void_file, tmp_path):
    out = tmp_path / "diag.jsonl"
    code, _, _ = run_cli(["diagnose", "--problem", void_file, "--check", "slater", "--out", out])
    assert code == 3
    (record,) = _records(out.read_text())
    assert record["record"] == "slater"
    assert record["passed"] is False
    assert "error" in record


def test_a_failing_probe_writes_the_record_kind_of_its_report(run_cli, void_file):
    # on the void problem slater, curvature and phiconvexity fail; each error
    # record must carry the kind the same check prints when it runs
    checks = "slater,curvature,levelset:0,phiconvexity:1"
    code, stdout, _ = run_cli(["diagnose", "--problem", void_file, "--check", checks])
    assert code == 3
    failing = _records(stdout)
    assert [r["passed"] for r in failing if "error" in r] == [False, False, False]
    code, stdout, _ = run_cli(["diagnose", "--builtin", "disk", "--check", checks])
    assert code == 0
    passing = [r["record"] for r in _records(stdout)]
    assert [r["record"] for r in failing] == passing
    assert passing == [cli.CHECKS[c.partition(":")[0]][0] for c in checks.split(",")]


def test_contour_grid(run_cli, tmp_path):
    out = tmp_path / "contour.csv"
    code, _, _ = run_cli(
        ["contour", "--builtin", "cassini", "--res", "50", "--levels", "2.95,1.5,0", "--out", out]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# levels: 2.95,1.5,0.0"
    assert lines[1] == "x1,x2,g"
    assert len(lines) == 2 + 50 * 50
    assert lines[2] == "-2.0,-2.0,-61.0"  # corner of the sampling box
    for line in lines[2:]:
        x1, x2, g = (float(tok) for tok in line.split(","))
        assert -2.0 <= x1 <= 2.0 and -2.0 <= x2 <= 2.0
        assert np.isfinite(g)


def test_oracle_command(run_cli, tmp_path):
    out = tmp_path / "oracle.jsonl"
    code, _, _ = run_cli(["oracle", "--builtin", "disk", "--res", "101", "--out", out])
    assert code == 0
    (record,) = _records(out.read_text())
    assert record["record"] == "oracle"
    assert record["grid_resolution"] == 101
    assert record["polished"] is True
    assert abs(record["f_best"] - 0.1715728752538097) <= 1e-6


def test_oracle_default_resolution_fits_the_grid_budget(run_cli, monkeypatch, ball3_file):
    # a 3-D file needs no --res: the default is the finest grid within the
    # budget, here 30 points per axis in a budget of 30^3
    monkeypatch.setattr(problem, "MAX_GRID_POINTS", 30**3)
    code, stdout, stderr = run_cli(["oracle", "--problem", ball3_file, "--polish", "0"])
    assert (code, stderr) == (0, "")
    (record,) = _records(stdout)
    assert record["grid_resolution"] == 30
    assert record["f_best"] < 0.0


def test_oracle_no_feasible_point(run_cli, tmp_path):
    path = tmp_path / "thin.json"
    path.write_text(
        json.dumps(
            {
                "name": "thin",
                "nvars": 1,
                "objective": "x1",
                "constraints": ["0.0000001 - (x1 - 0.33337)^2"],
                "box": [[0, 1]],
                "interior_point": [0.33337],
            }
        )
    )
    code, _, stderr = run_cli(["oracle", "--problem", path, "--res", "11"])
    assert code == 3
    assert "no feasible grid point" in stderr


def test_list_command(run_cli):
    code, stdout, _ = run_cli(["list"])
    assert code == 0
    records = _records(stdout)
    assert [r["name"] for r in records] == ["cassini", "hyperbola", "epsbox", "disk", "degenerate-disk"]
    for r in records:
        assert r["record"] == "problem"
        assert r["nvars"] == 2
        assert r["provenance"]
    by_name = {r["name"]: r for r in records}
    assert by_name["hyperbola"]["known_optimum"]["f"] == 2.0
    assert by_name["cassini"]["known_optimum"] is None
    for name, r in by_name.items():
        known = corpus.builtin(name).known_optimum
        if known is not None:
            assert list(r["known_optimum"]) == ["x", "f", "provenance"]
            assert r["known_optimum"]["x"] == list(known.x)
            assert r["known_optimum"]["f"] == known.f
            assert r["known_optimum"]["provenance"] == known.provenance


def test_module_entry_point(run_cli):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "logbarrier.cli", "list"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(["list"])[1]
    assert len(_records(proc.stdout)) == 5


NESTED_COMMANDS = [["solve"], ["diagnose", "--check", "slater"]]


def _nested_file(tmp_path, objective: str, terms: int):
    # a sum of `terms` terms is a tree that deep: the parser loops over a
    # sum, but the evaluator recurses into it
    zero = f" + 0*({' + '.join(['x2'] * terms)})" if terms else ""
    path = tmp_path / "nested.json"
    path.write_text(
        json.dumps(
            {
                "name": "nested",
                "nvars": 2,
                "objective": objective,
                "constraints": ["1 - x1^2 - x2^2" + zero],
                "box": [[-1.5, 1.5], [-1.5, 1.5]],
            }
        )
    )
    return path


@pytest.mark.parametrize(
    "objective, terms, message",
    [
        ("(" * 200 + "x1" + ")" * 200, 0, "cannot parse objective: expression nested too deeply"),
        ("x1", 1000, "expression nested too deeply to evaluate"),
    ],
    ids=["200-parentheses", "1000-terms"],
)
@pytest.mark.parametrize("argv", NESTED_COMMANDS, ids=["solve", "slater"])
def test_a_deeply_nested_expression_is_an_input_error(
    run_cli, tmp_path, objective, terms, message, argv
):
    code, stdout, stderr = run_cli([*argv, "--problem", _nested_file(tmp_path, objective, terms)])
    assert (code, stdout) == (2, "")
    assert stderr.startswith(f"logbarrier: input error: {message}")


@pytest.mark.parametrize("argv", NESTED_COMMANDS, ids=["solve", "slater"])
def test_a_sum_of_900_terms_still_runs(tmp_path, argv):
    # in a process of its own: the test runner's frames would count
    # against the recursion limit the command line runs under
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    nested = _nested_file(tmp_path, "x1", 900)
    proc = subprocess.run(
        [sys.executable, "-m", "logbarrier.cli", *argv, "--problem", nested],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.fixture()
def ln_box_file(tmp_path):
    # no interior point, and ln(x1) is undefined on half of the box
    path = tmp_path / "ln-box.json"
    path.write_text(
        json.dumps(
            {
                "name": "ln-box",
                "nvars": 2,
                "objective": "x1 + x2",
                "constraints": ["ln(x1)"],
                "box": [[-2, 2], [-2, 2]],
            }
        )
    )
    return path


@pytest.mark.parametrize(
    "argv",
    [["diagnose", "--check", "slater,nondegeneracy"], ["oracle", "--res", "11"], ["contour"]],
)
def test_undefined_expression_is_an_input_error(run_cli, ln_box_file, argv):
    code, stdout, stderr = run_cli([argv[0], "--problem", ln_box_file, *argv[1:]])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("logbarrier: input error:")
    assert "Traceback" not in stderr


# (key, JSON text that replaces the key's value in the problem file, message)
BAD_NUMBERS = [
    ("box", '[["a", 1], [-2, 2]]', "box entry 1 lo must be a number, got 'a'"),
    ("box", "[[-2, 1e400], [-2, 2]]", "box entry 1 hi must be finite as a float, got inf"),
    ("box", "[[-2, 2], [-2, true]]", "box entry 2 hi must be a number, got True"),
    ("interior_point", '["a", 0]', "interior_point coordinate 1 must be a number, got 'a'"),
    (
        "interior_point",
        "[0, NaN]",
        "interior_point coordinate 2 must be finite as a float, got nan",
    ),
    ("interior_point", "[true, 0]", "interior_point coordinate 1 must be a number, got True"),
    (
        "objective",
        '"x1 + 1e400"',
        "cannot parse objective: number '1e400' is not finite as a float (at position 5)",
    ),
    # hi - lo overflows, so every grid axis and sampler would read nan or inf
    ("box", "[[-1e308, 1.7e308], [-1e308, 1e308]]", "box entry 1 must have a finite width hi - lo"),
]


@pytest.mark.parametrize(
    "key, text, message",
    BAD_NUMBERS,
    ids=[
        "box-string",
        "box-1e400",
        "box-true",
        "point-string",
        "point-nan",
        "point-true",
        "objective-1e400",
        "box-width",
    ],
)
@pytest.mark.parametrize(
    "argv",
    [["solve"], ["diagnose", "--check", "slater"], ["oracle", "--res", "11"], ["contour"]],
    ids=lambda argv: argv[0],
)
def test_a_bad_number_in_a_problem_file_is_an_input_error(
    run_cli, tmp_path, argv, key, text, message
):
    data = {
        "name": "unit",
        "nvars": 2,
        "objective": "x1 + x2",
        "constraints": ["1 - x1^2 - x2^2"],
        "box": [[-2, 2], [-2, 2]],
        "interior_point": [0, 0],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**data, key: "HOLE"}).replace('"HOLE"', text))
    code, stdout, stderr = run_cli([argv[0], "--problem", path, *argv[1:]])
    assert (code, stdout) == (2, "")
    assert stderr == f"logbarrier: input error: {message}\n"


@pytest.mark.parametrize("to_file", [False, True])
def test_contour_domain_error_in_a_later_block_leaves_no_output(run_cli, tmp_path, to_file):
    # ln(1.99 - x1) is undefined only on the last grid row, x1 = 2, which
    # lies in the third block of 16384 points
    path = tmp_path / "ln-edge.json"
    path.write_text(
        json.dumps(
            {
                "name": "ln-edge",
                "nvars": 2,
                "objective": "x1",
                "constraints": ["ln(1.99 - x1)"],
                "box": [[-2, 2], [-2, 2]],
            }
        )
    )
    assert 201 * 200 >= 2 * problem.GRID_BLOCK_POINTS
    out = tmp_path / "contour.csv"
    argv = ["contour", "--problem", path] + (["--out", out] if to_file else [])
    code, stdout, stderr = run_cli(argv)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("logbarrier: input error:")
    assert not out.exists()


def test_contour_csv_streams_in_bounded_memory(run_cli, tmp_path):
    # the whole CSV of 1002003 rows takes about 33 MiB as text, and the
    # list of its lines 208 MiB traced; block by block it is 5.4 MiB
    out = tmp_path / "contour.csv"
    tracemalloc.start()
    try:
        code, _, stderr = run_cli(["contour", "--builtin", "epsbox", "--res", "1001", "--out", out])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, stderr) == (0, "")
    with out.open() as fh:
        assert sum(1 for _ in fh) == 2 + 1001 * 1001
    assert peak < 16 * 2**20


UNWRITABLE_OUT_WORK = {
    "solve": "solve",
    "diagnose": "slater_find",
    "oracle": "grid_minimize",
    "contour": "scan_values",
}


@pytest.mark.parametrize("target", ["dir", "missing-parent"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--builtin", "disk"],
        ["diagnose", "--builtin", "disk", "--check", "slater"],
        ["oracle", "--builtin", "disk", "--res", "11"],
        ["contour", "--builtin", "disk", "--res", "3"],
    ],
)
def test_unwritable_out_is_an_input_error(monkeypatch, run_cli, tmp_path, argv, target):
    def work(*args, **kwargs):
        raise AssertionError("the command ran before checking --out")

    # the first function each command does its work through
    monkeypatch.setattr(cli, UNWRITABLE_OUT_WORK[argv[0]], work)
    out = tmp_path if target == "dir" else tmp_path / "missing" / "out.jsonl"
    code, stdout, stderr = run_cli([*argv, "--out", out])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith(f"logbarrier: input error: cannot write {out}: ")
    assert "Traceback" not in stderr
    assert not (tmp_path / "missing").exists()


def test_solve_steps_back_from_an_undefined_objective(run_cli, tmp_path):
    # started from 4, a Newton line search at mu = 1 tries x1 = -0.652,
    # where the constraints hold but ln(x1) is undefined
    path = tmp_path / "ln-objective.json"
    path.write_text(
        json.dumps(
            {
                "name": "ln-objective",
                "nvars": 1,
                "objective": "ln(x1)^2",
                "constraints": ["x1 + 1", "5 - x1"],
                "box": [[-1, 6]],
                "interior_point": [4],
            }
        )
    )
    code, stdout, _ = run_cli(["solve", "--problem", path])
    assert code == 0
    cert = _records(stdout)[-1]
    assert abs(cert["x"][0] - 1.0) < 1e-6


@pytest.mark.parametrize("argv", [["diagnose", "--check", "nondegeneracy"]])
def test_nondegeneracy_check_needs_gradients_only(run_cli, tmp_path, argv):
    # near x1 = 1 the zero term's Hessian overflows while its value and
    # gradient stay finite; only the curvature probe needs that Hessian, and
    # it skips and counts the one boundary point where it cannot be taken,
    # so solve's gate passes
    path = tmp_path / "hessian-overflow.json"
    path.write_text(
        json.dumps(
            {
                "name": "hessian-overflow",
                "nvars": 2,
                "objective": "x1 + x2",
                "constraints": ["1 - x1^2 - x2^2 + 0*exp(exp(10*(x1 - 1) + 6.551))"],
                "box": [[-1, 1], [-1, 1]],
            }
        )
    )
    code, stdout, stderr = run_cli([*argv, "--problem", path])
    assert (code, stderr) == (0, "")
    (ndg,) = [r for r in _records(stdout) if r["record"] == "nondegeneracy"]
    assert ndg["passed"] is True
    assert ndg["boundary_points"] == 256
    code, stdout, stderr = run_cli(["diagnose", "--check", "curvature", "--problem", path])
    assert (code, stderr) == (0, "")
    (cur,) = _records(stdout)
    (entry,) = cur["constraints"]
    assert (entry["samples"], entry["unmeasured"]) == (255, 1)
    assert cur["verdict"] == "convex_up_to_sampling"
    code, stdout, stderr = run_cli(["solve", "--require-assumptions", "--problem", path])
    assert (code, stderr) == (0, "")
    records = _records(stdout)
    assert records[2] == cur
    assert records[-1]["verdict"] == "kkt_point"
    assert records[-1]["x"] == pytest.approx([-0.5**0.5] * 2, abs=1e-6)


@pytest.mark.filterwarnings("error")  # no RuntimeWarning may escape
def test_overflow_in_a_scan_is_an_infeasible_point(run_cli, tmp_path):
    # 1 - exp(x1) overflows to -inf for x1 > 709.78, inside the box
    path = tmp_path / "exp-box.json"
    path.write_text(
        json.dumps(
            {
                "name": "exp-box",
                "nvars": 2,
                "objective": "(x1 + 1)^2 + x2^2",
                "constraints": ["1 - exp(x1)", "4 - x2^2"],
                "box": [[-5, 800], [-3, 3]],
            }
        )
    )
    checks = "slater,nondegeneracy,curvature,levelset:0,phiconvexity:1"
    code, stdout, stderr = run_cli(["diagnose", "--problem", path, "--check", checks])
    assert (code, stderr) == (0, "")
    slater, nondegeneracy = _records(stdout)[:2]
    assert slater["passed"] and slater["point"][0] < 0.0
    assert nondegeneracy["passed"]
    code, stdout, stderr = run_cli(["oracle", "--problem", path, "--res", "101"])
    assert (code, stderr) == (0, "")
    assert np.allclose(_records(stdout)[0]["x_best"], [-1.0, 0.0], atol=1e-6)
    code, stdout, stderr = run_cli(["contour", "--problem", path, "--res", "3"])
    assert (code, stderr) == (0, "")
    assert stdout.splitlines()[-1] == "800.0,3.0,-inf"


def test_oracle_polish_counts_an_overflow_as_infeasible(run_cli, tmp_path):
    # the polish's rays start at (-5, 0) and leave the box at x1 = 800, where
    # 1 - exp(x1) overflows; the grid scan's rule makes such a point
    # infeasible, so bisection finds the boundary x1 = 0
    path = tmp_path / "ovf.json"
    path.write_text(
        json.dumps(
            {
                "name": "ovf",
                "nvars": 2,
                "objective": "-1000*x1 + x2^2",
                "constraints": ["1 - exp(x1)", "0.25 - x2^2"],
                "box": [[-5, 800], [-3, 3]],
            }
        )
    )
    code, stdout, stderr = run_cli(["oracle", "--problem", path, "--res", "201", "--polish", "0"])
    assert (code, stderr) == (0, "")
    scan = _records(stdout)[0]
    assert np.allclose(scan["x_best"], [-0.975, 0.0])
    code, stdout, stderr = run_cli(["oracle", "--problem", path, "--res", "201"])
    assert (code, stderr) == (0, "")
    polished = _records(stdout)[0]
    x1, x2 = polished["x_best"]
    assert 1.0 - np.exp(x1) >= 0.0 and 0.25 - x2**2 >= 0.0
    assert polished["f_best"] <= scan["f_best"]
    assert abs(polished["f_best"]) <= 1e-9


def test_out_check_creates_and_truncates_nothing(run_cli, tmp_path):
    out = tmp_path / "out.jsonl"
    assert run_cli(["list", "--out", out])[0] == 0
    text = out.read_text()
    assert run_cli(["solve", "--builtin", "no-such-problem", "--out", out])[0] == 2
    assert out.read_text() == text
    fresh = tmp_path / "fresh.jsonl"
    assert run_cli(["solve", "--builtin", "no-such-problem", "--out", fresh])[0] == 2
    assert not fresh.exists()


def _key_tree(rec):
    # the keys in order; a dict value, or a list of dicts, adds its own keys
    tree = []
    for key, value in rec.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = value[0]
        tree.append((key, _key_tree(value)) if isinstance(value, dict) else key)
    return tree


@pytest.fixture(scope="module")
def emitted(run_cli):
    # every record printed, by kind; the level-set probe finds a counterexample
    # at 1.5 and none at 0, where its witness is null, and list prints null
    # for cassini's known_optimum
    argvs = [
        ["solve", "--builtin", "disk"],
        ["oracle", "--builtin", "disk", "--res", "11"],
        ["diagnose", "--builtin", "cassini", "--check", "slater,nondegeneracy,curvature"],
        ["diagnose", "--builtin", "cassini", "--check", "levelset:0,levelset:1.5,phiconvexity:1"],
        ["list"],
    ]
    out = {}
    for argv in argvs:
        code, stdout, _ = run_cli(argv)
        assert code == 0
        for rec in _records(stdout):
            out.setdefault(rec["record"], []).append(rec)
    return out


RECORD_KEYS = {
    "slater": ["record", "point", "margin", "grid_resolution", "passed"],
    "nondegeneracy": [
        "record",
        "delta",
        "rays",
        "boundary_points",
        "max_boundary_residual",
        ("constraints", ["constraint", "samples", "min_gradient_norm", "passed"]),
        "passed",
    ],
    "tangential_curvature": [
        "record",
        "boundary_points",
        "vacuous",
        ("constraints", ["constraint", "samples", "unmeasured", "max_tangential_curvature"]),
        "verdict",
    ],
    "levelset_convexity": [
        "record",
        "level",
        "verdict",
        "pairs_checked",
        "method",
        ("witness", ["x", "y", "midpoint", "g_x", "g_y", "g_mid", "violated"]),
    ],
    "phi_convexity": ["record", "mu", "samples", "min_eigenvalue", "witness", "verdict"],
    "path_point": [
        "record",
        "mu",
        "x",
        "multipliers",
        "objective",
        "grad_norm",
        "status",
        "iterations",
        "trials",
    ],
    "certificate": [
        "record",
        "x",
        "multipliers",
        "objective",
        "stationarity_residual",
        "complementarity_residual",
        "dual_feasibility_violation",
        "primal_feasibility_violation",
        "active_set",
        "activation_tolerance",
        "least_active_singular_value",
        "verdict",
        "statement",
    ],
    "oracle": ["record", "x_best", "f_best", "grid_resolution", "polished"],
    "problem": [
        "record",
        "name",
        "nvars",
        "constraints",
        "provenance",
        ("known_optimum", ["x", "f", "provenance"]),
    ],
}


@pytest.mark.parametrize("kind", sorted(RECORD_KEYS))
def test_record_schema(emitted, kind):
    # every record of a kind prints the same keys, a null value with none
    # below it, and some record has a value under each nested key
    keys = [item[0] if isinstance(item, tuple) else item for item in RECORD_KEYS[kind]]
    assert [list(rec) for rec in emitted[kind]] == [keys] * len(emitted[kind])
    assert RECORD_KEYS[kind] in [_key_tree(rec) for rec in emitted[kind]]


def _flat_keys(tree):
    for item in tree:
        if isinstance(item, tuple):
            yield item[0]
            yield from _flat_keys(item[1])
        else:
            yield item


def _readme_record_examples():
    """(kind, text) of each {"record": ...} example in README's code blocks;
    an example runs on to the next one or to the end of its block."""
    text = (SRC.parent / "README.md").read_text()
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.M | re.S):
        for example in re.split(r'^(?=\{"record")', block, flags=re.M)[1:]:
            yield re.match(r'\{"record": "(\w+)"', example)[1], example


def test_readme_record_examples_quote_printed_keys():
    # every key a README example quotes, at any depth, is one the CLI prints for its kind
    kinds = set()
    for kind, example in _readme_record_examples():
        kinds.add(kind)
        printed = set(_flat_keys(RECORD_KEYS[kind]))
        quoted = set(re.findall(r'"(\w+)":', example))
        assert quoted <= printed, (kind, sorted(quoted - printed))
    assert kinds == {"slater", "nondegeneracy", "path_point", "certificate", "levelset_convexity"}


@pytest.mark.parametrize(
    "checks",
    [
        "phiconvexity:nan",
        "phiconvexity:inf",
        "levelset:nan",
        "levelset:1e400",
        "slater,levelset:0,phiconvexity:0",
    ],
)
def test_check_values_are_refused_before_any_probe_runs(monkeypatch, run_cli, checks):
    called = []
    for name in ("slater_find", "levelset_convexity_probe", "phi_convexity_probe"):
        monkeypatch.setattr(cli, name, lambda *args, _name=name, **kwargs: called.append(_name))
    code, stdout, stderr = run_cli(["diagnose", "--builtin", "cassini", "--check", checks])
    assert (code, stdout, called) == (2, "", [])
    assert "input error" in stderr


@pytest.mark.parametrize("name", ["cassini", "hyperbola", "epsbox", "disk", "degenerate-disk"])
def test_a_phi_probe_whose_hessians_overflow_writes_an_error_record(run_cli, name):
    # at mu = 1e308 the term mu w w^T overflows, and inf - inf leaves NaN
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["diagnose", "--builtin", name, "--check", "phiconvexity:1e308"]
        code, stdout, _ = run_cli(argv)
    (rec,) = [json.loads(line, parse_constant=refuse) for line in stdout.splitlines()]
    assert code == 3
    assert (rec["record"], rec["passed"]) == ("phi_convexity", False)
    assert "sampled barrier Hessians are not finite at mu = 1e+308" in rec["error"]


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def _steep_disk(tmp_path, objective, constraint="1 - x1^2 - x2^2"):
    path = tmp_path / "steep.json"
    data = {
        "name": "steep",
        "nvars": 2,
        "objective": objective,
        "constraints": [constraint],
        "box": [[-2, 2], [-2, 2]],
        "interior_point": [0, 0],
    }
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("objective", ["1e160*x1", "1e300*x1", "1e154*x1"])
def test_a_steep_objective_prints_no_infinity_and_no_warning(run_cli, tmp_path, objective):
    # past about 1.3e154 the norm of the barrier gradient overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(["solve", "--problem", _steep_disk(tmp_path, objective)])
    records = [json.loads(line, parse_constant=_refuse_constant) for line in stdout.splitlines()]
    if objective == "1e154*x1":
        assert code == 3
        assert records[-1]["stationarity_residual"] == 1e154
    else:
        assert (code, records) == (2, [])
        assert stderr == (
            "logbarrier: input error: the barrier gradient's norm overflows at mu = 1.0\n"
        )


def test_boundary_probes_of_a_steep_constraint_print_finite_norms(run_cli, tmp_path):
    path = _steep_disk(tmp_path, "x1", "1e160*(1 - x1^2 - x2^2)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["diagnose", "--problem", path, "--check", "nondegeneracy,curvature"]
        code, stdout, _ = run_cli(argv)
    ndg, cur = [json.loads(line, parse_constant=_refuse_constant) for line in stdout.splitlines()]
    assert code == 0
    # on the unit circle |grad g| = 2e160 and the tangential curvature is -2e160
    (entry,) = ndg["constraints"]
    assert entry["passed"] is True
    assert entry["min_gradient_norm"] == pytest.approx(2e160, rel=1e-12)
    assert cur["constraints"][0]["max_tangential_curvature"] == pytest.approx(-2e160, rel=1e-12)


@pytest.mark.parametrize("check", ["nondegeneracy", "curvature"])
def test_boundary_probes_refuse_a_gradient_that_overflows(run_cli, tmp_path, check):
    # on the unit circle grad g = -2e308 * x has entries of +-inf: no norm or
    # tangent space can be measured there
    path = _steep_disk(tmp_path, "x1", "1e308*(1 - x1^2 - x2^2)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run_cli(["diagnose", "--problem", path, "--check", check])
    assert (code, stdout) == (2, "")
    assert stderr == (
        "logbarrier: input error: the gradient of constraint 1 overflows on the boundary\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["diagnose", "--builtin", "disk", "--check", "nondegeneracy", "--seed", "-1"],
        ["solve", "--builtin", "disk", "--require-assumptions", "--seed", "-1"],
        ["diagnose", "--builtin", "disk", "--check", "slater", "--seed", "1.5"],
    ],
)
def test_seed_must_be_a_non_negative_integer(run_cli, argv):
    code, stdout, stderr = run_cli(argv)
    assert (code, stdout) == (2, "")
    assert "--seed: expected a non-negative integer" in stderr


@pytest.mark.parametrize(
    "levels, bad",
    [("nan", "nan"), ("0,inf", "inf"), ("1, -1e400", "-1e400")],
    ids=["nan", "inf", "-1e400"],
)
def test_contour_refuses_a_level_that_is_not_finite(run_cli, levels, bad):
    argv = ["contour", "--builtin", "cassini", "--res", "3", "--levels", levels]
    code, stdout, stderr = run_cli(argv)
    assert (code, stdout) == (2, "")
    assert stderr == f"logbarrier: input error: level {bad!r} needs a finite value\n"


def test_handlers_raise_and_only_main_maps_exit_codes():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    handlers = [f for f in functions if f.name.startswith("_run_")]
    assert sorted(f.name for f in handlers) == sorted(h.__name__ for h in cli._HANDLERS.values())
    for handler in handlers:
        returned = [n for n in ast.walk(handler) if isinstance(n, ast.Return) and n.value]
        assert returned == [], f"{handler.name} returns a value"
    callers = {
        f.name
        for f in functions
        for n in ast.walk(f)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "_fail"
    }
    assert callers == {"main"}


def test_an_active_constraint_no_boundary_point_reached_is_judged_at_x(run_cli, tmp_path):
    # the disk of radius sqrt(10) holds the whole box, so no ray reaches its
    # boundary, yet the minimizer (-sqrt(10), 0) lies on it; the claim rests
    # on grad g1 = (2 sqrt(10), 0) there, not on a sampled boundary point
    path = tmp_path / "wide.json"
    path.write_text(
        json.dumps(
            {
                "name": "wide",
                "nvars": 2,
                "objective": "x1",
                "constraints": ["10 - x1^2 - x2^2"],
                "box": [[-1, 1], [-1, 1]],
            }
        )
    )
    code, stdout, _ = run_cli(["solve", "--problem", path])
    assert code == 0
    cert = _records(stdout)[-1]
    assert (cert["verdict"], cert["active_set"]) == ("kkt_point", [1])
    assert abs(cert["x"][0] + np.sqrt(10.0)) <= 1e-6
    assert abs(cert["least_active_singular_value"] - 2.0 * np.sqrt(10.0)) <= 1e-6
    assert "global minimizer" in cert["statement"]
    # the gate's boundary checks sampled no boundary point, so both fail
    # rather than passing on no evidence
    code, stdout, stderr = run_cli(["solve", "--problem", path, "--require-assumptions"])
    assert code == 3
    assert stderr == "logbarrier: assumption checks failed: nondegeneracy, curvature\n"
    _, nondegeneracy, curvature = _records(stdout)
    assert (nondegeneracy["boundary_points"], nondegeneracy["passed"]) == (0, False)
    assert (curvature["boundary_points"], curvature["verdict"]) == (0, "empty_region")
    code, stdout, _ = run_cli(["diagnose", "--problem", path, "--check", "nondegeneracy"])
    assert (code, _records(stdout)) == (3, [nondegeneracy])


def test_diagnose_walks_the_boundary_rays_once(monkeypatch, run_cli):
    calls = []
    walk_rays = diagnostics.walk_rays

    def counting(*args):
        calls.append(args)
        return walk_rays(*args)

    monkeypatch.setattr(diagnostics, "walk_rays", counting)
    checks = "nondegeneracy,curvature"
    code, stdout, _ = run_cli(["diagnose", "--builtin", "disk", "--check", checks])
    assert code == 0
    assert [r["record"] for r in _records(stdout)] == ["nondegeneracy", "tangential_curvature"]
    assert len(calls) == 1
