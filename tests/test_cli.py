"""Command-line surface: exit codes, records on stdout or --out, failure paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from logbarrier import cli

DATA = Path(__file__).resolve().parents[1] / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


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
    assert cert["assumptions_verified"] is False
    assert "no global-optimality claim" in cert["statement"]
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


def test_solve_verified_assumptions(run_cli, tmp_path):
    out = tmp_path / "trace.jsonl"
    code, _, _ = run_cli(["solve", "--builtin", "disk", "--require-assumptions", "--out", out])
    assert code == 0
    records = _records(out.read_text())
    assert records[0]["record"] == "slater"
    assert records[1]["record"] == "nondegeneracy"
    cert = records[-1]
    assert cert["assumptions_verified"] is True
    assert "global minimizer" in cert["statement"]


def test_solve_assumption_check_fails(run_cli, tmp_path):
    out = tmp_path / "trace.jsonl"
    code, _, stderr = run_cli(
        ["solve", "--builtin", "degenerate-disk", "--require-assumptions", "--out", out]
    )
    assert code == 3
    assert "nondegeneracy" in stderr
    records = _records(out.read_text())
    assert records[-1]["record"] == "nondegeneracy"
    assert records[-1]["passed"] is False


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
    ],
)
def test_input_errors_exit_2(run_cli, argv):
    code, _, stderr = run_cli(argv)
    assert code == 2
    assert "error" in stderr


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


@pytest.mark.parametrize(
    "argv, want",
    [
        (["diagnose", "--builtin", "epsbox", "--check", "phiconvexity:1", "--expect", "indefinite"], 0),
        (["diagnose", "--builtin", "disk", "--check", "phiconvexity:1", "--expect", "indefinite"], 3),
        (["diagnose", "--builtin", "cassini", "--check", "levelset:1.5", "--expect", "nonconvex"], 0),
        (["diagnose", "--builtin", "cassini", "--check", "levelset:1.5", "--expect", "pass"], 3),
        (["diagnose", "--builtin", "cassini", "--check", "levelset:0", "--expect", "pass"], 0),
        (["diagnose", "--builtin", "degenerate-disk", "--check", "nondegeneracy"], 3),
    ],
)
def test_diagnose_expectations(run_cli, argv, want):
    code, _, _ = run_cli(argv)
    assert code == want


def test_diagnose_probe_failure_record(run_cli, void_file, tmp_path):
    out = tmp_path / "diag.jsonl"
    code, _, _ = run_cli(["diagnose", "--problem", void_file, "--check", "slater", "--out", out])
    assert code == 3
    (record,) = _records(out.read_text())
    assert record["record"] == "slater"
    assert record["passed"] is False
    assert "error" in record


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
    assert "known_optimum" not in by_name["cassini"]


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


def test_solve_steps_back_from_an_undefined_objective(run_cli, tmp_path):
    # steepest descent from 4.9 overshoots into x1 < 0, where ln(x1) is undefined
    path = tmp_path / "ln-objective.json"
    path.write_text(
        json.dumps(
            {
                "name": "ln-objective",
                "nvars": 1,
                "objective": "x1 - 3*ln(x1)",
                "constraints": ["x1", "5 - x1"],
                "box": [[-1, 6]],
                "interior_point": [4.9],
            }
        )
    )
    code, stdout, _ = run_cli(["solve", "--problem", path, "--no-newton"])
    assert code == 0
    cert = _records(stdout)[-1]
    assert abs(cert["x"][0] - 3.0) < 1e-6


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
