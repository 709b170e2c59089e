"""Per-op correctness checks against the generator's independent references.

An op is the list of CLI commands one user runs on one instance; each
command's outcome is (exit code, stdout, stderr), with exit code None when
the command raised.  A check returns the list of reasons the op failed,
empty when it passed.  An expected honest negative (nondegeneracy failing
with exit 3 on the degenerate disk) is a success.
"""

from __future__ import annotations

import json

OBJECTIVE_TOL = 1e-6
CURVATURE_TOL = 1e-6
DIAGNOSE_CHECKS = "slater,nondegeneracy,curvature,levelset:0,phiconvexity:1"
DIAGNOSE_RECORDS = [
    "slater",
    "nondegeneracy",
    "tangential_curvature",
    "levelset_convexity",
    "phi_convexity",
]
DEGENERATE = {"degenerate-disk"}
# sign of the smallest barrier Hessian eigenvalue at mu = 1; the objectives
# are linear or 2*I, so the sign depends on the constraint alone
PHI_INDEFINITE = {"cassini", "epsbox", "cassini3"}
PHI_POSITIVE = {"disk", "hyperbola", "ball3", "degenerate-disk"}


def _records(stdout: str, problems: list[str], label: str) -> list[dict]:
    try:
        return [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as err:
        problems.append(f"{label}: output is not JSON lines ({err})")
        return []


def _check_exit(outcome, expected: int, problems: list[str], label: str) -> bool:
    code, _, stderr = outcome
    if code != expected:
        tail = stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"{label}: exit {code}, expected {expected} ({tail[0]})")
        return False
    return True


def check_solve(inst, outcome) -> list[str]:
    problems: list[str] = []
    if not _check_exit(outcome, 0, problems, "solve"):
        return problems
    records = _records(outcome[1], problems, "solve")
    if not records or records[-1].get("record") != "certificate":
        return problems + ["solve: last record is not a certificate"]
    cert = records[-1]
    if cert["verdict"] != "kkt_point":
        problems.append(f"solve: verdict {cert['verdict']}")
    err = abs(cert["objective"] - inst.f_star)
    if not err <= OBJECTIVE_TOL:
        problems.append(f"solve: |f - f*| = {err:.3e} > {OBJECTIVE_TOL}")
    return problems


def check_diagnose(inst, outcome) -> list[str]:
    problems: list[str] = []
    degenerate = inst.family in DEGENERATE
    if not _check_exit(outcome, 3 if degenerate else 0, problems, "diagnose"):
        return problems
    records = _records(outcome[1], problems, "diagnose")
    kinds = [r.get("record") for r in records]
    if kinds != DIAGNOSE_RECORDS:
        return problems + [f"diagnose: records {kinds}, expected {DIAGNOSE_RECORDS}"]
    slater, nondeg, curv, levelset, phi = records
    if not slater["margin"] > 0.0:
        problems.append(f"diagnose: slater margin {slater['margin']}")
    if levelset["verdict"] != "convex_up_to_sampling":
        problems.append(f"diagnose: levelset:0 verdict {levelset['verdict']}")
    if nondeg["passed"] is degenerate:
        problems.append(f"diagnose: nondegeneracy passed={nondeg['passed']}")
    if not degenerate:
        for entry in curv["constraints"]:
            kappa = entry["max_tangential_curvature"]
            if kappa is not None and not kappa <= CURVATURE_TOL:
                problems.append(f"diagnose: curvature {kappa:.3e} on g{entry['constraint']}")
    min_eig = phi["min_eigenvalue"]
    if inst.family in PHI_INDEFINITE and not min_eig < 0.0:
        problems.append(f"diagnose: phi min eigenvalue {min_eig} should be negative")
    if inst.family in PHI_POSITIVE and not min_eig > 0.0:
        problems.append(f"diagnose: phi min eigenvalue {min_eig} should be positive")
    return problems


def check_oracle(inst, outcome) -> list[str]:
    problems: list[str] = []
    if not _check_exit(outcome, 0, problems, "oracle"):
        return problems
    records = _records(outcome[1], problems, "oracle")
    if len(records) != 1 or records[0].get("record") != "oracle":
        return problems + ["oracle: expected one oracle record"]
    err = abs(records[0]["f_best"] - inst.f_star)
    if not err <= OBJECTIVE_TOL:
        problems.append(f"oracle: |f_best - f*| = {err:.3e} > {OBJECTIVE_TOL}")
    return problems


CHECKS = {"solve": check_solve, "diagnose": check_diagnose, "oracle": check_oracle}


def check_op(inst, commands: list[list[str]], outcomes: list[tuple]) -> list[str]:
    """Reasons the op failed; commands[i][0] names the check for outcomes[i]."""
    problems: list[str] = []
    for argv, outcome in zip(commands, outcomes):
        problems.extend(CHECKS[argv[0]](inst, outcome))
    return problems
