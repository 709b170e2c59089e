"""One sha256 per command of what the command line prints, to compare two trees.

Usage, from the repository root:

    python3 tests/corpus_digest.py [--src DIR] [--seeds 1 2]

Each output line is the sha256 of one command's exit code, stdout and
stderr, then the command.  The commands are the 45 builtin ones: solve,
solve --require-assumptions, diagnose with each of the two standard check
lists, oracle --res 201, solve --mu-min 1e-12, diagnose --check
phiconvexity:1e308 (whose barrier Hessians overflow), and solve
--mu-factor 0.9 and 0.001 (175 close weights, some of whose late stages
end at the float floor of phi above their target, and 3 far-apart ones,
whose last stage ends there too), on each builtin.  Then contour and oracle on disk at
--res 1000000000000000, a grid no memory holds.  Then list, the one
command that prints the builtins' known optima.  Then one solve per
malformed objective, the texts of test_expr.PARSE_ERRORS, each in a
2-variable problem file that is valid apart from it: these compare the
parser's error output.  Then one solve per steep linear objective over
the unit disk: the gentler ones end their last stages at the float floor
of phi, above their gradient-norm target, and past about 1.3e154 the
norm of the barrier gradient overflows.  The off-default and steep
solves show a change to the stage or stopping rules that the default
runs do not.  Then sixteen commands on variants of the unit-disk file:
nondegeneracy and curvature on the disk written as
1e160*(1 - x1^2 - x2^2), whose gradient norms overflow when squared;
contour --res 3 and diagnose --check slater on a box whose width
overflows; solve on the disk written as 1e4*(1 - x1^2 - x2^2), whose
certificate the scale of g must not move; nondegeneracy and curvature
on the disk written as 1e308*(1 - x1^2 - x2^2), whose gradient entries
overflow; solve on 1e-3*(x1 + x2), whose last iterate stops about
1.4e-5 inside the disk, short of a certificate; solve
--require-assumptions on x1 - x2^2, which is not convex, so its KKT
point (-1, 0) is not the minimizer; solve on the disk constraint written
twice, whose active gradients have rank 1; solve, with and without
--require-assumptions, and diagnose --check nondegeneracy,curvature, on
x1 over the disk of radius sqrt(10) in the box [-1, 1]^2, whose
minimizer no sampled boundary point comes near and whose curvature check
measures no boundary point, so the gate fails it; and
solve --require-assumptions on the one point where -x1^2 - x2^2 >= 0,
which holds on no grid point strictly, so the gate prints the failed
slater, nondegeneracy and curvature records; diagnose --check
nondegeneracy on the unit disk beside 1e-7*(2 - x1), a constraint that
is small on the whole box but active nowhere on its boundary; and solve
--require-assumptions on the annulus 1 <= x1^2 + x2^2 <= 4, whose inner
circle bends away from the set, so the gate's curvature check fails;
and solve --require-assumptions on the disk plus
0*exp(exp(10*(x1 - 1) + 6.551)), whose Hessian cannot be taken at one
sampled boundary point, which the curvature check counts as unmeasured.
Then solve on a file whose interior_point is misspelled, which the
loader refuses.  That makes 91 commands, which commands() yields.  Each seed adds the commands of the
benchmark's solve, probe2d and probe3d pools on the problem files
benchmarks/instances.py generates for it, written to a temporary
directory: 467 commands in all with --seeds 1 2.  To see which commands
a change moves, run the script against the package sources of each tree
and compare:

    python3 tests/corpus_digest.py --src OTHER/src --seeds 1 2 > before.txt
    python3 tests/corpus_digest.py --seeds 1 2 > after.txt
    diff before.txt after.txt

--outputs FILE also writes, for each command, one JSON line with its
label, exit code, stdout and stderr: the text its digest hashes.  To see
which fields a change moves, write both trees' outputs and compare them:

    python3 tests/corpus_digest.py --src OTHER/src --seeds 1 2 --outputs before.jsonl
    python3 tests/corpus_digest.py --seeds 1 2 --outputs after.jsonl
    python3 tests/corpus_digest.py --compare before.jsonl after.jsonl

--compare runs no command.  For each command whose outputs differ it
prints whether the exit code or stderr differs and, record by record,
the kinds and field names whose values differ; then it counts the
commands that differ in each way.  It exits 1 when some command differs.

The commands run in this process through logbarrier.cli.main; one that
raises is digested with its exception in place of an exit code.  The
builtins are the ones logbarrier.corpus.names() lists in the tree run.
Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILTIN_COMMANDS = [
    ["solve"],
    ["solve", "--require-assumptions"],
    ["diagnose", "--check", "slater,nondegeneracy,curvature,levelset:0,phiconvexity:1"],
    ["diagnose", "--check", "levelset:1.5,levelset:2.95,phiconvexity:0.01", "--seed", "7"],
    ["oracle", "--res", "201"],
    ["solve", "--mu-min", "1e-12"],
    ["diagnose", "--check", "phiconvexity:1e308"],
    ["solve", "--mu-factor", "0.9"],
    ["solve", "--mu-factor", "0.001"],
]
HUGE_GRIDS = [
    [command, "--builtin", "disk", "--res", "1000000000000000"] for command in ("contour", "oracle")
]
UNIT_DISK = {  # every objective below is solved over this set
    "name": "unit-disk",
    "nvars": 2,
    "constraints": ["1 - x1^2 - x2^2"],
    "box": [[-2, 2], [-2, 2]],
    "interior_point": [0, 0],
}
STEEP_OBJECTIVES = ["50*x1", "200*x1", "1e154*x1", "1e160*x1", "1e300*x1"]
# (stem, the keys that replace UNIT_DISK's and its objective, commands on that file)
VARIANTS = [
    (
        "steep-constraint",
        {"objective": "x1", "constraints": ["1e160*(1 - x1^2 - x2^2)"]},
        [["diagnose", "--check", "nondegeneracy"], ["diagnose", "--check", "curvature"]],
    ),
    (
        "wide-box",
        {"objective": "x1", "box": [[-1e308, 1.7e308], [-1e308, 1e308]]},
        [["contour", "--res", "3"], ["diagnose", "--check", "slater"]],
    ),
    (
        "scaled-disk",
        {"objective": "(x1 - 1)^2 + (x2 - 1)^2", "constraints": ["1e4*(1 - x1^2 - x2^2)"]},
        [["solve"]],
    ),
    (
        "overflowing-constraint",
        {"objective": "x1", "constraints": ["1e308*(1 - x1^2 - x2^2)"]},
        [["diagnose", "--check", "nondegeneracy"], ["diagnose", "--check", "curvature"]],
    ),
    ("shallow", {"objective": "1e-3*(x1 + x2)"}, [["solve"]]),
    ("concave-objective", {"objective": "x1 - x2^2"}, [["solve", "--require-assumptions"]]),
    (
        "disk-twice",
        {"objective": "(x1 - 1)^2 + (x2 - 1)^2", "constraints": ["1 - x1^2 - x2^2"] * 2},
        [["solve"]],
    ),
    (
        "wide",
        {"objective": "x1", "constraints": ["10 - x1^2 - x2^2"], "box": [[-1, 1], [-1, 1]]},
        [
            ["solve"],
            ["solve", "--require-assumptions"],
            ["diagnose", "--check", "nondegeneracy,curvature"],
        ],
    ),
    (
        "point",
        {"objective": "x1", "constraints": ["-x1^2 - x2^2"], "interior_point": None},
        [["solve", "--require-assumptions"]],
    ),
    (
        "tiny-constraint",
        {"objective": "x1", "constraints": ["1 - x1^2 - x2^2", "1e-7*(2 - x1)"]},
        [["diagnose", "--check", "nondegeneracy"]],
    ),
    (
        "annulus",
        {
            "objective": "x1",
            "constraints": ["4 - x1^2 - x2^2", "x1^2 + x2^2 - 1"],
            "box": [[-2.5, 2.5], [-2.5, 2.5]],
            "interior_point": [1.5, 0],
        },
        [["solve", "--require-assumptions"]],
    ),
    (
        "hessian-overflow",
        {
            "objective": "x1 + x2",
            "constraints": ["1 - x1^2 - x2^2 + 0*exp(exp(10*(x1 - 1) + 6.551))"],
            "box": [[-1, 1], [-1, 1]],
            "interior_point": None,
        },
        [["solve", "--require-assumptions"]],
    ),
    (
        "misspelled-key",
        {"objective": "x1", "interior_point": None, "interior_pont": [0.5, 0]},
        [["solve"]],
    ),
]


def outcome(main, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr) of one command; one that raises has None
    for its exit code and its exception at the end of its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is one more outcome to compare
            code = None
            err.write(f"raised {exc!r}")
    return code, out.getvalue(), err.getvalue()


def commands(tmp: Path, seeds=()):
    """(label, argv) of every command in order, with the problem files they read written to tmp."""
    from test_expr import PARSE_ERRORS

    from logbarrier import corpus

    for name in corpus.names():
        for command in BUILTIN_COMMANDS:
            argv = [command[0], "--builtin", name, *command[1:]]
            yield " ".join(argv), argv
    for argv in HUGE_GRIDS:
        yield " ".join(argv), argv
    yield "list", ["list"]
    objectives = [(f"malformed-{k}", text) for k, (text, _, _) in enumerate(PARSE_ERRORS)]
    objectives += [(f"steep-{k}", text) for k, text in enumerate(STEEP_OBJECTIVES)]
    for stem, objective in objectives:
        path = tmp / f"{stem}.json"
        path.write_text(json.dumps({**UNIT_DISK, "objective": objective}))
        label = f"objective {ascii(objective)}: solve --problem {path.name}"
        yield label, ["solve", "--problem", str(path)]
    for stem, keys, variant_commands in VARIANTS:
        path = tmp / f"{stem}.json"
        path.write_text(json.dumps({**UNIT_DISK, **keys}))
        for command in variant_commands:
            argv = [command[0], "--problem", str(path), *command[1:]]
            yield " ".join(argv).replace(str(path), path.name), argv
    for seed in seeds:
        import run  # its workloads, and instances for their pools

        for workload_name in ("solve", "probe2d", "probe3d"):
            workload = run.WORKLOADS[workload_name]
            insts = run.instances.generate(seed, workload.families, workload.per_family)
            paths = run.instances.write(insts, tmp / f"{workload_name}-s{seed}")
            for inst, path in zip(insts, paths):
                for argv in workload.argvs(path, with_oracle=False):
                    label = " ".join(argv).replace(str(path), f"{inst.name}.json")
                    yield f"seed {seed}: {label}", argv


def run_commands(cli_main, tmp: Path, seeds=(), outputs=None) -> None:
    """Print the digest and label of each command; with outputs, a file
    open for writing, also write there the JSON line its digest hashes."""
    for label, argv in commands(tmp, seeds):
        code, stdout, stderr = outcome(cli_main, argv)
        if outputs is not None:
            line = {"label": label, "code": code, "stdout": stdout, "stderr": stderr}
            outputs.write(json.dumps(line) + "\n")
        digest = hashlib.sha256(f"{code}\n{stdout}\n{stderr}".encode()).hexdigest()
        print(digest, label, flush=True)


def _records(stdout: str):
    """The JSON records a stdout holds, one a line, or None where it holds something else."""
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError:
        return None
    return records if all(isinstance(r, dict) and "record" in r for r in records) else None


def stdout_differences(before: str, after: str) -> str:
    """Each record kind whose field values differ between two stdouts, with
    those fields, in order; the kinds in order where records differ in kind."""
    old, new = _records(before), _records(after)
    if old is None or new is None:
        return "stdout (not records)"
    kinds = [", ".join(r["record"] for r in records) for records in (old, new)]
    if kinds[0] != kinds[1]:
        return f"records {kinds[0]} -> {kinds[1]}"
    fields: dict[str, list[str]] = {}
    for a, b in zip(old, new):
        for key in {**a, **b}:  # a's keys, then b's new ones
            if key not in a or key not in b or json.dumps(a[key]) != json.dumps(b[key]):
                names = fields.setdefault(a["record"], [])
                if key not in names:
                    names.append(key)
    notes = [f"{kind}: {', '.join(names)}" for kind, names in fields.items()]
    return "; ".join(notes) or "stdout (same fields and values)"


def compare(before_path: Path, after_path: Path) -> int:
    """Print what differs for each command whose outputs differ between two
    --outputs files, then how many commands differ in each way.  Returns 1
    when some command differs, else 0."""
    before, after = (
        {line["label"]: line for line in map(json.loads, path.read_text().splitlines())}
        for path in (before_path, after_path)
    )
    labels = {**before, **after}  # before's labels, then after's new ones
    tally: Counter[str] = Counter()
    differ = 0
    for label in labels:
        if label not in before or label not in after:
            notes = [f"only in {before_path if label in before else after_path}"]
        else:
            a, b = before[label], after[label]
            notes = [f"exit code {a['code']} -> {b['code']}"] if a["code"] != b["code"] else []
            notes += ["stderr"] if a["stderr"] != b["stderr"] else []
            if a["stdout"] != b["stdout"]:
                notes.append(stdout_differences(a["stdout"], b["stdout"]))
        if notes:
            differ += 1
            tally.update(notes)
            print(f"{label}: {'; '.join(notes)}")
    print(f"{differ} of {len(labels)} commands differ")
    for note, count in tally.most_common():
        print(f"{count:7d}  {note}")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the package sources")
    parser.add_argument("--seeds", type=int, nargs="*", default=[], help="benchmark pool seeds")
    parser.add_argument(
        "--outputs",
        type=Path,
        metavar="FILE",
        help="also write each command's label, exit code, stdout and stderr to FILE",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        nargs=2,
        metavar=("BEFORE", "AFTER"),
        help="run nothing; list what differs between two --outputs files",
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.path[:0] = [str(args.src), str(ROOT / "benchmarks")]
    import run  # noqa: F401  benchmarks/run.py pins BLAS to one thread before numpy loads

    from logbarrier.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        with open(args.outputs, "w") if args.outputs else contextlib.nullcontext() as outputs:
            run_commands(cli_main, Path(tmp), args.seeds, outputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
