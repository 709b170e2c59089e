"""One sha256 per command of what the command line prints, to compare two trees.

Usage, from the repository root:

    python3 tests/corpus_digest.py [--src DIR] [--seeds 1 2]

Each output line is the sha256 of one command's exit code, stdout and
stderr, then the command.  The commands are the 35 builtin ones: solve,
solve --require-assumptions, diagnose with each of the two standard check
lists, oracle --res 201, solve --mu-min 1e-12 and diagnose --check
phiconvexity:1e308 (whose barrier Hessians overflow), on each builtin.
Then contour and oracle on disk at --res 1000000000000000, a grid no
memory holds.  Then one solve per malformed objective, the texts of
test_expr.PARSE_ERRORS, each in a 2-variable problem file that is valid
apart from it: these compare the parser's error output.  Then one solve
per steep linear objective over the unit disk: the gentler ones end
their last stages short of their tolerance, and past about 1.3e154 the
norm of the barrier gradient overflows.  The off-default and steep
solves show a change to the stage or stopping rules that the default
runs do not.  Then seven commands on variants of the unit-disk file:
nondegeneracy and curvature on the disk written as
1e160*(1 - x1^2 - x2^2), whose gradient norms overflow when squared;
contour --res 3 and diagnose --check slater on a box whose width
overflows; solve on the disk written as 1e4*(1 - x1^2 - x2^2), which
is not certified while 1000*(...) is; and nondegeneracy and curvature
on the disk written as 1e308*(1 - x1^2 - x2^2), whose gradient entries
overflow.  That makes 69 commands.  Each seed adds the commands of the
benchmark's solve, probe2d and probe3d pools on the problem files
benchmarks/instances.py generates for it, written to a temporary
directory: 445 commands in all with --seeds 1 2.  To see which
commands a change moves, run the script against the package sources of
each tree and compare:

    python3 tests/corpus_digest.py --src OTHER/src --seeds 1 2 > before.txt
    python3 tests/corpus_digest.py --seeds 1 2 > after.txt
    diff before.txt after.txt

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
]


def digest(main, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # a traceback is one more outcome to compare
            code = None
            err.write(f"raised {exc!r}")
    return hashlib.sha256(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the package sources")
    parser.add_argument("--seeds", type=int, nargs="*", default=[], help="benchmark pool seeds")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src), str(ROOT / "benchmarks")]
    import run  # benchmarks/run.py: its workloads, and instances for their pools
    from test_expr import PARSE_ERRORS

    from logbarrier import corpus
    from logbarrier.cli import main as cli_main

    for name in corpus.names():
        for command in BUILTIN_COMMANDS:
            argv = [command[0], "--builtin", name, *command[1:]]
            print(digest(cli_main, argv), " ".join(argv), flush=True)
    for argv in HUGE_GRIDS:
        print(digest(cli_main, argv), " ".join(argv), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        objectives = [(f"malformed-{k}", text) for k, (text, _, _) in enumerate(PARSE_ERRORS)]
        objectives += [(f"steep-{k}", text) for k, text in enumerate(STEEP_OBJECTIVES)]
        for stem, objective in objectives:
            path = Path(tmp) / f"{stem}.json"
            path.write_text(json.dumps({**UNIT_DISK, "objective": objective}))
            label = f"objective {ascii(objective)}: solve --problem {path.name}"
            print(digest(cli_main, ["solve", "--problem", str(path)]), label, flush=True)
        for stem, keys, commands in VARIANTS:
            path = Path(tmp) / f"{stem}.json"
            path.write_text(json.dumps({**UNIT_DISK, **keys}))
            for command in commands:
                argv = [command[0], "--problem", str(path), *command[1:]]
                label = " ".join(argv).replace(str(path), path.name)
                print(digest(cli_main, argv), label, flush=True)
        for seed in args.seeds:
            for workload_name in ("solve", "probe2d", "probe3d"):
                workload = run.WORKLOADS[workload_name]
                insts = run.instances.generate(seed, workload.families, workload.per_family)
                paths = run.instances.write(insts, Path(tmp) / f"{workload_name}-s{seed}")
                for inst, path in zip(insts, paths):
                    for argv in workload.argvs(path, with_oracle=False):
                        label = " ".join(argv).replace(str(path), f"{inst.name}.json")
                        print(digest(cli_main, argv), f"seed {seed}:", label, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
