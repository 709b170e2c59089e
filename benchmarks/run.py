"""Seeded end-to-end benchmark of the logbarrier CLI.

Usage, from the repository root:

    python3 benchmarks/run.py --workload solve --seed 1 --seconds 25 --trace 0

Each workload generates its problem files from --seed, imports the package
from ./src and drives `logbarrier.cli.main(argv)` in this one process: a
closed loop with one client, no extra threads, BLAS pinned to one thread.
An op is the list of CLI commands one user runs on one instance; every op's
output is checked against the generator's independent reference.

--trace 0 measures for --seconds and prints the end-to-end metrics.
--trace 1 runs each op of a fixed list once untraced and once traced, and
prints the per-layer metrics and the tracing overhead; a fixed list makes
its counts repeat exactly for a given seed.  --oracle ends every probe op
with the grid oracle, which misses its check on some instances (README.md).
The last line of stdout is one JSON object with the metrics named in
BENCHMARK.json.  The exit code is 0 when every op passed its check, 1 when
one failed, and 2 when the program or the benchmark configuration cannot
be found.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is first imported: nproc is small and shared
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import instances  # noqa: E402
import metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

SETUP_REPEATS = 15  # before the measured phase; the first one also compiles bytecode
MIN_OPS = metrics.TAIL_BEYOND + 1


@dataclass(frozen=True)
class Workload:
    families: list[str]
    per_family: int  # instances per family in the pool the loop cycles through
    commands: list[list[str]]  # each argv without "--problem PATH"
    trace_ops: int  # length of the fixed op list of a traced run
    oracle: list[str] | None = None  # appended to every op by --oracle

    def argvs(self, path: Path, with_oracle: bool) -> list[list[str]]:
        commands = self.commands + ([self.oracle] if with_oracle else [])
        return [[c[0], "--problem", str(path), *c[1:]] for c in commands]


DIAGNOSE = ["diagnose", "--check", checks.DIAGNOSE_CHECKS]
WORKLOADS = {
    # the paper's method end to end; about a third of the instances spin in
    # a late stage until max_iters, so the tail exposes the inner stopping rule
    "solve": Workload(["cassini", "hyperbola", "epsbox", "disk"], 16, [["solve"]], 4),
    # hypothesis probes in 2-D; never calls inner or continuation, so a
    # stopping-rule change must not move it
    "probe2d": Workload(
        ["cassini", "hyperbola", "epsbox", "disk", "degenerate-disk"], 12, [DIAGNOSE], 10, ["oracle"]
    ),
    # the same in 3-D without interior points: res^n grids dominate time and memory
    "probe3d": Workload(["cassini3", "ball3"], 32, [DIAGNOSE], 8, ["oracle", "--res", "101"]),
}


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "logbarrier" or m.startswith("logbarrier.")]:
        del sys.modules[name]


def set_up(paths: list[Path]) -> float:
    """Seconds to import logbarrier.cli and load every instance.

    The package is dropped from sys.modules first, so module-level work is
    paid again; numpy stays imported.  Code that already holds the previous
    import keeps using it.
    """
    _purge_package()
    gc.collect()
    start = time.perf_counter()
    importlib.import_module("logbarrier.cli")
    load = sys.modules["logbarrier.problem"].load
    for path in paths:
        load(path)
    return time.perf_counter() - start


def run_op(main, argvs: list[list[str]]) -> list[tuple]:
    """(exit code, stdout, stderr) per command; exit code None when it raised."""
    outcomes = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception:  # a traceback is a failed op, not a crashed benchmark
                code = None
                err.write(traceback.format_exc())
        outcomes.append((code, out.getvalue(), err.getvalue()))
    return outcomes


def _digest(outcomes: list[tuple]) -> str:
    h = hashlib.sha256()
    for code, out, _ in outcomes:
        h.update(f"{code}\n{out}".encode())
    return h.hexdigest()


@dataclass
class OpLog:
    """Outcome of every op run, checked after the measured phase."""

    failures: list[str]
    digests: list[str]
    first_digest: dict[str, str]

    @classmethod
    def empty(cls) -> "OpLog":
        return cls([], [], {})

    def check(self, inst, argvs, outcomes) -> None:
        problems = checks.check_op(inst, argvs, outcomes)
        digest = _digest(outcomes)
        first = self.first_digest.setdefault(inst.name, digest)
        if digest != first:
            problems.append("output differs from an earlier run of the same instance")
        self.digests.append(digest)
        if problems:
            self.failures.append(f"{inst.name}: " + "; ".join(problems))

    def output_digest(self, n: int) -> str:
        return hashlib.sha256("".join(self.digests[:n]).encode()).hexdigest()


def run_timed(main, pool, seconds: float):
    """Closed loop over the pool until the deadline and at least MIN_OPS ops.

    Returns (inst, argvs, outcomes, seconds) per op and the phase's seconds.
    """
    done = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        inst, argvs = pool[i % len(pool)]
        t0 = time.perf_counter()
        outcomes = run_op(main, argvs)
        t1 = time.perf_counter()
        done.append((inst, argvs, outcomes, t1 - t0))
        i += 1
        if t1 >= deadline and i >= MIN_OPS:
            return done, t1 - start


def run_traced(main, ops, default_stages: int, spans_path: Path):
    """Each op of the fixed list untraced and traced, in alternating order.

    Pairing the two runs of an op keeps a slow stretch of a shared machine
    from posing as tracing overhead.  Per-layer metrics come from the traced
    runs only.
    """
    run_op(main, ops[0][1])  # warm-up, not checked
    tracer = Tracer()
    seconds = {False: 0.0, True: 0.0}
    done = []
    for k, (inst, argvs) in enumerate(ops):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
                frame = tracer.begin_op(k)
            start = time.perf_counter()
            try:
                outcomes = run_op(main, argvs)
            finally:
                seconds[traced] += time.perf_counter() - start
                if traced:
                    tracer.end_op(frame)
                    tracer.uninstall()
            done.append((inst, argvs, outcomes))
    tracer.write_spans(spans_path)

    layers = metrics.layer_metrics(tracer, default_stages)
    n = len(ops)
    layers["trace.untraced_ops_per_s"] = (n / seconds[False], "1/s")
    layers["trace.traced_ops_per_s"] = (n / seconds[True], "1/s")
    layers["trace.overhead_frac"] = (seconds[True] / seconds[False] - 1.0, "ratio")
    return layers, done


def _load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _result_line(spec_metrics: list[dict], values: dict, attempted: int, failed: int) -> str:
    out = {}
    for m in spec_metrics:
        value = values[m["name"]][0]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="end every probe op with the grid oracle, checked to 1e-6 against f*; "
        "it misses on some instances, so such runs can fail (see README.md)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    workload = WORKLOADS[args.workload]
    if args.oracle and workload.oracle is None:
        parser.error(f"--oracle applies to the probe workloads, not {args.workload}")

    if not (SRC / "logbarrier" / "cli.py").is_file():
        print(f"benchmark: no logbarrier package under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = _load_spec()
    except (OSError, json.JSONDecodeError) as err:
        print(f"benchmark: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    insts = instances.generate(args.seed, workload.families, workload.per_family)
    run_dir = WORK / f"{args.workload}-s{args.seed}"
    paths = instances.write(insts, run_dir)
    setup_s = [set_up(paths) for _ in range(SETUP_REPEATS)]
    main_fn = sys.modules["logbarrier.cli"].main
    from logbarrier.continuation import MuSchedule

    default_stages = len(MuSchedule().weights())
    pool = [(inst, workload.argvs(path, args.oracle)) for inst, path in zip(insts, paths)]

    print(f"# workload {args.workload}, seed {args.seed}, {len(pool)} instances "
          f"of {', '.join(workload.families)}; op: {' && '.join(c[0] for c in pool[0][1])}")
    print("# wait: not applicable (one client, one thread, no queue)")
    log = OpLog.empty()
    if args.trace:
        ops = [pool[i % len(pool)] for i in range(workload.trace_ops)]
        values, done = run_traced(main_fn, ops, default_stages, run_dir / "spans.jsonl")
        for inst, argvs, outcomes in done:
            log.check(inst, argvs, outcomes)
        digest_ops = len(done)
        spec_metrics = spec["per_layer"]
    else:
        done, phase_s = run_timed(main_fn, pool, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        by_family: dict[str, list[float]] = {}
        for inst, argvs, outcomes, seconds in done:
            log.check(inst, argvs, outcomes)
            by_family.setdefault(inst.family, []).append(seconds)
        op_s = [d[3] for d in done]
        values = metrics.end_to_end(op_s, phase_s, setup_s, len(log.failures), rss_mb)
        digest_ops = MIN_OPS
        spec_metrics = spec["end_to_end"]
        for family, times in by_family.items():
            print(f"# {family}: {len(times)} ops, median {1e3 * statistics.median(times):.1f} ms, "
                  f"max {1e3 * max(times):.1f} ms")
    print(f"# setup_s repeats: {', '.join(f'{t:.4f}' for t in setup_s)}")
    for name, (value, unit, *note) in values.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note[0]})" if note else ""))
    print(f"# output_digest {log.output_digest(digest_ops)} over the first {digest_ops} ops")
    for failure in log.failures:
        print(f"# FAILED {failure}")
    print(_result_line(spec_metrics, values, len(log.digests), len(log.failures)))
    return 1 if log.failures else 0


if __name__ == "__main__":
    sys.exit(main())
