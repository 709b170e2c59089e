"""Tests for the benchmark's own code: run with `python3 -m pytest benchmarks/tests`."""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import instances  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

from logbarrier import cli, inner, oracle, problem  # noqa: E402

ALL_FAMILIES = list(instances.FAMILIES)


def test_generator_is_deterministic_per_seed():
    a = instances.generate(7, ALL_FAMILIES, 3)
    b = instances.generate(7, ALL_FAMILIES, 3)
    c = instances.generate(8, ALL_FAMILIES, 3)
    assert [(i.data, i.f_star, i.x_star) for i in a] == [(i.data, i.f_star, i.x_star) for i in b]
    assert [i.data for i in a] != [i.data for i in c]
    assert [i.family for i in a[: len(ALL_FAMILIES)]] == ALL_FAMILIES


def test_family_streams_are_independent():
    alone = instances.generate(3, ["disk"], 2)
    mixed = instances.generate(3, ["cassini", "disk"], 2)
    assert [i.data for i in alone] == [i.data for i in mixed if i.family == "disk"]


def test_written_files_load_with_plain_float_literals(tmp_path):
    insts = instances.generate(5, ALL_FAMILIES, 1)
    for inst, path in zip(insts, instances.write(insts, tmp_path)):
        p = problem.load(path)
        assert "np.float64" not in path.read_text()
        assert p.nvars == len(inst.x_star)


@pytest.mark.parametrize("family", ["cassini", "hyperbola", "epsbox", "disk"])
def test_references_agree_with_grid_oracle(family):
    # 1000 polish steps: the default 50 stop short of f* on some draws (see README)
    for seed in (1, 2, 3):
        for inst in instances.generate(seed, [family], 2):
            result = oracle.grid_minimize(
                problem.problem_from_dict(inst.data), res=2001, polish_steps=1000
            )
            assert abs(result.f_best - inst.f_star) <= 1e-9, (inst.name, result.f_best, inst.f_star)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_no_oracle_point_beats_the_reference(family):
    # the oracle returns a feasible point, so a reference above its value is wrong
    res = 2001 if len(instances.generate(0, [family], 1)[0].x_star) == 2 else 101
    for seed in (4, 5):
        for inst in instances.generate(seed, [family], 2):
            result = oracle.grid_minimize(problem.problem_from_dict(inst.data), res=res)
            assert result.f_best >= inst.f_star - 1e-12 * max(1.0, abs(inst.f_star)), inst.name


def test_cassini_min_matches_builtin_orientation():
    # the builtin objective x1 + x2 over the Cassini region: f* = -2.0984921908 (oracle)
    f_star, phi = instances.cassini_min(1.0, 1.0)
    assert abs(f_star - (-2.0984921908)) < 1e-8
    assert math.pi < phi < 1.5 * math.pi


def test_check_reference_rejects_interior_point():
    inst = instances.generate(1, ["disk"], 1)[0]
    bad = instances.Instance(inst.family, inst.index, inst.data, inst.f_star, (0.0, 0.0))
    with pytest.raises(ValueError):
        instances.check_reference(bad)


def test_tail_is_the_order_statistic_with_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert metrics.tail(values) == (90.0, 90.0, 100)
    value, pct, n = metrics.tail(list(reversed(values[:11])))
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100.0 / 11)
    assert metrics.tail(values * 10)[1] == 99.0
    with pytest.raises(ValueError):
        metrics.tail(values[:10])


def _solve_outcome(objective):
    record = {"record": "certificate", "verdict": "kkt_point", "objective": objective}
    return (0, json.dumps(record) + "\n", "")


def test_solve_check_flags_wrong_objective_and_exit_code():
    inst = instances.generate(2, ["hyperbola"], 1)[0]
    assert checks.check_solve(inst, _solve_outcome(inst.f_star + 1e-8)) == []
    assert checks.check_solve(inst, _solve_outcome(inst.f_star + 1e-5))
    assert checks.check_solve(inst, (None, "", "Traceback"))
    assert checks.check_solve(inst, (3, "", "not certified"))


def test_oracle_flag_appends_the_oracle_and_its_check():
    inst = instances.generate(1, ["ball3"], 1)[0]
    argvs = run.WORKLOADS["probe3d"].argvs(Path("p.json"), True)
    assert [a[0] for a in argvs] == ["diagnose", "oracle"]
    assert argvs[1] == ["oracle", "--problem", "p.json", "--res", "101"]
    assert [a[0] for a in run.WORKLOADS["probe3d"].argvs(Path("p.json"), False)] == ["diagnose"]
    for f_best, passes in ((inst.f_star + 1e-8, True), (inst.f_star + 1e-5, False)):
        record = {"record": "oracle", "f_best": f_best}
        assert (checks.check_op(inst, argvs[1:], [(0, json.dumps(record) + "\n", "")]) == []) is passes


def test_tracer_counts_layers_and_restores_bindings(tmp_path):
    inst = instances.generate(4, ["disk"], 1)[0]
    path = instances.write([inst], tmp_path)[0]
    originals = (inner.barrier_eval, inner.solve_inner, cli.solve, cli.grid_minimize)
    tracer = Tracer()
    tracer.install()
    try:
        assert inner.barrier_eval is not originals[0]
        frame = tracer.begin_op(0)
        code = cli.main(["solve", "--problem", str(path), "--out", str(tmp_path / "out.jsonl")])
        tracer.end_op(frame)
    finally:
        tracer.uninstall()
    assert code == 0
    assert (inner.barrier_eval, inner.solve_inner, cli.solve, cli.grid_minimize) == originals

    layers = metrics.layer_metrics(tracer, 12)
    assert layers["continuation.stages"][0] == 12
    assert layers["continuation.retries"][0] == 0
    assert layers["inner.iterations"][0] > 0
    assert layers["barrier.barrier_hessian.calls"][0] == layers["inner.iterations"][0]
    assert layers["problem.load.calls"][0] == 1
    assert layers["oracle.grid_points"][0] == 0

    # self times of spans and leaf calls partition the op's wall time
    op = tracer.spans[0]
    spans_self = sum(s.self_s for s in tracer.spans)
    leaves_self = sum(t.self_s for t in tracer.leaves.values())
    assert spans_self + leaves_self == pytest.approx(op.end - op.start, rel=1e-6)
    assert all(s.op == 0 for s in tracer.spans)
    assert all(s.parent is not None for s in tracer.spans[1:])
