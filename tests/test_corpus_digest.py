"""The byte-identity tool's commands stay in step with the command line, and
its --outputs and --compare modes say what it hashed and what moved."""

import hashlib
import io
import json

import corpus_digest

from logbarrier import cli


def test_every_digest_command_exits_without_raising(tmp_path, capsys):
    # exit 0, 2 or 3 on each builtin and variant command: none raises, so
    # no digest compares a traceback; each --outputs line is the text its
    # printed digest hashes
    outputs = io.StringIO()
    corpus_digest.run_commands(cli.main, tmp_path, outputs=outputs)
    printed = capsys.readouterr().out.splitlines()
    lines = [json.loads(line) for line in outputs.getvalue().splitlines()]
    assert len(lines) == len(printed) == 91
    for line, digest_line in zip(lines, printed):
        assert line["code"] in (0, 2, 3), line["label"]
        text = f"{line['code']}\n{line['stdout']}\n{line['stderr']}"
        assert digest_line == f"{hashlib.sha256(text.encode()).hexdigest()} {line['label']}"


def _write(path, *outcomes):
    keys = ("label", "code", "stdout", "stderr")
    path.write_text("".join(json.dumps(dict(zip(keys, o))) + "\n" for o in outcomes))
    return path


def _lines(*records):
    return "".join(json.dumps(r) + "\n" for r in records)


def test_compare_names_the_fields_that_moved(tmp_path, capsys):
    point = {"record": "path_point", "mu": 1.0, "status": "converged"}
    cert = {"record": "certificate", "verdict": "kkt_point"}
    level = {"record": "levelset_convexity", "scope": [1], "levels": [0.0], "verdict": "convex"}
    moved = {"record": "levelset_convexity", "level": 0.0, "verdict": "convex"}
    before = _write(
        tmp_path / "before.jsonl",
        ("solve", 0, _lines(point, point, cert), ""),
        ("diagnose", 0, _lines(level), ""),
        ("same", 0, _lines(cert), ""),
        ("refused", 3, "", "logbarrier: no\n"),
        ("contour", 0, "x1,x2,g\n", ""),
        ("stages", 0, _lines(point, cert), ""),
        ("gone", 0, "", ""),
    )
    after = _write(
        tmp_path / "after.jsonl",
        ("solve", 0, _lines({**point, "iterations": 4}, {**point, "mu": 0.2}, cert), ""),
        ("diagnose", 0, _lines(moved), ""),
        ("same", 0, _lines(cert), ""),
        ("refused", 2, "", "logbarrier: input error\n"),
        ("contour", 0, "x1,x2,g\n0,0,1\n", ""),
        ("stages", 0, _lines(point, point, cert), ""),
        ("new", 0, _lines(cert, cert), ""),
    )
    assert corpus_digest.main(["--compare", str(before), str(after)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "solve: path_point: iterations, mu",
        "diagnose: levelset_convexity: scope, levels, level",
        "refused: exit code 3 -> 2; stderr",
        "contour: stdout (not records)",
        "stages: records path_point, certificate -> path_point, path_point, certificate",
        f"gone: only in {before}",
        f"new: only in {after}",
        "7 of 8 commands differ",
        "      1  path_point: iterations, mu",
        "      1  levelset_convexity: scope, levels, level",
        "      1  exit code 3 -> 2",
        "      1  stderr",
        "      1  stdout (not records)",
        "      1  records path_point, certificate -> path_point, path_point, certificate",
        f"      1  only in {before}",
        f"      1  only in {after}",
    ]
    assert corpus_digest.main(["--compare", str(before), str(before)]) == 0
    assert capsys.readouterr().out == "0 of 7 commands differ\n"
