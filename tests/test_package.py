"""Package-level guards: no dataclasses, frozen records, a clean import,
the functions the benchmark tracer wraps, no function nothing references,
no default nothing overrides, no parameter its function never reads, and
the README's library example as written."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import logbarrier

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Records are collections.namedtuple types and expression nodes are tagged
# tuples.  Built at import, a dataclass costs about 1 ms; a 6-field
# typing.NamedTuple 207 us with string annotations, one ForwardRef per
# field, and a collections.namedtuple 84 us.
RECORDS = [
    "barrier.BarrierEvaluation",
    "certificate.KKTCertificate",
    "continuation.SolveTrace",
    "corpus.KnownOptimum",
    "corpus.CorpusEntry",
    "diagnostics.SlaterReport",
    "diagnostics.BoundarySample",
    "diagnostics.NondegeneracyEntry",
    "diagnostics.NondegeneracyReport",
    "diagnostics.LevelsetWitness",
    "diagnostics.LevelsetReport",
    "diagnostics.PhiConvexityReport",
    "diagnostics.CurvatureEntry",
    "diagnostics.CurvatureReport",
    "expr.Expr",
    "expr.Jet",
    "inner.PathPoint",
    "oracle.OracleResult",
    "problem.Problem",
]


def _classes():
    for info in pkgutil.iter_modules(logbarrier.__path__):
        module = importlib.import_module(f"logbarrier.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield f"{info.name}.{obj.__qualname__}", obj


def test_no_class_in_the_package_is_a_dataclass():
    assert [name for name, cls in _classes() if dataclasses.is_dataclass(cls)] == []


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_named_tuple_that_rejects_assignment(name):
    module, cls_name = name.split(".")
    cls = getattr(importlib.import_module(f"logbarrier.{module}"), cls_name)
    record = cls._make([None] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 1.0)


def _fresh_import(code: str) -> str:
    """stdout of code run in a fresh interpreter that sees the package; it must run silently."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    return proc.stdout


def test_import_is_silent_and_loads_no_third_party_module_but_numpy():
    out = _fresh_import(
        "import sys; before = set(sys.modules); import logbarrier.cli; "
        "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    loaded = set(out.split()) - set(sys.stdlib_module_names)
    assert loaded == {"logbarrier", "numpy"}


def test_import_does_not_load_dataclasses():
    # every CLI process pays the import; building a dataclass costs about 1 ms
    out = _fresh_import("import sys, logbarrier.cli; print('dataclasses' in sys.modules)")
    assert out.split() == ["False"]


def test_import_builds_no_forward_reference():
    # a typing.NamedTuple class compiles each string annotation into a
    # ForwardRef when it is built, for annotations no code reads
    out = _fresh_import(
        "import numpy, typing\n"
        "built = []\n"
        "init = typing.ForwardRef.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(args)\n"
        "    init(self, *args, **kwargs)\n"
        "typing.ForwardRef.__init__ = counted\n"
        "import logbarrier.cli\n"
        "print(len(built))"
    )
    assert out.split() == ["0"]


def _tracer_tables() -> dict[str, dict]:
    """SPAN_FUNCTIONS and LEAF_FUNCTIONS of benchmarks/tracing.py, read without importing it."""
    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPAN_FUNCTIONS", "LEAF_FUNCTIONS")
    }


def test_every_function_the_benchmark_tracer_wraps_exists():
    # benchmarks/tracing.py wraps these by module and name; a function
    # renamed or deleted here would break `benchmarks/run.py --trace 1`
    tables = _tracer_tables()
    assert set(tables) == {"SPAN_FUNCTIONS", "LEAF_FUNCTIONS"}
    for table in tables.values():
        assert table
        for module, attr in table.values():
            assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def _unreferenced_functions(package: Path) -> list[str]:
    """module.function for each public module-level function nothing else in the package names.

    A reference is a name, an attribute or an imported name anywhere in
    the package outside the function's own body; like _calls_by_name, it
    is matched by the name alone.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    referrers: dict[str, set] = {}  # name -> the (module, top-level statement) naming it
    for module, tree in trees.items():
        for k, stmt in enumerate(tree.body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    referrers.setdefault(name, set()).add((module, k))
    return [
        f"{module}.{fn.name}"
        for module, tree in trees.items()
        for k, fn in enumerate(tree.body)
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and not referrers.get(fn.name, set()) - {(module, k)}
    ]


def test_every_public_function_is_referenced_in_the_package():
    # a function nothing calls is code to keep in step for no command; the
    # wrappers the benchmark tracer names stay until the tracer drops them
    traced = {
        f"{module.rpartition('.')[2]}.{attr}"
        for table in _tracer_tables().values()
        for module, attr in table.values()
    }
    assert [f for f in _unreferenced_functions(SRC / "logbarrier") if f not in traced] == []


def _calls_by_name(trees) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _unpassed_defaults(package: Path) -> list[str]:
    """module.function.parameter for each default no call in the package overrides.

    Public module-level functions only.  A call counts when it names the
    parameter, passes enough positional arguments to reach it, or splats
    *args or **kwargs.  Calls are matched by the called name alone.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls = _calls_by_name(trees.values())
    out = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [
                (None, a.arg)
                for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if d is not None
            ]
            for index, param in defaulted:
                passed = any(
                    any(k.arg in (param, None) for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (index is not None and len(call.args) > index)
                    for call in calls.get(fn.name, [])
                )
                if not passed:
                    out.append(f"{module}.{fn.name}.{param}")
    return out


def test_every_default_is_overridden_somewhere_in_the_package():
    # a default that no caller overrides is a setting the program never
    # sets: make it a module constant instead.  The entry point's argv is
    # set from outside, by the command line
    assert _unpassed_defaults(SRC / "logbarrier") == ["cli.main.argv"]


def _unread_parameters(package: Path) -> list[str]:
    """module.function.parameter for each parameter, self aside, that its function's body never names.

    Every function counts: module-level, nested, methods and lambdas; a
    nested function's body is part of its enclosing function's.
    """
    out = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            named = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            name = getattr(fn, "name", "<lambda>")
            out += [f"{path.stem}.{name}.{p.arg}" for p in params if p.arg not in named | {"self"}]
    return out


def test_every_parameter_is_read():
    # a parameter the body never reads is an input every caller must
    # supply for nothing, like a probe that keeps a problem it no longer walks
    assert _unread_parameters(SRC / "logbarrier") == []


def test_readme_library_example_runs_as_written():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Library") :]
    (code,) = re.findall(r"```python\n(.*?)```", section[: section.index("\n## ", 1)], re.S)
    exec(compile(code, "README.md", "exec"), {})
