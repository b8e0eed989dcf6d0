"""The benchmark harness and the scripts under scripts/ run against the
current API: each is started as its own process, as a user would. Every
definition in src/ is reached from the program itself, not only from tests,
every attribute src/ stores is read by the program, and every exception
class src/ defines leaves the command line through a documented exit code."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import olepsi
from olepsi import cli

ROOT = Path(__file__).resolve().parents[1]


def _run(argv, cwd, timeout=300):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable] + argv, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_benchmark_selfcheck(tmp_path):
    # run from a directory of links, so the run records land in tmp_path
    for name in ("src", "benchmark", "BENCHMARK.json"):
        (tmp_path / name).symlink_to(ROOT / name)
    out = _run(["benchmark/selfcheck.py"], cwd=tmp_path)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "selfcheck: ok" in out.stdout


def test_make_tables(tmp_path):
    out = _run([str(ROOT / "scripts" / "make_tables.py")], cwd=tmp_path)
    assert out.returncode == 0, out.stderr


def test_tcp_demo(tmp_path):
    # the script's python3 is this interpreter
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=os.pathsep.join([os.path.dirname(sys.executable), os.environ["PATH"]]))
    out = subprocess.run(["bash", str(ROOT / "scripts" / "tcp_demo.sh")], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "intersection size: 500" in out.stdout


def test_bench_sweep(tmp_path):
    out = _run([str(ROOT / "scripts" / "bench_sweep.py"),
                "--sizes", "64", "--k", "2", "--sigma", "16"], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("correct: True") == 4  # one run per backend


def test_bench_sweep_counts_a_failing_cell(tmp_path):
    # this seed's n=16, k=3 run has no cuckoo placement with stash 0 (exit 3);
    # the sweep reports it and goes on to n=64. Re-derive the seed if the
    # placement changes.
    out = _run([str(ROOT / "scripts" / "bench_sweep.py"), "--sizes", "16", "64",
                "--k", "3", "--sigma", "8", "--backends", "seed", "--seed", f"{6:064x}"],
               cwd=tmp_path)
    assert out.returncode == 1
    assert "error: placement failed for 16 elements, stash 0\n" in out.stderr
    assert out.stderr.endswith("1 failed runs\n") and "Traceback" not in out.stderr
    assert out.stdout.count("bench-report:") == out.stdout.count("correct: True") == 1


def test_ci_runs_the_tier_1_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tests.yml").read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text()).group(1)
    job = workflow["jobs"]["tier-1"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    assert job["steps"][-1]["run"] == tier1
    # one more job tests the declared numpy floor, installed with the test
    # extras in one pip call so that the resolver picks a matching scipy
    floor = re.search(r'"numpy>=([\d.]+)"', (ROOT / "pyproject.toml").read_text()).group(1)
    assert job["strategy"]["matrix"]["include"] == [
        {"python-version": "3.10", "numpy": f"numpy=={floor}.*"}
    ]
    install = [step["run"] for step in job["steps"] if step.get("name") == "Install"]
    assert install == ["pip install -e '.[test]' '${{ matrix.numpy }}'"]
    assert 0 < job["timeout-minutes"] <= 30


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_definitions(paths):
    """Top-level and class-level defs and classes whose name is loaded (as an
    ast.Name or an attribute) nowhere outside their own body, as
    "file:qualname". Imports do not count and dunders are skipped. Loads from
    inside an unused definition do not count either, iterated to a fixed
    point, so a chain of definitions reached only from tests is caught whole."""
    defs = {}  # (file, qualname) -> name
    loads = {}  # name -> the definitions enclosing each load of it
    for path in paths:
        tree = ast.parse(path.read_text())
        file = path.relative_to(ROOT).as_posix()
        tracked = {}
        for top in tree.body:
            if isinstance(top, _DEFS):
                tracked[id(top)] = (file, top.name)
                for member in top.body if isinstance(top, ast.ClassDef) else ():
                    if isinstance(member, _DEFS):
                        tracked[id(member)] = (file, f"{top.name}.{member.name}")

        def walk(node, owners):
            if id(node) in tracked:
                owners = owners + (tracked[id(node)],)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id if isinstance(node, ast.Name) else node.attr,
                                 []).append(owners)
            for child in ast.iter_child_nodes(node):
                walk(child, owners)

        walk(tree, ())
        for key in tracked.values():
            name = key[1].rsplit(".", 1)[-1]
            if not (name.startswith("__") and name.endswith("__")):
                defs[key] = name

    unused = set()
    while True:
        dead = {key for key, name in defs.items() if key not in unused and not any(
            key not in owners and unused.isdisjoint(owners) for owners in loads.get(name, ()))}
        if not dead:
            return sorted(f"{file}:{qualname}" for file, qualname in unused)
        unused |= dead


def test_src_has_no_definition_reached_only_from_tests():
    paths = [*sorted((ROOT / "src" / "olepsi").rglob("*.py")),
             *sorted((ROOT / "benchmark").glob("*.py")),
             *sorted((ROOT / "scripts").glob("*.py"))]
    assert _unused_definitions(paths) == []


def _object_dtype_lines(source):
    """Lines of `source` that use numpy's object dtype: astype(object), a
    dtype=object keyword or np.object_. An `object` annotation is not a use."""
    def is_object(node):
        return isinstance(node, ast.Name) and node.id == "object"

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
                    and any(map(is_object, node.args))):
                lines.add(node.lineno)
            if any(kw.arg == "dtype" and is_object(kw.value) for kw in node.keywords):
                lines.add(node.lineno)
        if isinstance(node, ast.Attribute) and node.attr == "object_":
            lines.add(node.lineno)
    return sorted(lines)


def test_object_dtype_scan_sees_each_form():
    source = ("import numpy as np\n"
              "params: object = None\n"
              "def f(x: object) -> object:\n"
              "    return isinstance(x, object)\n"
              "a = np.arange(3).astype(object)\n"
              "b = np.empty(3, dtype=object)\n"
              "c = np.object_\n")
    assert _object_dtype_lines(source) == [5, 6, 7]


def test_src_has_no_object_arrays():
    # field data is numpy words and plain ints: no Python-int object arrays
    found = [f"{path.relative_to(ROOT).as_posix()}:{line}"
             for path in sorted((ROOT / "src" / "olepsi").rglob("*.py"))
             for line in _object_dtype_lines(path.read_text())]
    assert found == []


def _unread_attributes(src_paths, reader_paths):
    """Dataclass-style fields (annotated names in a class body) and self.X
    attributes assigned in src_paths whose name no ast.Attribute load in
    reader_paths reads, as "file:Class.name"."""
    assigned = {}  # (file, qualname) -> name
    for path in src_paths:
        file = path.relative_to(ROOT).as_posix()
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    assigned[(file, f"{cls.name}.{node.target.id}")] = node.target.id
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    assigned[(file, f"{cls.name}.{node.attr}")] = node.attr
    read = {node.attr for path in reader_paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{file}:{qualname}" for (file, qualname), name in assigned.items()
                  if name not in read)


def test_src_stores_no_attribute_that_nothing_reads():
    src = sorted((ROOT / "src" / "olepsi").rglob("*.py"))
    readers = [*src, *sorted((ROOT / "benchmark").glob("*.py")),
               *sorted((ROOT / "scripts").glob("*.py"))]
    assert _unread_attributes(src, readers) == []


def _olepsi_exceptions():
    """Every Exception subclass defined in a module of the olepsi package."""
    for info in pkgutil.walk_packages(olepsi.__path__, "olepsi."):
        importlib.import_module(info.name)
    found, todo = set(), [Exception]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.add(sub)
                todo.append(sub)
    return sorted((c for c in found if c.__module__.split(".")[0] == "olepsi"),
                  key=lambda c: f"{c.__module__}.{c.__qualname__}")


def test_every_exception_exits_through_a_documented_code(monkeypatch, capsys):
    errors = _olepsi_exceptions()
    assert {"ExpansionError", "TupleFileError", "UsageError"} <= {c.__name__ for c in errors}
    for error in errors:
        def raising(args, error=error):
            raise error("injected")

        monkeypatch.setattr(cli, "cmd_params", raising)
        assert cli.main(["params", "--n", "16"]) in (2, 3, 4), error
        assert capsys.readouterr().err == "error: injected\n", error


def _unused_imports(paths):
    """Names a module binds by import and never loads as an ast.Name, as
    "file:name" (for `import a.b`, the name a)."""
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "*" and name not in loaded:
                        unused.append(f"{path.relative_to(ROOT).as_posix()}:{name}")
    return unused


def test_tests_load_every_name_they_import():
    assert _unused_imports(sorted((ROOT / "tests").rglob("*.py"))) == []
