"""The bench harness imports names from the package, but its own tests
are not part of this suite; so a name deleted from the package, or a
changed signature, would break the harness unseen.  Every ``from
quivercount... import`` in ``bench/*.py``, including the code strings it
runs in child processes, must name something that exists, and every
call there to such a name, or to an attribute of such a module, must
bind to the signature it has now."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _package_imports(tree):
    """(module, name) for every name imported from the package, also
    from string constants that parse as Python code."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "quivercount"):
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value)
            except SyntaxError:
                continue
            yield from _package_imports(inner)


BENCH_IMPORTS = [(path.name, module, name)
                 for path in sorted(BENCH.glob("*.py"))
                 for module, name in _package_imports(
                     ast.parse(path.read_text(encoding="utf-8")))]


@pytest.mark.parametrize(
    "module,name", [(module, name) for _, module, name in BENCH_IMPORTS],
    ids=[f"{path}:{module}.{name}" for path, module, name in BENCH_IMPORTS])
def test_bench_imports_exist(module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"bench imports {name} from {module}, which no longer has it")


def test_bench_imports_are_found():
    # the harness and the code string its set-up children run
    found = {(path, module) for path, module, _ in BENCH_IMPORTS}
    assert {("replay.py", "quivercount"),
            ("run.py", "quivercount.ffield")} <= found


def _trees(path):
    """The module's syntax tree, then those of its string constants that
    parse as Python code."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                continue


def _package_calls(tree):
    """(line, callee name, callee, positional count, keyword names) for
    every call to a name imported from the package or to an attribute of
    an imported package module; calls with * or ** cannot be bound from
    the source alone and are skipped."""
    imported = {}
    for module, name in _package_imports(tree):
        imported[name] = getattr(importlib.import_module(module), name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            label, callee = func.id, imported[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and inspect.ismodule(imported.get(func.value.id))):
            label = f"{func.value.id}.{func.attr}"
            callee = getattr(imported[func.value.id], func.attr)
        else:
            continue
        if (any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None for k in node.keywords)):
            continue
        yield (node.lineno, label, callee, len(node.args),
               tuple(k.arg for k in node.keywords))


BENCH_CALLS = [(path.name, *call)
               for path in sorted(BENCH.glob("*.py"))
               for tree in _trees(path)
               for call in _package_calls(tree)]


@pytest.mark.parametrize(
    "callee,positional,keywords",
    [call[3:] for call in BENCH_CALLS],
    ids=[f"{path}:{line}:{label}" for path, line, label, *_ in BENCH_CALLS])
def test_bench_calls_bind(callee, positional, keywords):
    inspect.signature(callee).bind(*[None] * positional,
                                   **dict.fromkeys(keywords))


def test_bench_calls_are_found():
    labels = {(path, label) for path, _, label, *_ in BENCH_CALLS}
    assert {("replay.py", "classify_direct"), ("replay.py", "ScanClassifier"),
            ("run.py", "parse_problem")} <= labels
