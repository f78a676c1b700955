"""The bench harness imports names from the package, but its own tests
are not part of this suite; so a name deleted from the package would
break the harness unseen.  Every ``from quivercount... import`` in
``bench/*.py``, including the code strings it runs in child processes,
must name something that exists."""

import ast
import importlib
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
