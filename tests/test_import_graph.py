"""The package's modules import each other at module level only, and
those imports form an acyclic graph: no module under ``src/quivercount``
imports a package module inside a function body, where an import cycle
could hide.  Imports of other packages, such as the stdlib
``concurrent.futures`` that ``classify_direct`` imports when it starts a
pool, are not checked."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivercount"
MODULES = sorted(PACKAGE.glob("*.py"))
NAMES = {path.stem for path in MODULES}


def package_imports(tree, names):
    """(line, imported module, inside a function) for every import of a
    package module; a name imported from the package itself that is no
    module in ``names`` comes from ``__init__``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(node, in_function):
        in_function = in_function or isinstance(node, functions)
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1 and node.module:
                yield node.lineno, parts[0], in_function
            elif (node.level == 1 and not node.module) or (
                    node.level == 0 and node.module == "quivercount"):
                for alias in node.names:
                    module = alias.name if alias.name in names else "__init__"
                    yield node.lineno, module, in_function
            elif node.level == 0 and parts[0] == "quivercount":
                yield node.lineno, parts[1], in_function
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "quivercount":
                    module = parts[1] if len(parts) > 1 else "__init__"
                    yield node.lineno, module, in_function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, in_function)

    yield from visit(tree, False)


def find_cycle(graph):
    """A list of modules that import each other in a ring, the first
    repeated at the end, or None when the graph is acyclic."""
    state = {}

    def walk(node, path):
        state[node] = "open"
        path.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                cycle = walk(nxt, path)
                if cycle:
                    return cycle
        state[node] = "done"
        path.pop()
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = walk(node, [])
            if cycle:
                return cycle
    return None


def _imports(path):
    return list(package_imports(ast.parse(path.read_text(encoding="utf-8")),
                                NAMES))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_package_import_inside_a_function(path):
    late = [(line, module) for line, module, inside in _imports(path)
            if inside]
    assert not late, f"{path.name} imports package modules late: {late}"


def test_module_level_imports_are_acyclic():
    graph = {path.stem: {module for _, module, inside in _imports(path)
                         if not inside and module != path.stem}
             for path in MODULES}
    assert graph["__init__"] >= {"rep", "strata", "exhaustive"}
    assert find_cycle(graph) is None, f"import cycle: {find_cycle(graph)}"


def test_imports_and_cycles_are_found():
    source = ("import os\n"
              "from . import rep, CountPolynomial\n"
              "from .strata import HNType\n"
              "import quivercount.linalg\n"
              "def classify():\n"
              "    from concurrent.futures import ProcessPoolExecutor\n"
              "    from quivercount import exhaustive\n")
    assert list(package_imports(ast.parse(source), {"rep", "exhaustive"})) == [
        (2, "rep", False), (2, "__init__", False), (3, "strata", False),
        (4, "linalg", False), (7, "exhaustive", True)]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == [
        "a", "b", "c", "a"]
