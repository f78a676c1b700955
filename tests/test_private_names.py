"""A module of the package keeps its ``_``-prefixed names to itself: no
module under ``src/quivercount`` imports one from another package
module, or reads one as an attribute of a name it imported from the
package (``rep._space``, ``HNType._trusted``).  Dunder names such as
``__name__`` are not private."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivercount"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _from_package(node):
    return node.level > 0 or (node.module or "").split(".")[0] == "quivercount"


def private_uses(tree):
    """(line, text) for every private name the module takes from another
    package module."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            for alias in node.names:
                if _is_private(alias.name):
                    yield node.lineno, f"import {alias.name}"
                imported.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in imported:
                yield node.lineno, ast.unparse(node)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_of_another_module(path):
    uses = list(private_uses(ast.parse(path.read_text(encoding="utf-8"))))
    assert not uses, f"{path.name} uses private names of other modules: {uses}"


def test_private_uses_are_found():
    source = ("from .rep import _DIM, RepSpace\n"
              "from . import rep\n"
              "from .strata import HNType\n"
              "rep._space(1)\n"
              "HNType._trusted(2, 3)\n"
              "RepSpace.__name__\n"
              "self._coords\n")
    assert [text for _, text in private_uses(ast.parse(source))] == [
        "import _DIM", "rep._space", "HNType._trusted"]
