"""The filtration procedure is walked in one place: no module under
``src/quivercount`` other than ``stability`` calls
``maximal_destabilizing``, by name or as an attribute.  Every other
module reaches the procedure through ``stability.hn_chain`` or
``hn_filtration``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivercount"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "stability.py")


def destabilizer_calls(tree):
    """The line of every call of maximal_destabilizing in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name == "maximal_destabilizing":
                yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_stability_walks_the_filtration(path):
    calls = list(destabilizer_calls(ast.parse(path.read_text(encoding="utf-8"))))
    assert not calls, (f"{path.name} calls maximal_destabilizing on lines "
                       f"{calls}; use stability.hn_chain")


def test_destabilizer_calls_are_found():
    source = ("stability.maximal_destabilizing(M, theta)\n"
              "maximal_destabilizing(M, theta, max_tuples=1)\n"
              "f = maximal_destabilizing\n"
              "hn_chain(M, theta, 1, {})\n")
    assert list(destabilizer_calls(ast.parse(source))) == [1, 2]
