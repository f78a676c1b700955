"""The package counts exactly: no float enters ``src/quivercount``.

The scan fails on a float or complex literal, a ``float(...)`` call, and
any name taken from ``math`` other than its exact integer functions,
whether imported by name or read as an attribute of the module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivercount"
EXACT_MATH = {"prod", "comb", "perm", "gcd", "lcm", "isqrt", "factorial"}


def inexact_uses(source):
    """(line, text) of every float or complex literal, float(...) call and
    inexact math name in ``source``, in line order."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name not in EXACT_MATH]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules and node.attr not in EXACT_MATH):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_exactness_scan_on_a_snippet():
    source = ("import math\nimport math as m\n"
              "from math import comb, log2, prod\nfrom math import *\n"
              "x = 0.5 + 2j + 1e3\ny = float('3')\n"
              "z = math.sqrt(2) + m.floor(1) + math.isqrt(9) + m.gcd(4, 6)\n"
              "w = comb(4, 2) + prod([]) + 7 // 2 + int('3')\n")
    assert inexact_uses(source) == [
        (3, "log2"), (4, "*"), (5, "0.5"), (5, "1000.0"), (5, "2j"),
        (6, "float"), (7, "m.floor"), (7, "math.sqrt")]


def test_the_package_is_exact():
    found = {path.name: inexact_uses(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
