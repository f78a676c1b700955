"""One slope order: in ``src/quivercount`` every route compares slopes
through the integer ranks of ``quiver.slope_sets``, so ``slope`` is
called only where a Fraction is the point.  That is ``quiver`` itself,
which builds the rank table; ``class HNType`` in ``strata``, whose
``slopes`` the ``hn`` command prints; and ``class FiltrationCounter`` in
``exhaustive``, the uniqueness oracle, which keeps its own comparisons
so that it stays independent of the table it checks."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quivercount"

# module file name -> the classes of it that may call slope; None: all of it
ALLOWED = {"quiver.py": None, "strata.py": {"HNType"},
           "exhaustive.py": {"FiltrationCounter"}}


def is_slope_call(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "slope"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "slope")


def stray_slope_calls(tree, allowed_classes=frozenset()):
    """(line, text) of each call to ``slope`` outside the top-level
    classes named in ``allowed_classes``."""
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef) and stmt.name in allowed_classes:
            continue
        for node in ast.walk(stmt):
            if is_slope_call(node):
                yield node.lineno, ast.unparse(node)


def test_slope_is_called_only_where_a_fraction_is_the_point():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        allowed = ALLOWED.get(path.name, set())
        if allowed is None:
            continue
        tree = ast.parse(path.read_text())
        found += [(path.name, *hit) for hit in stray_slope_calls(tree, allowed)]
    assert not found, f"slopes compared outside quiver.slope_sets: {found}"


def test_a_stray_slope_call_is_found():
    tree = ast.parse("class HNType:\n    def f(self):\n        return slope(t, d)\n"
                     "def g(theta, e):\n    return quiver.slope(theta, e) > 0\n"
                     "class Other:\n    x = [slope(t, e) for e in es]\n")
    assert list(stray_slope_calls(tree, {"HNType"})) == [
        (5, "quiver.slope(theta, e)"), (7, "slope(t, e)")]
