"""The scan's inner loops stay bare: in ``exhaustive``, a loop over a
row's ``last`` list runs once per preserved point, so a statement of its
body outside an ``if`` (the rare branches) may read locals, index and add,
but may call nothing and read no attribute, which would be a per-point
method or counter call (``self.x``, ``stats.add(...)``).  Each index it
takes is a bare name: a row reads its points through views that start at
the row's offsets, so ``type_ids[i0 + i]`` would be a per-point
addition the views exist to save."""

import ast
from pathlib import Path

SOURCE = (Path(__file__).resolve().parent.parent / "src" / "quivercount"
          / "exhaustive.py")


def hot_loops(tree):
    """Every ``for ... in last`` loop of the module."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.For)
            and isinstance(node.iter, ast.Name) and node.iter.id == "last"]


def per_point_work(loop):
    """(line, text) of each call, attribute read or subscript whose index
    is not a bare name in a statement of the loop's body that is not an
    ``if``."""
    for stmt in loop.body:
        if isinstance(stmt, ast.If):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Call, ast.Attribute)) or (
                    isinstance(node, ast.Subscript)
                    and not isinstance(node.slice, ast.Name)):
                yield node.lineno, ast.unparse(node)


def test_hot_loops_call_nothing():
    loops = hot_loops(ast.parse(SOURCE.read_text()))
    assert len(loops) >= 2  # the classifier's and the filtration oracle's
    found = [hit for loop in loops for hit in per_point_work(loop)]
    assert not found, f"per-point calls, attribute reads or index sums: {found}"


def test_an_attribute_read_in_a_hot_loop_is_found():
    tree = ast.parse("for i, x in last:\n    idx = i0 + i\n    y = self.x\n"
                     "    if idx:\n        stats.add(idx)\n")
    assert [list(per_point_work(loop)) for loop in hot_loops(tree)] == [
        [(3, "self.x")]]


def test_an_index_sum_in_a_hot_loop_is_found():
    tree = ast.parse("for i, x in last:\n    claimed = here[i]\n"
                     "    type_ids[i0 + i] = lift[pairs[x]]\n"
                     "    if claimed:\n        raise E(type_ids[i0 + i])\n")
    assert [list(per_point_work(loop)) for loop in hot_loops(tree)] == [
        [(3, "type_ids[i0 + i]"), (3, "lift[pairs[x]]")]]
