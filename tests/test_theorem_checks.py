"""Every theorem check in the package fires in some test.

A check is a ``raise TheoremViolation(...)``; each test below breaks
one identity on purpose, by a monkeypatch or a forged input, and
asserts the check's message (exit code 5 on the command line).  The
last test lists every check in ``src/quivercount`` and fails for one
that no test fires, so a new check comes with its firing test."""

import ast
import re
from pathlib import Path

import pytest

from quivercount import (CountPolynomial, RepSpace, TheoremViolation,
                         classify_scan, counting, group_order_poly, kronecker,
                         maximal_destabilizing, moduli_count_poly,
                         torsor_orbit_count, trivial_type)
from quivercount import cli, stability
from quivercount.cli import main
from quivercount.counting import moduli_poly_from_semistable

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "quivercount"
THETA = (1, 0)

K2_PROBLEM = """\
vertices 2
arrow 0 1
arrow 0 1
dim 1 1
theta 1 0
"""


# ---------------------------------------------------------------------------
# the library's checks


def _only(bases_by_dims):
    """An enumerate_subreps that yields just the tuples with the given
    RREF bases (keyed by dimension vector) among the real ones."""
    real = stability.enumerate_subreps

    def enumerate_subreps(M, max_tuples, admissible):
        return [S for S in real(M, max_tuples=max_tuples, admissible=admissible)
                if S.bases in bases_by_dims.get(S.dims, ())]
    return enumerate_subreps


def test_maximal_destabilizing_rejects_two_maximizers(f2, monkeypatch):
    # two lines of GF(2)^2 at vertex 0, each of the top slope and size
    lines = [(((1, 0),), ()), (((0, 1),), ())]
    monkeypatch.setattr(stability, "enumerate_subreps",
                        _only({(1, 0): lines}))
    M = RepSpace(kronecker(2), (2, 1), f2).rep(0)
    with pytest.raises(TheoremViolation, match=re.escape(
            "non-unique maximal destabilizing subrepresentation (dims "
            "[(1, 0), (1, 0)])")):
        maximal_destabilizing(M, THETA)


def test_maximal_destabilizing_must_contain_every_equal_slope_sub(
        f2, monkeypatch):
    # a plane of GF(2)^3 and a line outside it, both of slope 1
    plane = (((1, 0, 0), (0, 1, 0)), ())
    line = (((0, 0, 1),), ())
    monkeypatch.setattr(stability, "enumerate_subreps",
                        _only({(2, 0): [plane], (1, 0): [line]}))
    M = RepSpace(kronecker(2), (3, 1), f2).rep(0)
    with pytest.raises(TheoremViolation, match=re.escape(
            "maximal destabilizing subrepresentation does not contain a "
            "subrepresentation of equal slope (dims (1, 0))")):
        maximal_destabilizing(M, THETA)


def test_moduli_polynomial_rejects_an_inexact_division():
    # (q - 1) * 1 is no multiple of |G_(1,1)| = (q - 1)^2
    with pytest.raises(TheoremViolation, match=re.escape(
            "(q-1)*|R^ss| not divisible by the group order for (1, 1)")):
        moduli_poly_from_semistable((1, 1), THETA, CountPolynomial((1,)))


def test_moduli_polynomial_rejects_non_integer_coefficients(monkeypatch):
    # a group order of 2 |G| divides exactly over the rationals, and
    # halves the moduli polynomial q + 1 of K2 (1, 1)
    monkeypatch.setattr(counting, "group_order_poly",
                        lambda dims: 2 * group_order_poly(dims))
    with pytest.raises(TheoremViolation, match=re.escape(
            "moduli counting polynomial has non-integer coefficients: ")):
        moduli_count_poly(kronecker(2), (1, 1), THETA)


def test_torsor_count_rejects_an_indivisible_stable_count(f3):
    # one point too many in the 8 stable points of K2 (1, 1) at q = 3,
    # where |PG| = 2
    table = classify_scan(kronecker(2), (1, 1), THETA, f3)
    table.counts[trivial_type(THETA, (1, 1))] += 1
    with pytest.raises(TheoremViolation, match=re.escape(
            "|R^s| = 9 is not divisible by |PG| = 2 at q = 3")):
        torsor_orbit_count(kronecker(2), (1, 1), THETA, f3, table=table)


# ---------------------------------------------------------------------------
# the command line's checks


def _scan_with(change):
    """A classify_scan whose table is edited by ``change`` (the counts by
    type, and the types in sorted order) before the CLI checks it."""
    def classify(*args, **kwargs):
        table = classify_scan(*args, **kwargs)
        change(table.counts, [beta for beta, _ in table.sorted_items()])
        return table
    return classify


def _add_point(counts, types):
    counts[types[0]] += 1


def _move_point(counts, types):
    counts[types[0]] -= 1
    counts[types[1]] += 1


@pytest.mark.parametrize("argv,name,patch,message", [
    (["count-reps", "--brute", "2"], "enumerate_reps",
     lambda *args, **kwargs: iter(()),
     "brute count 0 != polynomial value 4"),
    (["stratify", "--q", "2"], "classify_scan", _scan_with(_add_point),
     "partition failed at q=2: 5 != 4"),
    (["stratify", "--q", "2"], "classify_scan", _scan_with(_move_point),
     "stratum formula for 1,1 at q=2 predicts 3, classification found 2"),
    (["verify", "--qmax", "2"], "classify_direct",
     lambda *args, **kwargs: {}, "engines disagree at q=2"),
    (["verify", "--qmax", "2"], "torsor_orbit_count",
     lambda *args, **kwargs: 0, "moduli polynomial at q=2: 3 != 0 orbits"),
], ids=["brute-count", "partition", "stratum-formula", "engines", "moduli"])
def test_cli_theorem_checks_exit_5(tmp_path, monkeypatch, capsys, argv, name,
                                   patch, message):
    path = tmp_path / "k2.problem"
    path.write_text(K2_PROBLEM, encoding="utf-8")
    monkeypatch.setattr(cli, name, patch)
    assert main([argv[0], str(path), *argv[1:]]) == 5
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# the guard


def _literal_parts(call):
    """The literal pieces of a check's message, which must start with
    one: the leading literal, the text before its first field."""
    (arg,) = call.args
    parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
    assert isinstance(parts[0], ast.Constant) and parts[0].value, (
        f"line {call.lineno}: a check's message starts with a literal")
    return [p.value for p in parts if isinstance(p, ast.Constant)]


class _Checks(ast.NodeVisitor):
    """(module, enclosing function, literal parts) for every ``raise
    TheoremViolation(...)`` of a module."""

    def __init__(self, module):
        self.module, self.scope, self.found = module, [], []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = _enter

    def visit_Raise(self, node):
        call = node.exc
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "TheoremViolation"):
            self.found.append((self.module, ".".join(self.scope),
                               _literal_parts(call)))


def _theorem_checks():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = _Checks(path.stem)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += visitor.found
    return found


def _test_strings():
    """Every string a test function holds (its decorators included, its
    docstring not), with regex escapes removed, so that ``re.escape``
    and raw patterns read as the text they match."""
    found = set()
    for path in sorted(TESTS.glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.FunctionDef)
                    and node.name.startswith("test_")):
                continue
            docstring = ast.get_docstring(node, clean=False)
            for inner in ast.walk(node):
                if (isinstance(inner, ast.Constant)
                        and isinstance(inner.value, str)
                        and inner.value != docstring):
                    found.add(re.sub(r"\\(.)", r"\1", inner.value))
    return found


FRAGMENT = 12  # the shortest piece of a message a test may match alone


def test_every_theorem_check_fires_in_a_test():
    """A check counts as fired when a test holds a string that contains
    the check's leading literal, or a piece of at least FRAGMENT
    characters of one of its literal parts, as ``match="negative
    coefficient"`` does.  Checks that share a leading literal (the
    slope checks of the scan and of hn_chain) are not told apart."""
    checks = _theorem_checks()
    assert {module for module, *_ in checks} >= {
        "cli", "counting", "exhaustive", "stability"}
    strings = _test_strings()
    unfired = [f"{module}.{function}: {parts[0]!r}"
               for module, function, parts in checks
               if not any(parts[0] in s or (len(s) >= FRAGMENT and any(
                   s in part for part in parts)) for s in strings)]
    assert unfired == [], "theorem checks that no test fires:\n" + "\n".join(
        unfired)
