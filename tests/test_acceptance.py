"""Acceptance suite.

One test per criterion; each prints a single PASS line with its runtime
(visible with ``pytest -s`` or ``-rP``) and enforces the stated time
budget.  Everything is exact integer or rational arithmetic; there are
no tolerances anywhere.
"""

import subprocess
import sys
import time

from quivercount import (CountPolynomial, CountSamples, RepSpace,
                         classify_direct, classify_scan,
                         count_hn_filtrations,
                         enumerate_hn_types, enumerate_reps, field_table,
                         hn_filtration, kronecker, make_field,
                         moduli_count_poly, pg_order, rep_space_dim,
                         semistable_count_poly, stratum_count_poly,
                         strong_purity_check, torsor_orbit_count,
                         weak_purity_periodic_fit)
from quivercount.cli import main
from quivercount.purity import PERIODIC, STRONG

from conftest import a2_quiver, brute_force_filtrations, norm_one_torus_count

THETA = (1, 0)
T = CountPolynomial((0, 1))

# the exhaustively classified instances: (name, quiver, dims, field sizes)
INSTANCES = [
    ("K2 (1,1)", kronecker(2), (1, 1), (2, 3, 4, 5)),
    ("K3 (1,1)", kronecker(3), (1, 1), (2, 3, 4, 5)),
    ("A2 (1,1)", a2_quiver(), (1, 1), (2, 3, 4, 5)),
    ("K2 (2,3)", kronecker(2), (2, 3), (2, 3)),
]

K2_PROBLEM = "vertices 2\narrow 0 1\narrow 0 1\ndim 1 1\ntheta 1 0\n"
K2_22_PROBLEM = "vertices 2\narrow 0 1\narrow 0 1\ndim 2 2\ntheta 1 0\n"


class Budget:
    def __init__(self, seconds, label):
        self.seconds = seconds
        self.label = label
        self.start = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            f"criterion '{self.label}' took {elapsed:.2f}s, "
            f"budget {self.seconds}s")
        print(f"PASS {self.label} ({elapsed:.2f}s)")


def test_criterion_01_field_axioms():
    budget = Budget(1.0, "criterion 1: field axioms for q in {2,3,4,5,7,8,9,16}")
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        t = make_field(q)
        rng = range(q)
        for a in rng:
            assert t.add(a, 0) == a and t.mul(a, 1) == a
            row_add, row_mul = t.add_table[a], t.mul_table[a]
            for b in rng:
                ab, mab = row_add[b], row_mul[b]
                assert ab == t.add_table[b][a] and mab == t.mul_table[b][a]
                for c in rng:
                    assert t.add_table[ab][c] == row_add[t.add_table[b][c]]
                    assert t.mul_table[mab][c] == row_mul[t.mul_table[b][c]]
                    assert row_mul[t.add_table[b][c]] == \
                        t.add_table[mab][row_mul[c]]
            assert t.add(a, t.neg(a)) == 0
            if a:
                assert t.mul(a, t.inv(a)) == 1
    budget.finish()


def test_criterion_02_partition_identity():
    budget = Budget(30.0, "criterion 2: stratum counts partition every space")
    for name, quiver, dims, qs in INSTANCES:
        for q in qs:
            table = classify_scan(quiver, dims, THETA, field_table(q))
            assert table.total() == q**rep_space_dim(quiver, dims), \
                f"partition failed for {name} at q={q}"
    budget.finish()


def test_criterion_03_stratum_formula_lock():
    """The free-block convention of the stratum formula, checked entry by
    entry against the point-by-point classification of the 4096-point
    space.  A mismatch would mean a transposed convention and must fail
    the build."""
    budget = Budget(30.0, "criterion 3: stratum formula lock on K2 (2,3) at q=2")
    quiver, dims = kronecker(2), (2, 3)
    field = field_table(2)
    observed = classify_direct(quiver, dims, THETA, field)
    ss = {}
    for beta in enumerate_hn_types(quiver, dims, THETA):
        for piece in beta.pieces:
            if piece not in ss:
                ss[piece] = semistable_count_poly(quiver, piece, THETA)
        predicted = stratum_count_poly(quiver, beta, ss)(2)
        assert predicted == observed.get(beta, 0), (
            f"stratum formula transposed for {beta.key_str()}: "
            f"{predicted} != {observed.get(beta, 0)}")
    assert sum(observed.values()) == 4096
    budget.finish()


def test_criterion_04_hn_uniqueness():
    """Chain search over all filtrations with semistable subquotients and
    strictly decreasing slopes finds exactly one per representation,
    the computed one.

    The search is run literally on every representation of the small
    spaces and of the 4096-point space.  On the 531441-point space the
    same exhaustive search is organized per first step
    (count_hn_filtrations), which yields the exact filtration count of
    every point; the procedure's output is additionally compared on a
    deterministic sample of points there.
    """
    budget = Budget(60.0, "criterion 4: the computed filtration is the only one")
    for name, quiver, dims, qs in INSTANCES:
        for q in qs:
            if (name, q) == ("K2 (2,3)", 3):
                continue
            field = field_table(q)
            for M in enumerate_reps(quiver, dims, field):
                found = brute_force_filtrations(M, THETA)
                filt, _ = hn_filtration(M, THETA)
                assert len(found) == 1, f"{name} q={q}: {len(found)} filtrations"
                assert found[0] == tuple(filt.steps[1:])
    # the large space: exact count for every point, sampled equality
    quiver, dims, q = kronecker(2), (2, 3), 3
    field = field_table(q)
    counts = count_hn_filtrations(quiver, dims, THETA, field)
    assert len(counts) == 3**12
    assert all(c == 1 for c in counts)
    space = RepSpace(quiver, dims, field)
    for idx in range(0, space.point_count, 4096):
        M = space.rep(idx)
        found = brute_force_filtrations(M, THETA)
        filt, _ = hn_filtration(M, THETA)
        assert found == [tuple(filt.steps[1:])]
    budget.finish()


def test_criterion_05_moduli_polynomials():
    budget = Budget(10.0, "criterion 5: moduli polynomials and orbit counts")
    expected = [
        (kronecker(2), (1, 1), T + 1),
        (kronecker(3), (1, 1), T * T + T + 1),
        (a2_quiver(), (1, 1), CountPolynomial.one()),
    ]
    for quiver, dims, poly in expected:
        computed = moduli_count_poly(quiver, dims, THETA)
        assert computed == poly
        assert computed.has_integer_coeffs()
        assert computed.has_nonnegative_coeffs()
        for q in (2, 3, 4, 5):
            orbits = torsor_orbit_count(quiver, dims, THETA, field_table(q))
            assert computed(q) == orbits
    budget.finish()


def test_criterion_06_torsor_divisibility():
    """On every coprime instance the stable count is divisible by the
    order of the acting group modulo its central torus (the divisibility
    is asserted inside torsor_orbit_count)."""
    budget = Budget(10.0, "criterion 6: torsor divisibility on coprime instances")
    from quivercount import coprime_witness

    for name, quiver, dims, qs in INSTANCES:
        if coprime_witness(dims, THETA) is not None:
            continue
        for q in qs:
            if q > 5:
                continue
            field = field_table(q)
            orbits = torsor_orbit_count(quiver, dims, THETA, field)
            table = classify_scan(quiver, dims, THETA, field)
            assert orbits * pg_order(dims, q) == table.trivial_count()
    budget.finish()


def test_criterion_07_polynomial_in_prime_power_tower():
    """Orbit counts of the projective-line moduli over F_2 and F_4 fit the
    single polynomial q + 1."""
    budget = Budget(5.0, "criterion 7: counts over F_2, F_4 fit q + 1")
    quiver, dims = kronecker(2), (1, 1)
    counts = []
    for n in (1, 2):
        field = field_table(2**n)
        counts.append((n, torsor_orbit_count(quiver, dims, THETA, field)))
    report = strong_purity_check(CountSamples(2, tuple(counts)), 1)
    assert report.verdict == STRONG
    assert report.polynomials[0] == T + 1
    for n, count in counts:
        assert report.polynomials[0](2**n) == count
    budget.finish()


def test_criterion_08_weak_purity_periodic_fit():
    budget = Budget(5.0, "criterion 8: norm-one torus fits period 2")
    counts = tuple((n, norm_one_torus_count(n)) for n in range(1, 5))
    assert [c for _, c in counts] == [3, 3, 9, 15]
    report = weak_purity_periodic_fit(CountSamples(2, counts), 2, 1)
    assert report.verdict == PERIODIC
    assert report.period == 2
    assert report.polynomials == (T - 1, T + 1)
    budget.finish()


def test_criterion_09_coprimality_gate(tmp_path, capsys):
    budget = Budget(5.0, "criterion 9: non-coprime moduli request exits with code 4")
    path = tmp_path / "k2_22.problem"
    path.write_text(K2_22_PROBLEM, encoding="utf-8")
    code = main(["moduli-poly", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "not coprime" in captured.err
    budget.finish()


def test_criterion_10_verify_is_deterministic(tmp_path):
    budget = Budget(30.0, "criterion 10: verify --qmax 3 is byte-identical")
    path = tmp_path / "k2.problem"
    path.write_text(K2_PROBLEM, encoding="utf-8")
    runs = [
        subprocess.run(
            [sys.executable, "-m", "quivercount.cli", "verify", str(path),
             "--qmax", "3", "--threads", "1"],
            capture_output=True, check=True)
        for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith(b"verify: all checks passed\n")
    budget.finish()
