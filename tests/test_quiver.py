from fractions import Fraction
from itertools import product
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
import pytest

from quivercount import (CountPolynomial, HNType, Quiver, RepSpace,
                         classify_direct, coprime_witness, enumerate_hn_types,
                         field_table, first_piece_factor, gl_order,
                         gl_order_poly, group_order_poly, hn_filtration,
                         is_semistable, is_stable, kronecker,
                         maximal_destabilizing, moduli_count_poly, pg_order,
                         rep_count_poly, rep_space_dim, semistable_count_poly,
                         semistable_count_polys, slope, stratum_count_poly)
from quivercount.exhaustive import ScanClassifier
from quivercount.quiver import nonzero_subvectors, slope_sets

from conftest import a2_quiver

Q = CountPolynomial((0, 1))


def test_quiver_validation():
    with pytest.raises(ValueError):
        Quiver(2, ((0, 2),))
    with pytest.raises(ValueError):
        Quiver(0, ())
    loop = Quiver(1, ((0, 0),))
    assert loop.arrows == ((0, 0),)
    assert kronecker(3).arrows == ((0, 1),) * 3


K2 = kronecker(2)
NOT_INT, NEGATIVE = "not an int", "entry -1, not an int >= 0"
LENGTH, DIFFER = "length 3", "differ in length"
# a semistable count of one for each piece of a type over three vertices
ONES = {(1, 0, 0): CountPolynomial.one(), (0, 1, 0): CountPolynomial.one()}

# each entry point with a vector holding a non-int, a dimension vector
# with a negative entry, or a vector (the character included) whose
# length is not the vertex count
BAD_VECTORS = [
    ("quiver-vertex-count", lambda: Quiver(2.0, ()), NOT_INT),
    ("quiver-arrow-float", lambda: Quiver(2, ((0.9, 1),)), NOT_INT),
    ("quiver-arrow-str", lambda: Quiver(2, (("0", 1),)), NOT_INT),
    ("hn-type-theta", lambda: HNType((1.5, 0), ((1, 0),)), NOT_INT),
    ("hn-type-piece", lambda: HNType((1, 0), ((1.0, 0),)), NOT_INT),
    ("hn-type-negative-piece", lambda: HNType((1, 0), ((2, -1),)), NEGATIVE),
    ("space-float", lambda: RepSpace(K2, (2.7, 3), field_table(2)), NOT_INT),
    ("space-str", lambda: RepSpace(K2, ("2", 3), field_table(2)), NOT_INT),
    ("space-negative", lambda: RepSpace(K2, (-1, 2), field_table(2)),
     NEGATIVE),
    ("hn-types-negative", lambda: enumerate_hn_types(K2, (-1, 2), (1, 0)),
     NEGATIVE),
    ("hn-types-theta", lambda: enumerate_hn_types(K2, (1, 2), (1, 0.5)),
     NOT_INT),
    ("hn-types-length", lambda: enumerate_hn_types(K2, (1, 2, 3), (1, 0)),
     LENGTH),
    ("semistable-polys-negative",
     lambda: semistable_count_polys(K2, (-1, 2), (1, 0)), NEGATIVE),
    ("semistable-polys-theta",
     lambda: semistable_count_polys(K2, (1, 2), ("1", 0)), NOT_INT),
    ("semistable-poly-negative",
     lambda: semistable_count_poly(K2, (-1, 2), (1, 0)), NEGATIVE),
    ("semistable-poly-length",
     lambda: semistable_count_poly(K2, (1, 2, 1), (1, 0)), LENGTH),
    ("moduli-float", lambda: moduli_count_poly(K2, (1.0, 2), (1, 0)),
     NOT_INT),
    ("moduli-negative", lambda: moduli_count_poly(K2, (-1, 2), (1, 0)),
     NEGATIVE),
    ("moduli-length", lambda: moduli_count_poly(K2, (1, 1, 0), (1, 0)),
     LENGTH),
    ("hn-types-theta-length",
     lambda: enumerate_hn_types(K2, (1, 2), (1, 0, 5)), LENGTH),
    ("semistable-poly-theta-length",
     lambda: semistable_count_poly(K2, (1, 2), (1, 0, 5)), LENGTH),
    ("moduli-theta-length", lambda: moduli_count_poly(K2, (1, 2), (1, 0, 5)),
     LENGTH),
    ("scan-theta", lambda: ScanClassifier(K2, (1, 0.0), field_table(2)),
     NOT_INT),
    ("scan-theta-length",
     lambda: ScanClassifier(K2, (1, 0, 5), field_table(2)), LENGTH),
    ("direct-theta-length",
     lambda: classify_direct(K2, (1, 2), (1, 0, 5), field_table(2)), LENGTH),
    # zip would drop the extra entries of the longer vector
    ("coprime-witness-theta-short", lambda: coprime_witness((2, 2), (1,)),
     DIFFER),
    ("coprime-witness-theta-length",
     lambda: coprime_witness([2, 2], [1, 0, 5]), DIFFER),
    ("slope-length", lambda: slope((1,), (2, 2)), DIFFER),
    ("slope-sets-length", lambda: slope_sets((1,), (2, 2)), DIFFER),
    ("stratum-count-length",
     lambda: stratum_count_poly(
         K2, HNType((1, 0, 0), ((1, 0, 0), (0, 1, 0))), ONES), LENGTH),
    ("first-piece-length",
     lambda: first_piece_factor(K2, (1, 1, 5), (1, 0, 2)), LENGTH),
    ("rep-count-length", lambda: rep_count_poly(K2, (1,)), "length 1"),
] + [
    # the per-point functions, at a point whose search would drop the
    # extra entry
    (f"{check.__name__}-theta-length",
     lambda check=check: check(RepSpace(K2, (1, 2), field_table(2)).rep(0),
                               (1, 0, 5)), LENGTH)
    for check in (maximal_destabilizing, hn_filtration, is_stable,
                  is_semistable)
]


@pytest.mark.parametrize("make,message", [case[1:] for case in BAD_VECTORS],
                         ids=[case[0] for case in BAD_VECTORS])
def test_vectors_are_checked_at_every_entry_point(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_slope_examples():
    assert slope((1, 0), (1, 1)) == Fraction(1, 2)
    assert slope((1, 0), (1, 0)) == 1
    assert slope((1, 0), (0, 1)) == 0
    with pytest.raises(ValueError):
        slope((1, 0), (0, 0))


def test_slope_scaling_invariance():
    for theta in product(range(-2, 3), repeat=2):
        for d in product(range(3), repeat=2):
            if sum(d) == 0:
                continue
            for k in (1, 2, 3):
                kd = tuple(k * x for x in d)
                assert slope(theta, kd) == slope(theta, d)


def test_rep_space_dim():
    assert rep_space_dim(kronecker(2), (1, 1)) == 2
    assert rep_space_dim(kronecker(2), (2, 3)) == 12
    assert rep_space_dim(Quiver(1, ()), (5,)) == 0
    assert rep_space_dim(Quiver(1, ((0, 0),)), (3,)) == 9


def test_gl_order_small():
    assert gl_order(1, 5) == 4
    assert gl_order(2, 2) == 6
    assert gl_order(0, 7) == 1


def test_gl_order_against_brute_force():
    # invertibility of a 2x2 matrix over GF(3) decided by the determinant
    count = 0
    for a, b, c, d in product(range(3), repeat=4):
        if (a * d - b * c) % 3 != 0:
            count += 1
    assert count == 48
    assert gl_order(2, 3) == 48


def test_group_order_poly_examples():
    assert group_order_poly((1, 1)) == (Q - 1) * (Q - 1)
    assert group_order_poly((2, 0)) == (Q * Q - 1) * (Q * Q - Q)
    assert group_order_poly((2, 3))(2) == 6 * 168


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_group_order_poly_matches_gl_order(q):
    for dims in [(1, 1), (2, 0), (2, 3), (0, 2), (3, 1)]:
        expected = 1
        for d in dims:
            expected *= gl_order(d, q)
        assert group_order_poly(dims)(q) == expected
        for d in dims:
            assert gl_order_poly(d)(q) == gl_order(d, q)


def test_a2_shape():
    q = a2_quiver()
    assert q.vertex_count == 2
    assert q.arrows == ((0, 1),)


@pytest.mark.parametrize("make,message", [
    (lambda: gl_order(-1, 2), "negative matrix size"),
    (lambda: gl_order(2, 1), "q must be at least 2"),
    (lambda: pg_order((0, 0), 2), "no central torus to quotient by"),
], ids=["gl-negative-size", "gl-q-below-2", "pg-zero-vector"])
def test_group_orders_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# Hypothesis caches the constants it reads from source files while tests
# are collected; keep that cache out of the working tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@st.composite
def characters_and_vectors(draw):
    """theta in [-5, 5]^n and a nonzero dims in [0, 3]^n, n <= 3."""
    n = draw(st.integers(1, 3))
    theta = tuple(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                      .filter(any)))
    return theta, dims


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(characters_and_vectors())
def test_slope_sets_order_as_the_fractions_do(problem):
    theta, dims = problem
    ranks, mu, above, upper = slope_sets(theta, dims)
    subs = list(nonzero_subvectors(dims))
    mus = {e: slope(theta, e) for e in subs}
    assert list(ranks) == subs
    for e, f in product(subs, repeat=2):
        assert (ranks[e] < ranks[f]) == (mus[e] < mus[f])
    assert mu == ranks[dims]
    assert above == {e for e in subs if mus[e] > mus[dims]}
    assert upper == {e for e in subs if e != dims and mus[e] >= mus[dims]}
    assert coprime_witness(dims, theta) == next(
        (e for e in subs if e != dims and mus[e] == mus[dims]), None)


def test_slope_sets_reject_the_zero_vector():
    with pytest.raises(ValueError, match="zero dimension vector"):
        slope_sets((1, 0), (0, 0))
    with pytest.raises(ValueError, match="zero dimension vector"):
        coprime_witness((0, 0), (1, 0))
