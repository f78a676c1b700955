from fractions import Fraction

import pytest

from quivercount import (BudgetExceeded, CoprimalityError, CountPolynomial,
                         HNType, Quiver, TheoremViolation, classify_scan,
                         coprime_witness, counting, enumerate_hn_types,
                         enumerate_reps, field_table, first_piece_factor,
                         gl_order, group_order_poly, kronecker,
                         moduli_count_poly, nonzero_subvectors, rep_count_poly,
                         rep_space_dim, semistable_count_poly,
                         semistable_count_polys, slope, stratum_count_poly,
                         stratum_formula, torsor_orbit_count, trivial_type)
from quivercount.counting import moduli_poly_from_semistable

from conftest import a2_quiver

THETA = (1, 0)
Q = CountPolynomial((0, 1))


def test_rep_count_poly():
    assert rep_count_poly(kronecker(2), (1, 1)) == Q * Q
    assert rep_count_poly(kronecker(2), (2, 3)) == CountPolynomial.monomial(12)
    brute = sum(1 for _ in enumerate_reps(kronecker(2), (2, 3), field_table(2)))
    assert rep_count_poly(kronecker(2), (2, 3))(2) == brute == 4096


def test_trivial_stratum_formula_is_identity():
    beta = trivial_type(THETA, (2, 3))
    marker = CountPolynomial((7, 3, 1))
    assert stratum_count_poly(kronecker(2), beta, {(2, 3): marker}) == marker
    formula = stratum_formula(kronecker(2), beta, {(2, 3): marker})
    assert formula.factors == (marker,)


def test_k2_11_unstable_stratum_is_a_point():
    beta = HNType(THETA, ((1, 0), (0, 1)))
    ones = {(1, 0): CountPolynomial.one(), (0, 1): CountPolynomial.one()}
    assert stratum_count_poly(kronecker(2), beta, ones) == CountPolynomial.one()
    assert first_piece_factor(kronecker(2), (1, 1), (1, 0)) == \
        CountPolynomial.one()


def test_fiber_exponent_counts_upper_blocks():
    # pieces (1,1) then (1,2): each arrow contributes d^2_0 * d^1_1 = 1
    # free entry from the rest (1,2) into the first piece (1,1)
    flags = (Q + 1) * (Q * Q + Q + 1)
    assert first_piece_factor(kronecker(2), (2, 3), (1, 1)) == flags * Q * Q
    assert first_piece_factor(a2_quiver(), (2, 3), (1, 1)) == flags * Q


def test_parabolic_and_flag_factors():
    # vertex 0 flag (1,1) and vertex 1 flag (1,2); with no arrows the
    # first-piece factor is the flag count alone, |G| / |parabolic|
    parabolic = (Q * (Q - 1) * (Q - 1)) * \
        (Q * Q * (Q - 1) * (Q * Q - 1) * (Q * Q - Q))
    flags = first_piece_factor(Quiver(2, ()), (2, 3), (1, 1))
    assert flags == (Q + 1) * (Q * Q + Q + 1)
    assert flags * parabolic == group_order_poly((2, 3))


def test_first_piece_factor():
    assert first_piece_factor(kronecker(2), (2, 3), (2, 3)) == \
        CountPolynomial.one()
    assert first_piece_factor(Quiver(2, ()), (2, 3), (0, 0)) == \
        CountPolynomial.one()


def test_stratum_formula_missing_piece():
    beta = HNType(THETA, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        stratum_count_poly(kronecker(2), beta, {(1, 0): CountPolynomial.one()})


def test_stratum_formula_stops_at_a_zero_piece():
    # no semistable point of (1,0) means an empty stratum; the later
    # piece is never read
    beta = HNType(THETA, ((1, 0), (0, 1)))
    formula = stratum_formula(kronecker(2), beta,
                              {(1, 0): CountPolynomial.zero()})
    assert formula.factors == (CountPolynomial.zero(),)
    assert formula.polynomial() == CountPolynomial.zero()


def test_semistable_polynomials():
    assert semistable_count_poly(kronecker(2), (1, 1), THETA) == Q * Q - 1
    assert semistable_count_poly(a2_quiver(), (1, 1), THETA) == Q - 1
    assert semistable_count_poly(kronecker(2), (2, 3), (0, 0)) == \
        rep_count_poly(kronecker(2), (2, 3))


def test_semistable_count_polys_cover_every_piece():
    polys = semistable_count_polys(kronecker(2), (2, 3), THETA)
    pieces = {piece for beta in enumerate_hn_types(kronecker(2), (2, 3), THETA)
              for piece in beta.pieces}
    assert (2, 3) in pieces and pieces <= set(polys)
    for d, poly in polys.items():
        assert poly == semistable_count_poly(kronecker(2), d, THETA)


def test_counting_polynomials_have_int_coefficients():
    # integral coefficients are plain ints, never Fraction(n, 1)
    quiver, dims = kronecker(3), (2, 3)
    ss = semistable_count_polys(quiver, dims, THETA)
    polys = [semistable_count_poly(quiver, dims, THETA),
             moduli_count_poly(quiver, dims, THETA), group_order_poly(dims)]
    polys += [stratum_count_poly(quiver, beta, ss)
              for beta in enumerate_hn_types(quiver, dims, THETA)]
    for poly in polys:
        assert poly.coeffs and all(type(c) is int for c in poly.coeffs), poly


def _euler_form(quiver, a, b):
    return (sum(x * y for x, y in zip(a, b))
            - sum(a[i] * b[j] for (i, j) in quiver.arrows))


def _resolved_semistable_count(quiver, dims, theta, q):
    """Reineke's resolved formula (Invent. Math. 2003) at one integer q:
    a signed sum over ordered decompositions d = d^1 + ... + d^s whose
    partial sums d^1 + ... + d^k (k < s) all have slope above that of d,
    with no recursion through smaller semistable counts."""
    mu = slope(theta, dims)

    def order(e):
        out = 1
        for n in e:
            out *= gl_order(n, q)
        return out

    total = Fraction(0)

    def walk(done, sign, weight):
        nonlocal total
        rest = tuple(d - x for d, x in zip(dims, done))
        for e in nonzero_subvectors(rest):
            w = (weight * Fraction(q**rep_space_dim(quiver, e), order(e))
                 / Fraction(q)**_euler_form(quiver, e, done))
            now = tuple(x + y for x, y in zip(done, e))
            if now == dims:
                total += sign * w
            elif slope(theta, now) > mu:
                walk(now, -sign, w)

    walk((0,) * len(dims), 1, Fraction(1))
    return total * order(dims)


@pytest.mark.parametrize("quiver,dims,theta", [
    (kronecker(2), (1, 1), THETA),
    (kronecker(2), (2, 3), THETA),
    (kronecker(3), (2, 3), THETA),
    (kronecker(3), (3, 4), THETA),
    (Quiver(3, ((0, 1), (1, 2), (0, 2))), (1, 2, 1), (2, 1, 0)),
    (Quiver(1, ((0, 0),)), (2,), (0,)),
    (Quiver(2, ((0, 1), (1, 0))), (2, 2), THETA),
])
def test_semistable_recursion_matches_the_resolved_formula(quiver, dims,
                                                           theta):
    poly = semistable_count_poly(quiver, dims, theta)
    for q in (2, 3, 4, 5):
        assert poly(q) == _resolved_semistable_count(quiver, dims, theta, q)


LOOP_ARROW = Quiver(2, ((0, 0), (0, 1)))  # a loop plus an arrow 0 -> 1
A3_PATH = Quiver(3, ((0, 1), (1, 2)))

PARTITION_CASES = [
    (kronecker(2), (1, 1), THETA),
    (kronecker(3), (1, 1), THETA),
    (a2_quiver(), (1, 1), THETA),
    (kronecker(2), (2, 2), THETA),
    (kronecker(2), (2, 3), THETA),
    (LOOP_ARROW, (2, 1), THETA),
    (A3_PATH, (1, 1, 1), (2, 1, 0)),
]


@pytest.mark.parametrize("quiver,dims,theta", PARTITION_CASES)
def test_partition_polynomial_identity(quiver, dims, theta):
    """Stratum polynomials sum to the point count of the whole space, as
    polynomials."""
    ss = {}
    total = CountPolynomial.zero()
    for beta in enumerate_hn_types(quiver, dims, theta):
        for piece in beta.pieces:
            if piece not in ss:
                ss[piece] = semistable_count_poly(quiver, piece, theta)
        total = total + stratum_count_poly(quiver, beta, ss)
    assert total == rep_count_poly(quiver, dims)


@pytest.mark.parametrize("quiver,dims,theta,qs", [
    (kronecker(2), (1, 1), THETA, (2, 3, 4, 5)),
    (a2_quiver(), (1, 1), THETA, (2, 3)),
    (kronecker(2), (2, 2), THETA, (2,)),
    # loops feed both the parabolic q-power and the fiber exponent at
    # one vertex; the path quiver spreads the pieces over three vertices
    (LOOP_ARROW, (2, 1), THETA, (2, 3)),
    (A3_PATH, (1, 1, 1), (2, 1, 0), (2, 3)),
])
def test_stratum_polynomials_match_classification(quiver, dims, theta, qs):
    ss = {}
    types = enumerate_hn_types(quiver, dims, theta)
    for beta in types:
        for piece in beta.pieces:
            if piece not in ss:
                ss[piece] = semistable_count_poly(quiver, piece, theta)
    for q in qs:
        table = classify_scan(quiver, dims, theta, field_table(q))
        for beta in types:
            assert stratum_count_poly(quiver, beta, ss)(q) == \
                table.counts.get(beta, 0)
        assert table.trivial_count() == \
            semistable_count_poly(quiver, dims, theta)(q)


def test_loop_quiver_closed_forms():
    # hand-checked: the unstable loci of the loop-plus-arrow quiver
    assert semistable_count_poly(LOOP_ARROW, (1, 1), THETA) == Q * Q - Q
    expected = (CountPolynomial.monomial(6) - CountPolynomial.monomial(5)
                - CountPolynomial.monomial(4) + CountPolynomial.monomial(3))
    assert semistable_count_poly(LOOP_ARROW, (2, 1), THETA) == expected


def test_is_coprime_examples():
    assert coprime_witness((1, 1), THETA) is None
    assert coprime_witness((2, 2), THETA) == (1, 1)
    assert coprime_witness((2, 3), THETA) is None
    # 11 nonzero candidate vectors e <= (2,3); only e = d itself shares the slope
    candidates = list(nonzero_subvectors((2, 3)))
    assert len(candidates) == 11
    assert [e for e in candidates if e != (2, 3)
            and 5 * e[0] == 2 * (e[0] + e[1])] == []


def test_moduli_polynomials():
    assert moduli_count_poly(kronecker(2), (1, 1), THETA) == Q + 1
    assert moduli_count_poly(a2_quiver(), (1, 1), THETA) == CountPolynomial.one()
    assert moduli_count_poly(kronecker(3), (1, 1), THETA) == Q * Q + Q + 1


def test_moduli_requires_coprime():
    with pytest.raises(CoprimalityError):
        moduli_count_poly(kronecker(2), (2, 2), THETA)
    with pytest.raises(CoprimalityError):
        torsor_orbit_count(kronecker(2), (2, 2), THETA, field_table(2))


def test_negative_moduli_coefficient_is_a_theorem_violation():
    # subtracting q^k * |PG| from |R^ss| subtracts q^k from the moduli
    # polynomial and keeps every division exact
    dims = (2, 3)
    ss = semistable_count_poly(kronecker(3), dims, THETA)
    poly = moduli_poly_from_semistable(dims, THETA, ss)
    pg = group_order_poly(dims).div_exact(Q - 1)
    wrong = ss - CountPolynomial.monomial(poly.degree + 1) * pg
    with pytest.raises(TheoremViolation, match="negative coefficient"):
        moduli_poly_from_semistable(dims, THETA, wrong)


def test_torsor_orbit_counts():
    assert torsor_orbit_count(kronecker(2), (1, 1), THETA, field_table(2)) == 3
    assert torsor_orbit_count(kronecker(2), (1, 1), THETA, field_table(3)) == 4
    assert torsor_orbit_count(a2_quiver(), (1, 1), THETA, field_table(5)) == 1


@pytest.mark.parametrize("quiver,dims", [
    (kronecker(2), (1, 1)),
    (kronecker(3), (1, 1)),
    (a2_quiver(), (1, 1)),
    (kronecker(2), (1, 2)),
])
def test_moduli_matches_orbit_counts(quiver, dims):
    poly = moduli_count_poly(quiver, dims, THETA)
    assert poly.has_integer_coeffs()
    assert poly.has_nonnegative_coeffs()
    for q in (2, 3, 4, 5):
        orbits = torsor_orbit_count(quiver, dims, THETA, field_table(q))
        assert poly(q) == orbits


def test_moduli_k2_23_is_a_point():
    # (2,3) is a real root of the 2-arrow quiver: a unique stable class
    assert moduli_count_poly(kronecker(2), (2, 3), THETA) == CountPolynomial.one()


def test_moduli_k3_23_is_palindromic():
    """A smooth projective six-dimensional moduli space: the counting
    polynomial must be palindromic (Poincare duality), with nonnegative
    integer coefficients, and its value at q=2 must equal the orbit
    count of the 2^18-point space."""
    poly = moduli_count_poly(kronecker(3), (2, 3), THETA)
    coeffs = [int(c) for c in poly.coeffs]
    assert coeffs == [1, 1, 3, 3, 3, 1, 1]
    assert coeffs == coeffs[::-1]
    assert poly(2) == torsor_orbit_count(kronecker(3), (2, 3), THETA,
                                         field_table(2)) == 183


def test_moduli_k4_12_is_the_grassmannian_of_planes():
    """The 4-arrow quiver at (1,2) gives the space of planes in 4-space:
    the counting polynomial is the Gaussian binomial [4 choose 2]_q."""
    poly = moduli_count_poly(kronecker(4), (1, 2), THETA)
    gaussian = CountPolynomial((1, 0, 1)) * CountPolynomial((1, 1, 1))
    assert poly == gaussian
    # 130 planes in GF(3)^4, the same count the subspace enumerator gives
    assert poly(3) == torsor_orbit_count(kronecker(4), (1, 2), THETA,
                                         field_table(3)) == 130


def test_quiver_with_no_arrows():
    quiver = Quiver(2, ())
    assert semistable_count_poly(quiver, (1, 1), THETA) == CountPolynomial.zero()
    assert rep_count_poly(quiver, (1, 1)) == CountPolynomial.one()


@pytest.mark.parametrize("problem", [
    (kronecker(3), (1, 1), THETA, 2), (kronecker(2), (1, 2), THETA, 2),
    (kronecker(2), (1, 1), (2, 1), 2), (kronecker(2), (1, 1), THETA, 3),
], ids=["quiver", "dims", "theta", "q"])
def test_torsor_count_rejects_another_problems_table(problem):
    quiver, dims, theta, q = problem
    table = classify_scan(kronecker(2), (1, 1), THETA, field_table(2))
    with pytest.raises(ValueError, match="belongs to another problem"):
        torsor_orbit_count(quiver, dims, theta, field_table(q), table=table)


def test_recursion_budget_at_its_edge(monkeypatch):
    # no product of the pair counts (d + 1)(d + 2)/2 equals 2^16, so the
    # bound moves onto the 6 * 10 = 60 pairs (m, e) of (2, 3)
    expected = semistable_count_poly(kronecker(2), (2, 3), THETA)
    monkeypatch.setattr(counting, "MAX_SEMISTABLE_PAIRS", 60)
    assert semistable_count_poly(kronecker(2), (2, 3), THETA) == expected
    assert moduli_count_poly(kronecker(2), (2, 3), THETA)
    monkeypatch.setattr(counting, "MAX_SEMISTABLE_PAIRS", 59)
    message = ("60 pairs of subvectors exceed the semistable recursion "
               "budget 59")
    with pytest.raises(BudgetExceeded, match=message):
        semistable_count_poly(kronecker(2), (2, 3), THETA)
    with pytest.raises(BudgetExceeded, match=message):
        moduli_count_poly(kronecker(2), (2, 3), THETA)
