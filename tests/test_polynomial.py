from fractions import Fraction

import pytest

from quivercount import CountPolynomial, InexactDivisionError

Q = CountPolynomial((0, 1))


def test_canonical_trailing_zeros():
    assert CountPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert CountPolynomial((0, 0)).is_zero()
    assert CountPolynomial(()).degree == -1
    # an integral Fraction is stored as an int; a float is refused
    p = CountPolynomial((Fraction(4, 2), Fraction(1, 3)))
    assert type(p.coeffs[0]) is int and p.coeffs == (2, Fraction(1, 3))
    with pytest.raises(TypeError):
        CountPolynomial((0.5,))
    with pytest.raises(TypeError):
        Q + 0.5


def test_arithmetic():
    p = Q * Q - 1
    assert p == CountPolynomial((-1, 0, 1))
    assert p + 1 == Q * Q
    assert (Q - 1) * (Q + 1) == p
    assert -(Q - 1) == CountPolynomial((1, -1))


def test_div_exact():
    assert (Q * Q - 1).div_exact(Q - 1) == Q + 1
    assert (Q * Q * Q).div_exact(Q) == Q * Q
    with pytest.raises(InexactDivisionError):
        (Q * Q + 1).div_exact(Q - 1)
    with pytest.raises(ZeroDivisionError):
        Q.div_exact(CountPolynomial.zero())
    # a monic divisor keeps int coefficients; a non-monic one may not
    assert all(type(c) is int for c in (Q * Q - 1).div_exact(Q - 1).coeffs)
    # a leading coefficient that divides evenly keeps them int as well
    even = (2 * Q * Q + 4 * Q + 2).div_exact(2 * Q + 2)
    assert even == Q + 1
    assert all(type(c) is int for c in even.coeffs)
    assert all(type(c) is int
               for c in (6 * Q * Q * Q - 6).div_exact(-3 * Q + 3).coeffs)
    half = (Q * Q - 1).div_exact(2 * Q + 2)
    assert half == CountPolynomial((Fraction(-1, 2), Fraction(1, 2)))
    assert all(type(c) is Fraction for c in half.coeffs)


def test_evaluation():
    assert (Q + 1)(4) == 5
    assert isinstance((Q + 1)(4), int)
    half = CountPolynomial((Fraction(1, 2),))
    assert half(3) == Fraction(1, 2)


def test_coefficient_predicates():
    assert (Q + 1).has_integer_coeffs()
    assert (Q + 1).has_nonnegative_coeffs()
    assert not (Q - 1).has_nonnegative_coeffs()
    assert not CountPolynomial((Fraction(1, 2), 1)).has_integer_coeffs()


def test_pretty():
    assert (Q * Q + Q + 1).pretty() == "q^2 + q + 1"
    assert (Q + 1).pretty() == "q + 1"
    assert (Q - 1).pretty() == "q - 1"
    assert (1 - Q).pretty() == "-q + 1"
    assert (2 * Q - 3).pretty() == "2*q - 3"
    assert CountPolynomial.zero().pretty() == "0"
    assert CountPolynomial.monomial(12).pretty() == "q^12"
    assert (Q + 1).pretty(var="t") == "t + 1"
    assert CountPolynomial((Fraction(1, 2),)).pretty() == "1/2"


def test_coeff_line():
    assert (Q * Q + Q + 1).coeff_line() == "1 1 1"
    assert CountPolynomial.zero().coeff_line() == "0"
    assert CountPolynomial((Fraction(1, 2), -2)).coeff_line() == "1/2 -2"


def test_immutability_and_hash():
    p = Q + 1
    with pytest.raises(AttributeError):
        p.coeffs = (0,)
    assert hash(Q + 1) == hash(CountPolynomial((1, 1)))


@pytest.mark.parametrize("value", [5, -3, 0, Fraction(2, 3), Fraction(8, 4)])
def test_a_constant_hashes_like_the_number_it_equals(value):
    p = CountPolynomial((value,))
    assert p == value and hash(p) == hash(value)
    assert len({p, value}) == 1
    assert {value: "x"}.get(p) == "x" and {p: "x"}.get(value) == "x"


def test_the_zero_polynomial_hashes_like_zero():
    assert CountPolynomial.zero() == 0 and hash(CountPolynomial.zero()) == hash(0)
    assert {0: "x"}.get(CountPolynomial(())) == "x"
