from fractions import Fraction
from itertools import product

import pytest

from quivercount import (CountPolynomial, Quiver, gl_order, gl_order_poly,
                         group_order_poly, kronecker, rep_space_dim, slope)

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
