import pytest

from quivercount import make_field, prime_power
from quivercount.ffield import PrimePower

SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 16]


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    t = make_field(q)
    rng = range(q)
    for a in rng:
        assert t.add(a, 0) == a
        assert t.mul(a, 1) == a
        assert t.mul(a, 0) == 0
        for b in rng:
            assert t.add(a, b) == t.add(b, a)
            assert t.mul(a, b) == t.mul(b, a)
            for c in rng:
                assert t.add(t.add(a, b), c) == t.add(a, t.add(b, c))
                assert t.mul(t.mul(a, b), c) == t.mul(a, t.mul(b, c))
                assert t.mul(a, t.add(b, c)) == t.add(t.mul(a, b), t.mul(a, c))
    for a in rng:
        assert t.add(a, t.neg(a)) == 0
        if a:
            assert t.mul(a, t.inv(a)) == 1


@pytest.mark.parametrize("q", SUPPORTED)
def test_multiplicative_group_order(q):
    t = make_field(q)
    for x in range(1, q):
        acc = 1
        for _ in range(q - 1):
            acc = t.mul(acc, x)
        assert acc == 1


def test_gf2_is_xor_and():
    t = make_field(2)
    assert t.add_table == ((0, 1), (1, 0))
    assert t.mul_table == ((0, 0), (0, 1))


def test_gf3_arithmetic():
    t = make_field(3)
    assert t.add(2, 2) == 1
    assert t.mul(2, 2) == 1


def test_prime_inverses():
    assert make_field(5).inv(2) == 3
    assert make_field(7).inv(3) == 5


def test_gf4_cube_roots_of_unity():
    t = make_field(4)
    for x in range(1, 4):
        assert t.mul(x, t.mul(x, x)) == 1


def test_gf4_modulus_is_least():
    # x^2 + x + 1 is the only irreducible quadratic over GF(2)
    assert make_field(4).modulus == (1, 1, 1)


def test_deterministic():
    for q in SUPPORTED:
        assert make_field(q) == make_field(q)


def test_prime_power_factoring():
    assert prime_power(8) == PrimePower(2, 3, 8)
    assert prime_power(9) == PrimePower(3, 2, 9)
    for bad in (0, 1, 6, 10, 12, 15):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_maximum_enforced():
    with pytest.raises(ValueError):
        make_field(17)
    with pytest.raises(ValueError):
        make_field(25)
    assert make_field(25, maximum=32).q == 25


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)
