import pytest

from quivercount import make_field, prime_power
from quivercount.ffield import PRIME_POWER_LIMIT, PrimePower

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


def _trial_division(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e, rest = 0, q
    while rest % p == 0:
        rest //= p
        e += 1
    return PrimePower(p, e, q) if rest == 1 else None


def test_prime_power_factoring():
    assert prime_power(8) == PrimePower(2, 3, 8)
    assert prime_power(9) == PrimePower(3, 2, 9)
    for bad in (0, 1, 6, 10, 12, 15):
        with pytest.raises(ValueError):
            prime_power(bad)
    for q in range(2, 5000):
        try:
            found = prime_power(q)
        except ValueError:
            found = None
        assert found == _trial_division(q), q


@pytest.mark.parametrize("q,expected", [
    (2**61 - 1, PrimePower(2**61 - 1, 1, 2**61 - 1)),
    ((2**31 - 1)**2, PrimePower(2**31 - 1, 2, (2**31 - 1)**2)),
    (3**40, PrimePower(3, 40, 3**40)),
    (2**81, PrimePower(2, 81, 2**81)),
    # a Carmichael number, then strong pseudoprimes to the bases 2, 3, 5,
    # 7 and to every prime base up to 37
    (561, "not a prime power"),
    (3215031751, "not a prime power"),
    (318665857834031151167461, "not a prime power"),
    (2**61 - 2, "not a prime power"),
    (PRIME_POWER_LIMIT, "too large to factor"),
])
def test_prime_power_on_large_values(q, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            prime_power(q)
    else:
        assert prime_power(q) == expected


def test_maximum_enforced():
    with pytest.raises(ValueError):
        make_field(17)
    with pytest.raises(ValueError):
        make_field(25)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        make_field(5).inv(0)
