"""Exact arithmetic in small finite fields GF(q) via lookup tables.

Elements are indexed 0..q-1.  For q = p prime the index is the residue
itself.  For q = p^e with e > 1 the index encodes a polynomial over
GF(p) in base p (digit k = coefficient of x^k), reduced modulo a fixed
monic irreducible of degree e.  In both cases index 0 is the additive
identity and index 1 the multiplicative identity.

The tables are tiny (q <= MAX_Q = 16, a fixed cap, so there are ten
fields), immutable after construction and verified against the full set
of field axioms, so downstream code can index them freely in inner
loops.
"""

from collections import namedtuple
from functools import lru_cache

from .linalg import decode_vector, encode_vector

MAX_Q = 16

# The defining polynomial of GF(p^e), e > 1, coefficients ascending: the
# monic irreducible of degree e whose non-leading coefficients are least
# in the base-p encoding.  The element encoding, and so every matrix
# entry of a representation literal, depends on it.
_MODULI = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1), 16: (1, 1, 0, 0, 1)}


class PrimePower(namedtuple("PrimePower", "p e q")):
    """A prime power q = p^e."""

    __slots__ = ()


def prime_power(q):
    """Factor q as p^e, by trial division; ValueError if q is not a
    prime power, or exceeds MAX_Q, which is checked before any
    arithmetic."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"not a prime power: {q!r}")
    if q > MAX_Q:
        raise ValueError(f"q={q} exceeds the configured maximum {MAX_Q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 1
    while p**e < q:
        e += 1
    if p**e != q:
        raise ValueError(f"not a prime power: {q}")
    return PrimePower(p, e, q)


def _poly_mul_mod(a, b, modulus, p):
    # a, b, modulus: coefficient tuples, ascending degree; modulus monic.
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    e = len(modulus) - 1
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(e):
                prod[k - e + j] = (prod[k - e + j] - c * modulus[j]) % p
    prod = prod[:e]
    return tuple(prod) + (0,) * (e - len(prod))


class FieldTable:
    """Addition/multiplication/negation/inversion tables for GF(q).

    ``add_table`` and ``mul_table`` are q x q tuples of tuples;
    ``neg_table`` and ``inv_table`` are q-tuples (``inv_table[0]`` is
    unused).  ``modulus`` is the coefficient tuple of the defining
    irreducible for e > 1, else None.
    """

    def __init__(self, q, add_table, mul_table, modulus):
        self.q = q
        self.modulus = modulus
        self.add_table = add_table
        self.mul_table = mul_table
        self.neg_table = tuple(
            next(b for b in range(q) if add_table[a][b] == 0)
            for a in range(q))
        self.inv_table = tuple(  # 0 where a has none: _verify_axioms fails
            next((b for b in range(1, q) if mul_table[a][b] == 1), 0)
            for a in range(q))

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def sub(self, a, b):
        return self.add_table[a][self.neg_table[b]]

    def neg(self, a):
        return self.neg_table[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return self.inv_table[a]

    def __eq__(self, other):
        return (isinstance(other, FieldTable) and self.q == other.q
                and self.add_table == other.add_table
                and self.mul_table == other.mul_table)

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        return f"FieldTable(q={self.q})"


def _verify_axioms(t):
    q, add, mul = t.q, t.add_table, t.mul_table
    rng = range(q)
    for a in rng:
        if add[a][0] != a or mul[a][1] != a or mul[a][0] != 0:
            raise AssertionError("identity axiom failed")
        for b in rng:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                raise AssertionError("commutativity failed")
    for a in rng:
        for b in rng:
            ab, mab = add[a][b], mul[a][b]
            for c in rng:
                if add[ab][c] != add[a][add[b][c]]:
                    raise AssertionError("additive associativity failed")
                if mul[mab][c] != mul[a][mul[b][c]]:
                    raise AssertionError("multiplicative associativity failed")
                if mul[a][add[b][c]] != add[mab][mul[a][c]]:
                    raise AssertionError("distributivity failed")
    for a in rng:
        if add[a][t.neg_table[a]] != 0:
            raise AssertionError("additive inverse failed")
        if a and mul[a][t.inv_table[a]] != 1:
            raise AssertionError("multiplicative inverse failed")


def make_field(q):
    """Build the lookup tables for GF(q), q = p^e <= MAX_Q, with the
    defining polynomial _MODULI[q] for e > 1."""
    p, e, n = prime_power(q)
    if e == 1:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        modulus = None
    else:
        modulus = _MODULI[n]
        elems = [decode_vector(i, e, p) for i in range(n)]
        add = tuple(
            tuple(encode_vector([(x + y) % p for x, y in zip(u, v)], p)
                  for v in elems)
            for u in elems)
        mul = tuple(
            tuple(encode_vector(_poly_mul_mod(u, v, modulus, p), p)
                  for v in elems)
            for u in elems)
    table = FieldTable(n, add, mul, modulus)
    _verify_axioms(table)  # a reducible modulus fails here
    return table


@lru_cache(maxsize=MAX_Q)
def field_table(q):
    """Cached variant of make_field; tables are immutable and shareable."""
    return make_field(q)
