"""Exact arithmetic in small finite fields GF(q) via lookup tables.

Elements are indexed 0..q-1.  For q = p prime the index is the residue
itself.  For q = p^e with e > 1 the index encodes a polynomial over
GF(p) in base p (digit k = coefficient of x^k), reduced modulo a fixed
monic irreducible of degree e.  In both cases index 0 is the additive
identity and index 1 the multiplicative identity.

The tables are tiny (q <= 16 by default), immutable after construction
and verified against the full set of field axioms, so downstream code
can index them freely in inner loops.
"""

from collections import namedtuple

MAX_Q = 16


class PrimePower(namedtuple("PrimePower", "p e q")):
    """A prime power q = p^e."""

    __slots__ = ()


# Miller-Rabin to the first 13 prime bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 2017)
PRIME_POWER_LIMIT = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Deterministic Miller-Rabin for 2 <= n < PRIME_POWER_LIMIT."""
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n, k):
    """The integer part of the k-th root of n >= 1, by Newton's method
    from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(q):
    """Factor q as p^e, or raise ValueError if q is not a prime power
    below PRIME_POWER_LIMIT.

    No trial division: q = p^e exactly when the integer e-th root of q
    is a prime whose e-th power is q.
    """
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"not a prime power: {q!r}")
    if q >= PRIME_POWER_LIMIT:
        raise ValueError(f"q={q} is too large to factor")
    for e in range(1, q.bit_length()):
        p = _iroot(q, e)
        if p < 2:
            break
        if p**e == q and _is_prime(p):
            return PrimePower(p, e, q)
    raise ValueError(f"not a prime power: {q}")


def _digits(i, p, e):
    return tuple((i // p**k) % p for k in range(e))


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


def _poly_divides(g, f, p):
    rem = list(f)
    dg = len(g) - 1
    for k in range(len(rem) - 1, dg - 1, -1):
        c = rem[k]
        if c:
            for j in range(dg + 1):
                rem[k - dg + j] = (rem[k - dg + j] - c * g[j]) % p
    return not any(rem)


def _is_irreducible(f, p):
    """Trial division of the monic polynomial f by all lower-degree monics."""
    e = len(f) - 1
    for m in range(1, e // 2 + 1):
        for enc in range(p**m):
            g = _digits(enc, p, m) + (1,)
            if _poly_divides(g, f, p):
                return False
    return True


def _least_irreducible(p, e):
    # Least in the base-p integer encoding of the non-leading coefficients.
    for enc in range(p**e):
        f = _digits(enc, p, e) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError(f"no irreducible polynomial of degree {e} over GF({p})")


class FieldTable:
    """Addition/multiplication/negation/inversion tables for GF(q).

    ``add_table`` and ``mul_table`` are q x q tuples of tuples;
    ``neg_table`` and ``inv_table`` are q-tuples (``inv_table[0]`` is
    unused).  ``modulus`` is the coefficient tuple of the defining
    irreducible for e > 1, else None.
    """

    def __init__(self, pp, add_table, mul_table, modulus):
        self.q = pp.q
        self.p = pp.p
        self.e = pp.e
        self.prime_power = pp
        self.modulus = modulus
        self.add_table = add_table
        self.mul_table = mul_table
        self.neg_table = tuple(
            next(b for b in range(pp.q) if add_table[a][b] == 0)
            for a in range(pp.q))
        inv = [0] * pp.q
        for a in range(1, pp.q):
            inv[a] = next(b for b in range(1, pp.q) if mul_table[a][b] == 1)
        self.inv_table = tuple(inv)

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
    """Build the lookup tables for GF(q), q = p^e <= MAX_Q.

    Deterministic: for e > 1 the defining polynomial is the monic
    irreducible of degree e whose non-leading coefficient vector is
    least in the base-p integer encoding.
    """
    size = q.q if isinstance(q, PrimePower) else q
    if isinstance(size, int) and size > MAX_Q:  # before factoring q
        raise ValueError(f"q={size} exceeds the configured maximum {MAX_Q}")
    pp = q if isinstance(q, PrimePower) else prime_power(q)
    p, e, n = pp.p, pp.e, pp.q
    if e == 1:
        add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
        mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
        modulus = None
    else:
        modulus = _least_irreducible(p, e)
        elems = [_digits(i, p, e) for i in range(n)]
        enc = {v: i for i, v in enumerate(elems)}
        add = tuple(
            tuple(enc[tuple((x + y) % p for x, y in zip(elems[a], elems[b]))]
                  for b in range(n))
            for a in range(n))
        mul = tuple(
            tuple(enc[_poly_mul_mod(elems[a], elems[b], modulus, p)]
                  for b in range(n))
            for a in range(n))
    table = FieldTable(pp, add, mul, modulus)
    _verify_axioms(table)
    return table


_CACHE = {}


def field_table(q):
    """Cached variant of make_field; tables are immutable and shareable."""
    if q not in _CACHE:
        _CACHE[q] = make_field(q)
    return _CACHE[q]
