"""Univariate polynomials in the formal variable q with exact
coefficients: an ``int`` where integral, a ``Fraction`` only where not
(an interpolant fitted to samples, a quotient by a non-monic divisor).

Counting functions live here: the coefficient list is canonical (no
trailing zeros), arithmetic is exact, and division is only offered in
the exact flavour because every division the theory prescribes must
leave no remainder.  Quotient coefficients are taken by ``divmod``, in
``int``; only a leading coefficient that does not divide one makes it a
``Fraction``, so division by the monic GL orders never builds one.
"""

from fractions import Fraction
from itertools import zip_longest


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


def _exact(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(c)}")


class CountPolynomial:
    """Immutable polynomial; ``coeffs[k]`` is the coefficient of q^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("CountPolynomial is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, degree):
        return cls((0,) * degree + (1,))

    @property
    def degree(self):
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def has_integer_coeffs(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def has_nonnegative_coeffs(self):
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other):
        pairs = zip_longest(self.coeffs, _coerce(other).coeffs, fillvalue=0)
        return CountPolynomial([a + b for a, b in pairs])

    def __sub__(self, other):
        pairs = zip_longest(self.coeffs, _coerce(other).coeffs, fillvalue=0)
        return CountPolynomial([a - b for a, b in pairs])

    def __neg__(self):
        return CountPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return CountPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return CountPolynomial(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return _coerce(other) - self

    def div_exact(self, other):
        """Exact quotient; raises InexactDivisionError on any remainder."""
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        dd, dv = len(rem) - 1, other.degree
        lead = other.coeffs[-1]
        if dd < dv:
            if any(rem):
                raise InexactDivisionError(f"{self} is not divisible by {other}")
            return CountPolynomial.zero()
        quot = [0] * (dd - dv + 1)
        for k in range(dd, dv - 1, -1):
            c, r = divmod(rem[k], lead)
            if r:
                c = _exact(Fraction(rem[k], lead))
            quot[k - dv] = c
            if c:
                for j in range(dv + 1):
                    rem[k - dv + j] -= c * other.coeffs[j]
        if any(rem):
            raise InexactDivisionError(f"{self} is not divisible by {other}")
        return CountPolynomial(quot)

    def __call__(self, x):
        """Evaluate at an exact point; returns int when the value is integral."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _exact(acc)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
        return isinstance(other, CountPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals its int or Fraction (see __eq__), so hashes like it
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0] if self.coeffs else 0)

    def __repr__(self):
        return f"CountPolynomial({list(self.coeffs)!r})"

    def __str__(self):
        return self.pretty()

    def pretty(self, var="q"):
        """Human form, descending degree, e.g. ``q^2 + q + 1``."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                x = var if k == 1 else f"{var}^{k}"
                body = x if mag == 1 else f"{mag}*{x}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def coeff_line(self):
        """Machine form: ascending coefficients, space separated."""
        return " ".join(map(str, self.coeffs)) if self.coeffs else "0"


def _coerce(x):
    return x if isinstance(x, CountPolynomial) else CountPolynomial((x,))
