"""Counting-function signatures: fit sampled point counts by a single
polynomial in q^n, or by one polynomial per residue class of n.

A single-polynomial fit is the signature expected of counts governed by
Frobenius eigenvalues that are plain powers of q; a periodic fit is the
signature of eigenvalues that are powers of q times roots of unity.
Verdicts are about counting functions only: finitely many samples can
never refute anything, so fit failure reports "inconclusive", never a
refutation.
"""

from collections import namedtuple
from fractions import Fraction

from .errors import BudgetExceeded
from .polynomial import CountPolynomial

STRONG = "strong-polynomial"
PERIODIC = "periodic-polynomial"
INCONCLUSIVE = "inconclusive"
MAX_SAMPLE_BITS = 2**16  # base_q^n, the largest field size, is 2^this at most


class CountSamples(namedtuple("CountSamples", "base_q samples")):
    """Sampled counts over the extension tower of a base field:
    samples[k] = (n, count) stands for the count over F_{q^n}."""

    __slots__ = ()

    def __new__(cls, base_q, samples):
        if base_q < 2:
            raise ValueError("base q must be at least 2")
        pairs = tuple(sorted((int(n), int(c)) for n, c in samples))
        ns = [n for n, _ in pairs]
        if len(set(ns)) != len(ns):
            raise ValueError("sample exponents must be distinct")
        if any(n < 1 for n in ns):
            raise ValueError("sample exponents must be positive")
        if any(c < 0 for _, c in pairs):
            raise ValueError("counts must be nonnegative")
        # exact: q^n is computed once its lower bound 2^(n floor(log2 q)) fits
        if ns and (ns[-1] * (base_q.bit_length() - 1) > MAX_SAMPLE_BITS
                   or base_q**ns[-1] > 1 << MAX_SAMPLE_BITS):
            raise BudgetExceeded(f"{base_q}^{ns[-1]} exceeds the sample "
                                 f"budget of {MAX_SAMPLE_BITS} bits")
        return super().__new__(cls, base_q, pairs)

    def points(self):
        return [(self.base_q**n, count) for n, count in self.samples]


class PurityReport(namedtuple("PurityReport",
                              "verdict period polynomials details",
                              defaults=(None, None, ""))):
    """Outcome of a fit.  For a periodic verdict, polynomials[r] is the
    fit for the class n = r (mod period)."""

    __slots__ = ()

    def format_lines(self):
        lines = [f"verdict: {self.verdict}"]
        if self.verdict == STRONG:
            lines.append(f"P: {self.polynomials[0].pretty('t')}")
        elif self.verdict == PERIODIC:
            lines.append(f"period: {self.period}")
            for r, poly in enumerate(self.polynomials):
                lines.append(f"P_{r}: {poly.pretty('t')}")
        if self.details:
            lines.append(f"details: {self.details}")
        return lines


def interpolate_poly(points, degree_bound):
    """Exact Newton interpolation through the first degree_bound+1
    points; succeeds only if every remaining point is reproduced
    exactly.  Returns None (not an exception) on a mismatch.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    if len(points) < degree_bound + 1:
        raise ValueError(
            f"need at least {degree_bound + 1} points for degree {degree_bound}")
    xs = [x for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must be distinct")
    poly = _newton(points[:degree_bound + 1])
    for x, y in points[degree_bound + 1:]:
        if poly(x) != y:
            return None
    return poly


def _newton(points):
    xs = [Fraction(x) for x, _ in points]
    coef = [Fraction(y) for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = CountPolynomial((coef[-1],))
    for k in range(n - 2, -1, -1):
        poly = poly * CountPolynomial((-xs[k], 1)) + CountPolynomial((coef[k],))
    return poly


def strong_purity_check(samples, degree_bound):
    """Fit all samples by one integer polynomial in the variable q^n."""
    points = samples.points()
    poly = interpolate_poly(points, degree_bound)
    if poly is None:
        return PurityReport(
            INCONCLUSIVE,
            details=f"no single polynomial of degree <= {degree_bound} "
                    "reproduces every sample")
    if not poly.has_integer_coeffs():
        return PurityReport(
            INCONCLUSIVE,
            details=f"interpolant {poly.pretty('t')} has non-integer coefficients")
    return PurityReport(STRONG, polynomials=(poly,))


def weak_purity_periodic_fit(samples, period, degree_bound):
    """Fit each residue class of n mod period by its own integer
    polynomial in q^n."""
    if period < 1:
        raise ValueError("period must be positive")
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    classes = {}
    for n, count in samples.samples:
        classes.setdefault(n % period, []).append((samples.base_q**n, count))
    # each class needs a sample: the scan stops within len(samples) + 1 steps
    for r in range(period):
        if len(classes.setdefault(r, [])) < degree_bound + 1:
            raise ValueError(
                f"residue class {r} mod {period} has {len(classes[r])} samples, "
                f"need at least {degree_bound + 1}")
    polys = []
    for r in range(period):
        poly = interpolate_poly(classes[r], degree_bound)
        if poly is None:
            return PurityReport(
                INCONCLUSIVE, details=f"residue class {r} mod {period} does not "
                f"fit a polynomial of degree <= {degree_bound}")
        if not poly.has_integer_coeffs():
            return PurityReport(
                INCONCLUSIVE, details=f"fit for residue class {r} mod {period} "
                "has non-integer coefficients")
        polys.append(poly)
    return PurityReport(PERIODIC, period=period, polynomials=tuple(polys))
