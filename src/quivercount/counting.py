"""Closed-form stratum counts and the recursion that produces the
semistable and moduli counting polynomials.

Both factor through the first HN piece.  A point of R(m) whose first
piece has dimension vector e is a subspace tuple of dimension vector e,
free arrow blocks from the rest into it, a semistable point of R(e) and
a point of R(m - e) whose HN slopes all lie below the slope of e.  The
first two choices number

    F(m, e) = [m; e]_q * q^(sum over arrows i->j of (m-e)_i e_j),

the product over vertices of Gaussian binomials [m_i; e_i]_q, each
computed once, times one q-power.  A stratum count is the fold of
F(m, d^k) * |R^ss(d^k)| over the pieces d^k of its type, m losing one
piece per step.  Which triangle of blocks is free is a convention that
cannot be read off a formula alone; the acceptance suite locks it by
exact comparison with exhaustive classification before anything
downstream is trusted.

The semistable counts come from a two-step recursion (Reineke) with the
same factor, so it never lists the types: the points of R(m) split by
the dimension vector of their first piece.
"""

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache
from math import prod

from .errors import BudgetExceeded, CoprimalityError, TheoremViolation
from .exhaustive import classify_scan
from .polynomial import CountPolynomial, InexactDivisionError
from .quiver import (check_theta, check_vector, gl_order_poly,
                     group_order_poly, nonzero_subvectors, pg_order,
                     rep_space_dim, slope_sets)
from .rep import DEFAULT_MAX_REPS, DEFAULT_MAX_TUPLES
from .strata import check_type_budget

MAX_SEMISTABLE_PAIRS = 2**16


def rep_count_poly(quiver, dims):
    """Point count of the whole representation space: the monomial
    q^(sum of d_i * d_j over arrows)."""
    return CountPolynomial.monomial(rep_space_dim(quiver, dims))


@lru_cache(maxsize=1024)
def gaussian_binomial(n, k):
    """[n; k]_q, the k-dimensional subspaces of GF(q)^n: |GL_n| /
    (q^(k(n-k)) |GL_k| |GL_(n-k)|), exactly."""
    return gl_order_poly(n).div_exact(CountPolynomial.monomial(k * (n - k))
                                      * gl_order_poly(k) * gl_order_poly(n - k))


def first_piece_factor(quiver, m, e):
    """F(m, e) = [m; e]_q * q^(sum over arrows i->j of (m-e)_i e_j): the
    subspace tuples of dimension vector e in GF(q)^m times the free arrow
    blocks from the rest into them (see the module docstring)."""
    exponent = sum((m[i] - e[i]) * e[j] for (i, j) in quiver.arrows)
    return prod((gaussian_binomial(n, k) for n, k in zip(m, e) if 0 < k < n),
                start=CountPolynomial.monomial(exponent))


class StratumFormula(namedtuple("StratumFormula", "beta factors")):
    """The closed form of one stratum count: one factor F(m, d^k) *
    ss(d^k) per HN piece d^k, with m the ambient vector less the earlier
    pieces; or the single factor zero when some piece has no semistable
    point."""

    __slots__ = ()

    def polynomial(self):
        return prod(self.factors, start=CountPolynomial.one())


def stratum_formula(quiver, beta, ss_counts):
    """Fold the first-piece factor over the pieces of beta.

    ``ss_counts`` maps the piece dimension vectors of beta to their
    semistable count polynomials; the pieces after a zero one are not
    read.
    """
    m, factors = beta.ambient, []
    for piece in beta.pieces:
        if piece not in ss_counts:
            raise ValueError(f"missing semistable count for piece {piece}")
        if ss_counts[piece].is_zero():
            return StratumFormula(beta, (CountPolynomial.zero(),))
        factors.append(first_piece_factor(quiver, m, piece) * ss_counts[piece])
        m = tuple(a - b for a, b in zip(m, piece))
    return StratumFormula(beta, tuple(factors))


def stratum_count_poly(quiver, beta, ss_counts):
    """Exact point count of the stratum indexed by beta, as a polynomial."""
    return stratum_formula(quiver, beta, ss_counts).polynomial()


def check_recursion_budget(dims):
    """check_type_budget, then MAX_SEMISTABLE_PAIRS pairs e <= m <= dims."""
    check_type_budget(dims)
    if (pairs := prod((d + 1) * (d + 2) // 2 for d in dims)) > MAX_SEMISTABLE_PAIRS:
        raise BudgetExceeded(f"{pairs} pairs of subvectors exceed the "
                             f"semistable recursion budget {MAX_SEMISTABLE_PAIRS}")


def semistable_count_polys(quiver, dims, theta):
    """Point count polynomials of semistable loci, as a dict keyed by
    dimension vector: dims and every piece of every type of dims.

    Reineke's two-step recursion peels off the first HN piece.  The
    points of R(m) whose first piece has dimension vector e, of slope
    above mu(m), number F(m, e) * ss(e) * L(m-e, mu(e)), with F the
    first_piece_factor and L(m, b) the count of the points of R(m) whose
    HN slopes all lie below b.  So L(m, b) is all of R(m) less these
    counts for the e of slope at least b, and ss(m) = L(m, b) for b just
    above mu(m).  A nonzero ss(m) that is not monic of degree dim R(m)
    is a TheoremViolation.  Past MAX_SEMISTABLE_PAIRS pairs (m, e),
    e <= m <= dims, it stops before it starts.
    """
    dims = check_vector(quiver, dims, "dimension vector")
    theta = check_theta(quiver, theta)
    check_recursion_budget(dims)
    ranks = slope_sets(theta, dims)[0]  # every m and e is a subvector of dims
    tables = {}

    def table(m):
        """The slope ranks above that of m of the subvectors of m,
        ascending, and L(m, b) indexed by how many of them lie below
        b > mu(m): from ss(m) at index 0 to all of R(m) at the end."""
        if m not in tables:
            mu = ranks[m]
            upper = sorted((ranks[e], e) for e in nonzero_subvectors(m)
                           if ranks[e] > mu)
            counts = [rep_count_poly(quiver, m)]
            for mu_e, e in reversed(upper):
                rest = tuple(a - b for a, b in zip(m, e))
                # mu(rest) < mu(m) < mu(e), so L(rest, mu(e)) is in rest's table
                mus, rest_counts = table(rest)
                tail = rest_counts[bisect_left(mus, mu_e)]
                counts.append(counts[-1] - first_piece_factor(quiver, m, e)
                              * table(e)[1][0] * tail)
            ss = counts[-1]
            # R^ss(m) is open in the affine space R(m), counts[0] = q^N:
            # if it has a point, its complement has dimension below N
            if ss.coeffs and ss.coeffs[counts[0].degree:] != (1,):
                raise TheoremViolation(f"semistable count of {m} is not "
                                       f"monic of degree dim R{m}: {ss}")
            tables[m] = [mu_e for mu_e, _ in upper], counts[::-1]
        return tables[m]

    table(dims)
    return {m: counts[0] for m, (_, counts) in tables.items()}


def semistable_count_poly(quiver, dims, theta):
    """Point count polynomial of the semistable locus of dims."""
    return semistable_count_polys(quiver, dims, theta)[tuple(dims)]


def coprime_witness(dims, theta):
    """A nonzero proper subvector sharing the slope of dims, or None.

    None means dims is coprime: every semistable point is stable, which
    is the hypothesis under which the moduli count below is valid.
    """
    dims = tuple(dims)
    ranks, mu, _, _ = slope_sets(tuple(theta), dims)
    return next((e for e, r in ranks.items() if r == mu and e != dims), None)


def _require_coprime(dims, theta):
    witness = coprime_witness(dims, theta)
    if witness is not None:
        raise CoprimalityError(
            f"dimension vector {dims} is not coprime for theta "
            f"{tuple(theta)}: {witness} has the same slope")


def moduli_count_poly(quiver, dims, theta):
    """Point count polynomial of the moduli space of stable
    representations (see moduli_poly_from_semistable)."""
    dims = check_vector(quiver, dims, "dimension vector")
    theta = check_theta(quiver, theta)
    check_recursion_budget(dims)  # before coprimality lists the subvectors
    _require_coprime(dims, theta)  # before the recursion
    return moduli_poly_from_semistable(
        dims, theta, semistable_count_poly(quiver, dims, theta))


def moduli_poly_from_semistable(dims, theta, ss_poly):
    """The moduli count polynomial of dims, given the semistable count
    polynomial ``ss_poly`` of dims.

    The stable locus fibers freely over the moduli space with fiber the
    base-change group modulo its central torus, so the count is
    (q - 1) * |R^ss| / g_d.  The division must be exact and the result
    must have integer coefficients, none negative (strong purity: it is
    a Poincare polynomial in q = t^2); each failure is a theorem
    violation, not a recoverable condition.
    """
    dims = tuple(dims)
    _require_coprime(dims, theta)
    numerator = CountPolynomial((-1, 1)) * ss_poly
    try:
        poly = numerator.div_exact(group_order_poly(dims))
    except InexactDivisionError as exc:
        raise TheoremViolation(
            f"(q-1)*|R^ss| not divisible by the group order for {dims}") from exc
    if not poly.has_integer_coeffs():
        raise TheoremViolation(
            f"moduli counting polynomial has non-integer coefficients: {poly}")
    if not poly.has_nonnegative_coeffs():
        raise TheoremViolation(
            f"moduli counting polynomial has a negative coefficient: {poly}")
    return poly


def torsor_orbit_count(quiver, dims, theta, field, max_reps=DEFAULT_MAX_REPS,
                       max_tuples=DEFAULT_MAX_TUPLES, table=None):
    """Number of stable points over F_q divided by the order of the
    acting group modulo its central torus, with the divisibility
    verified on the way.

    Requires a coprime dimension vector, so the stable and semistable
    loci agree and the stable count is the open stratum of the
    exhaustive classification.  ``table`` is that classification when
    the caller already has it; otherwise it is computed here.
    """
    dims = tuple(dims)
    _require_coprime(dims, theta)
    if table is None:
        table = classify_scan(quiver, dims, theta, field, max_reps, max_tuples)
    elif (table.quiver, table.dims, table.theta, table.q) != (
            quiver, dims, tuple(theta), field.q):
        raise ValueError("the stratum table belongs to another problem")
    stable = table.trivial_count()
    pg = pg_order(dims, field.q)
    if stable % pg:
        raise TheoremViolation(
            f"|R^s| = {stable} is not divisible by |PG| = {pg} at q = {field.q}")
    return stable // pg
