"""Closed-form stratum counts and the recursion that produces the
semistable and moduli counting polynomials.

The count of one stratum factors as (number of flags of the type) x
(free off-diagonal block choices) x (semistable choices for the
diagonal blocks):

    |S_beta| = (g_d / |P_beta|) * q^f(beta) * prod_k |R^ss(d^k)|

with |P_beta| the order of the flag-preserving subgroup and f(beta)
counting the arrow matrix entries above the block diagonal.  The flag
factor g_d / |P_beta| is the product over vertices of the Gaussian
multinomials [d_i; d^1_i, ..., d^s_i]_q, each computed once.  Which
triangle of blocks is free is a convention that cannot be read off a
formula alone; the acceptance suite locks it by exact comparison with
exhaustive classification before anything downstream is trusted.

The semistable counts come from a two-step recursion (Reineke) that
peels off the first HN piece, so it never lists the types: a point
count of R(m) splits by the dimension vector of its first piece, and
the remaining pieces are a point of a smaller space whose HN slopes all
lie below that piece's slope.
"""

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .errors import BudgetExceeded, CoprimalityError, TheoremViolation
from .polynomial import CountPolynomial, InexactDivisionError
from .quiver import (gl_order_poly, group_order_poly, nonzero_subvectors,
                     pg_order, rep_space_dim, slope)
from .rep import DEFAULT_MAX_REPS, DEFAULT_MAX_TUPLES
from .strata import check_type_budget, classify_representations

MAX_SEMISTABLE_PAIRS = 2**16


def rep_count_poly(quiver, dims):
    """Point count of the whole representation space: the monomial
    q^(sum of d_i * d_j over arrows)."""
    return CountPolynomial.monomial(rep_space_dim(quiver, dims))


def parabolic_order_poly(beta):
    """Order of the subgroup preserving one flag of type beta: per vertex,
    a q-power for the unipotent blocks times the GL orders of the
    diagonal blocks."""
    out = CountPolynomial.one()
    pieces = beta.pieces
    n = len(pieces)
    for i in range(len(beta.ambient)):
        exponent = sum(pieces[k][i] * pieces[l][i]
                       for k in range(n) for l in range(k))
        out = out * CountPolynomial.monomial(exponent)
        for k in range(n):
            out = out * gl_order_poly(pieces[k][i])
    return out


@lru_cache(maxsize=1024)
def gaussian_multinomial(n, parts):
    """[n; parts]_q, the flags in GF(q)^n with quotients of sizes parts
    (sorted, nonzero, summing to n; the value ignores their order): |GL_n|
    / (q^e prod |GL_(p_k)|), e = sum over k > l of p_k p_l, exactly."""
    exponent = (n * n - sum(p * p for p in parts)) // 2
    return gl_order_poly(n).div_exact(prod(
        map(gl_order_poly, parts), start=CountPolynomial.monomial(exponent)))


def flag_count_poly(beta):
    """Number of flags of type beta, the group order divided by the
    parabolic order: per vertex, a Gaussian multinomial in the piece
    dimensions there."""
    columns = zip(beta.ambient, zip(*beta.pieces))
    try:
        return prod((gaussian_multinomial(n, tuple(sorted(filter(None, parts))))
                     for n, parts in columns), start=CountPolynomial.one())
    except InexactDivisionError as exc:
        raise TheoremViolation(f"inexact flag factor for type {beta}") from exc


def fiber_exponent(quiver, beta):
    """Number of free arrow matrix entries once a flag of type beta is
    preserved: blocks from a later piece to an earlier one."""
    pieces = beta.pieces
    n = len(pieces)
    exponent = 0
    for (i, j) in quiver.arrows:
        for k in range(n):
            for l in range(k):
                exponent += pieces[k][i] * pieces[l][j]
    return exponent


@dataclass(frozen=True)
class StratumFormula:
    """The factored closed form of one stratum count."""

    beta: object
    flag_factor: CountPolynomial
    fiber_exponent: int
    ss_factors: tuple

    def polynomial(self):
        out = self.flag_factor * CountPolynomial.monomial(self.fiber_exponent)
        for _, factor in self.ss_factors:
            out = out * factor
        return out


def stratum_formula(quiver, beta, ss_counts):
    """Assemble the stratum formula from known semistable counts.

    ``ss_counts`` maps each piece dimension vector of beta to its
    semistable count polynomial.
    """
    factors = []
    for piece in beta.pieces:
        if piece not in ss_counts:
            raise ValueError(f"missing semistable count for piece {piece}")
        factors.append((piece, ss_counts[piece]))
    return StratumFormula(beta, flag_count_poly(beta),
                          fiber_exponent(quiver, beta), tuple(factors))


def stratum_count_poly(quiver, beta, ss_counts):
    """Exact point count of the stratum indexed by beta, as a polynomial."""
    return stratum_formula(quiver, beta, ss_counts).polynomial()


def semistable_count_polys(quiver, dims, theta):
    """Point count polynomials of semistable loci, as a dict keyed by
    dimension vector: dims and every piece of every type of dims.

    Reineke's two-step recursion peels off the first HN piece.  The
    points of R(m) whose first piece has dimension vector e, of slope
    above mu(m), number [m; e]_q * q^(sum over arrows i->j of
    (m-e)_i e_j) * ss(e) * L(m-e, mu(e)), where L(m, b) counts the
    points of R(m) whose HN slopes all lie below b.  So L(m, b) is all
    of R(m) less these counts for the e of slope at least b, and
    ss(m) = L(m, b) for b just above mu(m).  Past MAX_SEMISTABLE_PAIRS
    pairs (m, e), e <= m <= dims, it stops before it starts.
    """
    theta = tuple(theta)
    tables = {}

    def table(m):
        """The slopes above mu(m) of the subvectors of m, ascending, and
        L(m, b) indexed by how many of them lie below b > mu(m): from
        ss(m) at index 0 to all of R(m) at the end."""
        if m not in tables:
            mu = slope(theta, m)
            upper = sorted((mu_e, e) for e in nonzero_subvectors(m)
                           if (mu_e := slope(theta, e)) > mu)
            counts = [rep_count_poly(quiver, m)]
            for mu_e, e in reversed(upper):
                rest = tuple(a - b for a, b in zip(m, e))
                flags = prod((gaussian_multinomial(n, tuple(sorted((k, n - k))))
                              for n, k in zip(m, e) if 0 < k < n),
                             start=CountPolynomial.monomial(sum(
                                 rest[i] * e[j] for (i, j) in quiver.arrows)))
                # mu(rest) < mu(m) < mu(e), so L(rest, mu(e)) is in rest's table
                mus, rest_counts = table(rest)
                tail = rest_counts[bisect_left(mus, mu_e)]
                counts.append(counts[-1] - flags * table(e)[1][0] * tail)
            tables[m] = [mu_e for mu_e, _ in upper], counts[::-1]
        return tables[m]

    dims = tuple(dims)
    check_type_budget(dims)
    if (pairs := prod((d + 1) * (d + 2) // 2 for d in dims)) > MAX_SEMISTABLE_PAIRS:
        raise BudgetExceeded(f"{pairs} pairs of subvectors exceed the "
                             f"semistable recursion budget {MAX_SEMISTABLE_PAIRS}")
    table(dims)
    return {m: counts[0] for m, (_, counts) in tables.items()}


def semistable_count_poly(quiver, dims, theta):
    """Point count polynomial of the semistable locus of dims."""
    return semistable_count_polys(quiver, dims, theta)[tuple(dims)]


def coprime_witness(dims, theta):
    """A nonzero proper subvector sharing the slope of dims, or None."""
    dims = tuple(dims)
    mu = slope(theta, dims)
    for e in nonzero_subvectors(dims):
        if e != dims and slope(theta, e) == mu:
            return e
    return None


def is_coprime(dims, theta):
    """Whether no nonzero proper subvector of dims has the same slope.

    When this holds, every semistable point is stable, which is the
    hypothesis under which the moduli count below is valid.
    """
    return coprime_witness(dims, theta) is None


def _require_coprime(dims, theta):
    witness = coprime_witness(dims, theta)
    if witness is not None:
        raise CoprimalityError(
            f"dimension vector {dims} is not coprime for theta "
            f"{tuple(theta)}: {witness} has the same slope")


def moduli_count_poly(quiver, dims, theta):
    """Point count polynomial of the moduli space of stable
    representations (see moduli_poly_from_semistable)."""
    _require_coprime(tuple(dims), theta)  # before the recursion
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
        table = classify_representations(quiver, dims, theta, field,
                                         max_reps=max_reps,
                                         max_tuples=max_tuples)
    elif (table.quiver, table.dims, table.theta, table.q) != (
            quiver, dims, tuple(theta), field.q):
        raise ValueError("the stratum table belongs to another problem")
    stable = table.trivial_count()
    pg = pg_order(dims, field.q)
    if stable % pg:
        raise TheoremViolation(
            f"|R^s| = {stable} is not divisible by |PG| = {pg} at q = {field.q}")
    return stable // pg
