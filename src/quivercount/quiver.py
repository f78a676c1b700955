"""Quivers, dimension vectors, stability characters and slopes.

Dimension vectors and characters are plain tuples of ints indexed by
vertex; slopes are exact Fractions, which every route compares through
the integer ranks of ``slope_sets``, so every comparison is exact.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .polynomial import CountPolynomial


class Quiver(namedtuple("Quiver", "vertex_count arrows")):
    """A finite directed graph; loops and parallel arrows allowed.

    The arrow list order is part of the identity of the quiver: matrix
    tuples, representation indices and file formats all follow it.
    """

    __slots__ = ()

    def __new__(cls, vertex_count, arrows):
        int_vector((vertex_count,), "vertex count")
        if vertex_count < 1:
            raise ValueError("quiver needs at least one vertex")
        arrows = tuple(int_vector(arrow, "arrow") for arrow in arrows)
        for (s, t) in arrows:
            if not (0 <= s < vertex_count and 0 <= t < vertex_count):
                raise ValueError(f"arrow ({s}, {t}) leaves the vertex range")
        return super().__new__(cls, vertex_count, arrows)

    def __repr__(self):
        return f"Quiver({self.vertex_count}, {list(self.arrows)})"


def kronecker(arrow_count):
    """Two vertices and ``arrow_count`` parallel arrows 0 -> 1."""
    return Quiver(2, tuple((0, 1) for _ in range(arrow_count)))


def int_vector(values, name, nonnegative=False):
    """``values`` as a tuple; ValueError for an entry that is not an int
    and, with ``nonnegative`` (a dimension vector), for one below 0."""
    values = tuple(values)
    for x in values:
        if not isinstance(x, int) or (nonnegative and x < 0):
            raise ValueError(f"{name} {values!r} has the entry {x!r}, not an "
                             f"int{' >= 0' if nonnegative else ''}")
    return values


def check_vector(quiver, vec, name, nonnegative=True):
    vec = int_vector(vec, name, nonnegative)
    if len(vec) != quiver.vertex_count:
        raise ValueError(f"{name} has length {len(vec)}, expected {quiver.vertex_count}")
    return vec


def check_theta(quiver, theta):
    """The character as a tuple of one int per vertex, or ValueError."""
    return check_vector(quiver, theta, "character", nonnegative=False)


def total_dim(dims):
    return sum(dims)


def nonzero_subvectors(dims):
    """All nonzero vectors e with 0 <= e <= dims componentwise (the full
    vector included)."""
    for vec in product(*[range(d + 1) for d in dims]):
        if any(vec):
            yield vec


def _check_same_length(theta, dims):
    if len(theta) != len(dims):
        raise ValueError(f"character {tuple(theta)} and dimension vector "
                         f"{tuple(dims)} differ in length")


def slope(theta, dims):
    """Exact slope theta(d) / dim(d) of a nonzero dimension vector."""
    _check_same_length(theta, dims)
    dim = total_dim(dims)
    if dim <= 0:
        raise ValueError("slope of the zero dimension vector is undefined")
    return Fraction(sum(t * d for t, d in zip(theta, dims)), dim)


@lru_cache(maxsize=1024)
def slope_sets(theta, dims):
    """The slope order every route compares slopes by: the rank of the
    slope of every nonzero subvector of dims, dims included, as a dict in
    nonzero_subvectors order to be read and not changed; the rank mu of
    dims; and the frozensets of the subvectors of rank above mu and of
    rank at least mu, dims itself excluded (the vectors that can
    destabilize a point of dims, and those that can also make it strictly
    semistable).  Equal slopes share a rank and a larger slope has a
    larger rank, so ranks compare as the Fractions do.  ``theta`` and
    ``dims`` are tuples of one length, checked on a cache miss."""
    _check_same_length(theta, dims)
    if not any(dims):
        raise ValueError("stability is undefined for the zero dimension vector")
    subs = list(nonzero_subvectors(dims))
    mus = [slope(theta, e) for e in subs]
    rank = {x: r for r, x in enumerate(sorted(set(mus)))}
    ranks = {e: rank[x] for e, x in zip(subs, mus)}
    mu = ranks[dims]
    return (ranks, mu, frozenset(e for e, r in ranks.items() if r > mu),
            frozenset(e for e, r in ranks.items() if r >= mu and e != dims))


def rep_space_dim(quiver, dims):
    """Affine dimension of the space of matrix tuples: sum of d_i * d_j."""
    return sum(dims[i] * dims[j] for (i, j) in quiver.arrows)


def gl_order(n, q):
    """|GL_n(F_q)| as an exact integer; 1 for n = 0."""
    if n < 0:
        raise ValueError("negative matrix size")
    if q < 2:
        raise ValueError("q must be at least 2")
    qn = q**n
    out = 1
    for k in range(n):
        out *= qn - q**k
    return out


@lru_cache(maxsize=64)
def gl_order_poly(n):
    """|GL_n| as a polynomial in q; cached, as polynomials are immutable."""
    out = CountPolynomial.one()
    qn = CountPolynomial.monomial(n)
    for k in range(n):
        out = out * (qn - CountPolynomial.monomial(k))
    return out


def group_order_poly(dims):
    """Order polynomial of the product of the GL(d_i), the group acting by
    base change on the representation space."""
    out = CountPolynomial.one()
    for d in dims:
        out = out * gl_order_poly(d)
    return out


def pg_order(dims, q):
    """Point count of the base-change group modulo its central torus."""
    if total_dim(dims) == 0:
        raise ValueError("no central torus to quotient by for the zero vector")
    order = 1
    for d in dims:
        order *= gl_order(d, q)
    assert order % (q - 1) == 0
    return order // (q - 1)
