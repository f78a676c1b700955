"""Property tests of the stratum formulas and the semistable recursion.

Random small quivers, loops and 2-cycles included, dimension vectors of
total dimension at most 7 and characters.  Every stratum polynomial, a
fold of the first-piece factor over the HN pieces, must equal the
product form at q = 2..5: the flags of the type at each vertex, times
q to the free arrow entries above the block diagonal, times the
semistable counts of the pieces.  The stratum polynomials of all HN
types, built from the semistable counts the two-step recursion returns,
must sum to the point count of the whole space, and every nonzero
semistable count must be monic of degree dim R(e).  The runs are
derandomized and keep no example database, so they repeat exactly.
"""

import tempfile
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir
import pytest

from quivercount import (CountPolynomial, Quiver, TheoremViolation, counting,
                         enumerate_hn_types, gl_order, kronecker,
                         rep_count_poly, rep_space_dim, semistable_count_polys,
                         stratum_count_poly)
from quivercount.counting import gaussian_binomial

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=100)

# Hypothesis caches the constants it reads from source files while tests
# are collected; keep that cache out of the working tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@st.composite
def problems(draw):
    """A random small quiver, dimension vector and character."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    dims = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                .filter(lambda d: 0 < sum(d) <= 7))
    theta = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    return Quiver(n, tuple(arrows)), tuple(dims), tuple(theta)


def flag_count(n, parts, q):
    """Flags in GF(q)^n with quotients of the given sizes, as an integer:
    |GL_n| over q^(sum of p_k * p_l, k > l) times the |GL_(p_k)|."""
    exponent = sum(parts[k] * parts[l]
                   for k in range(len(parts)) for l in range(k))
    denominator = q**exponent * prod(gl_order(p, q) for p in parts)
    count, rest = divmod(gl_order(n, q), denominator)
    assert rest == 0
    return count


def fiber_exponent(quiver, beta):
    """Free arrow matrix entries once a flag of type beta is preserved:
    the blocks from a later piece to an earlier one."""
    pieces = beta.pieces
    return sum(pieces[k][i] * pieces[l][j] for (i, j) in quiver.arrows
               for k in range(len(pieces)) for l in range(k))


@pytest.mark.parametrize("n", range(8))
def test_gaussian_binomial_counts_subspaces(n):
    for k in range(n + 1):
        poly = gaussian_binomial(n, k)
        assert all(type(c) is int for c in poly.coeffs)
        for q in range(2, 6):
            assert poly(q) == flag_count(n, (k, n - k), q)


@DETERMINISTIC
@given(problems())
def test_strata_match_the_product_form(problem):
    # an oracle independent of the fold: the flags of the whole type at
    # each vertex, one q-power and every semistable factor at once
    quiver, dims, theta = problem
    ss = semistable_count_polys(quiver, dims, theta)
    for beta in enumerate_hn_types(quiver, dims, theta):
        poly = stratum_count_poly(quiver, beta, ss)
        for q in range(2, 6):
            flags = prod(flag_count(n, [p[i] for p in beta.pieces], q)
                         for i, n in enumerate(beta.ambient))
            assert poly(q) == flags * q**fiber_exponent(quiver, beta) * prod(
                ss[piece](q) for piece in beta.pieces)


@DETERMINISTIC
@given(problems())
def test_strata_from_the_recursion_sum_to_the_whole_space(problem):
    # the identity the recursion rests on, read type by type: the
    # returned counts hold every piece of every type
    quiver, dims, theta = problem
    ss = semistable_count_polys(quiver, dims, theta)
    strata = (stratum_count_poly(quiver, beta, ss)
              for beta in enumerate_hn_types(quiver, dims, theta))
    assert sum(strata, CountPolynomial.zero()) == rep_count_poly(quiver, dims)


@DETERMINISTIC
@given(problems())
def test_semistable_counts_are_monic_of_full_degree(problem):
    # the check inside the recursion passes, and what it checks holds
    quiver, dims, theta = problem
    for e, poly in semistable_count_polys(quiver, dims, theta).items():
        assert poly.is_zero() or (poly.degree, poly.coeffs[-1]) == (
            rep_space_dim(quiver, e), 1)


def test_a_non_monic_semistable_count_is_a_theorem_violation(monkeypatch):
    # with a broken point count 2 q^N of R(e), the semistable count of
    # (1, 0), which nothing destabilizes, is the constant 2
    monkeypatch.setattr(counting, "rep_count_poly",
                        lambda quiver, dims: CountPolynomial.monomial(
                            rep_space_dim(quiver, dims), 2))
    with pytest.raises(TheoremViolation, match="not monic of degree"):
        semistable_count_polys(kronecker(2), (1, 1), (1, 0))
