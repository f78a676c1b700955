"""Property tests of the flag factor and the semistable recursion.

Random small quivers, loops and 2-cycles included, dimension vectors of
total dimension at most 7 and characters.  The flag factor of every HN
type, a product of cached per-vertex Gaussian multinomials, must equal
the group order divided by the parabolic order, and every multinomial
must count flags at q = 2..5.  The stratum polynomials of all HN types,
built from the semistable counts the two-step recursion returns, must
sum to the point count of the whole space.  The runs are derandomized
and keep no example database, so they repeat exactly.
"""

import tempfile
from math import prod

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from quivercount import (CountPolynomial, Quiver, enumerate_hn_types,
                         flag_count_poly, gl_order, group_order_poly,
                         parabolic_order_poly, rep_count_poly,
                         semistable_count_polys, stratum_count_poly)
from quivercount.counting import gaussian_multinomial

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


@DETERMINISTIC
@given(problems())
def test_flag_factor_is_group_order_over_parabolic_order(problem):
    quiver, dims, theta = problem
    for beta in enumerate_hn_types(quiver, dims, theta):
        assert flag_count_poly(beta) == group_order_poly(
            beta.ambient).div_exact(parabolic_order_poly(beta))
        for i, n in enumerate(beta.ambient):
            parts = tuple(sorted(p[i] for p in beta.pieces if p[i]))
            poly = gaussian_multinomial(n, parts)
            assert all(type(c) is int for c in poly.coeffs)
            for q in range(2, 6):
                assert poly(q) == flag_count(n, parts, q)


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
