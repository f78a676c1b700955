import pytest

from quivercount import (Quiver, SubspaceTuple, enumerate_subreps,
                         field_table, is_semistable, kronecker, pullback,
                         quotient_rep, slope, sub_rep)


@pytest.fixture(scope="session")
def f2():
    return field_table(2)


@pytest.fixture(scope="session")
def f3():
    return field_table(3)


@pytest.fixture(scope="session")
def f4():
    return field_table(4)


@pytest.fixture(scope="session")
def f5():
    return field_table(5)


def a2_quiver():
    return Quiver(2, ((0, 1),))


def k2_quiver():
    return kronecker(2)


def k3_quiver():
    return kronecker(3)


_SS_MEMO = {}


def _semistable_cached(M, theta):
    # pieces recur massively across the chain search; the check itself is
    # still the package's subrepresentation scan, just not repeated
    key = (M.space.quiver.arrows, M.space.field.q, M.space.dims, M.index, theta)
    if key not in _SS_MEMO:
        _SS_MEMO[key] = is_semistable(M, theta).is_semistable()
    return _SS_MEMO[key]


def brute_force_filtrations(M, theta):
    """Every filtration of M with semistable subquotients and strictly
    decreasing slopes, found by searching over all chains of
    subrepresentations.  Never consults the filtration procedure, so it
    serves as the uniqueness oracle."""
    space = M.space
    field = space.field
    theta = tuple(theta)
    results = []

    def search(current, quotient, bound, chain):
        for S in enumerate_subreps(quotient):
            if S.total_dim == 0:
                continue
            mu = slope(theta, S.dims)
            if bound is not None and mu >= bound:
                continue
            if not _semistable_cached(sub_rep(quotient, S), theta):
                continue
            step = pullback(current, S)
            if step.is_full():
                results.append(tuple(chain + [step]))
            else:
                search(step, quotient_rep(M, step), mu, chain + [step])

    search(SubspaceTuple.zero(field, space.dims), M, None, [])
    return results


def norm_one_torus_count(n):
    """Order of the kernel of the norm of the quadratic extension algebra
    over GF(2^n).

    The quadratic is the canonical modulus of GF(4) over GF(2),
    y^2 + c1*y + c0; the two roots multiply to c0 and sum to -c1, so
    the norm of a + b*y is a^2 - c1*a*b + c0*b^2, evaluated with GF(2^n)
    table arithmetic (the coefficients are 0/1, so they embed
    unchanged).  For odd n the algebra is the field GF(2^(2n)); for
    even n it splits, which is why the count is not monotone in n.
    """
    f4 = field_table(4)
    c0, c1 = f4.modulus[0], f4.modulus[1]
    fn = field_table(2**n)
    count = 0
    for a in range(fn.q):
        aa = fn.mul(a, a)
        for b in range(fn.q):
            val = fn.add(
                fn.sub(aa, fn.mul(c1, fn.mul(a, b))),
                fn.mul(c0, fn.mul(b, b)))
            if val == 1:
                count += 1
    return count
