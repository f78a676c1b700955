import random

import pytest

from quivercount import (BudgetExceeded, CountPolynomial, CountSamples,
                         field_table, interpolate_poly, kronecker,
                         strong_purity_check, torsor_orbit_count,
                         weak_purity_periodic_fit)
from quivercount.purity import INCONCLUSIVE, PERIODIC, STRONG

from conftest import norm_one_torus_count

T = CountPolynomial((0, 1))


def test_interpolate_line():
    poly = interpolate_poly([(2, 3), (3, 4), (4, 5), (5, 6)], 1)
    assert poly == T + 1


def test_interpolate_square():
    poly = interpolate_poly([(2, 4), (3, 9), (4, 16), (5, 25)], 2)
    assert poly == T * T


def test_interpolate_overdetermination_failure():
    assert interpolate_poly([(2, 3), (3, 4), (4, 5), (5, 7)], 1) is None


def test_interpolate_preconditions():
    with pytest.raises(ValueError):
        interpolate_poly([(2, 3)], 1)
    with pytest.raises(ValueError):
        interpolate_poly([(2, 3), (2, 4), (3, 5)], 1)
    with pytest.raises(ValueError):
        interpolate_poly([(2, 3), (3, 4)], -1)


def test_count_samples_validation():
    with pytest.raises(ValueError):
        CountSamples(1, ((1, 3),))
    with pytest.raises(ValueError):
        CountSamples(2, ((1, 3), (1, 4)))
    with pytest.raises(ValueError):
        CountSamples(2, ((0, 3),))
    with pytest.raises(ValueError):
        CountSamples(2, ((1, -3),))
    with pytest.raises(BudgetExceeded, match="2\\^65537 exceeds the sample"):
        CountSamples(2, ((2**16 + 1, 3),))
    CountSamples(2, ((2**16, 3),))  # 2^65536: at the budget, not past it
    s = CountSamples(2, ((3, 9), (1, 3)))
    assert s.samples == ((1, 3), (3, 9))
    assert s.points() == [(2, 3), (8, 9)]


@pytest.mark.parametrize("q,n", [(2, 65536), (3, 41348), (5, 28224)])
def test_sample_budget_is_exact_at_its_edge(q, n):
    # q^n <= 2^65536 < q^(n + 1): the last exponent passes, the next one
    # raises, compared in integers
    assert q**n <= 2**65536 < q**(n + 1)
    CountSamples(q, ((n, 1),))
    with pytest.raises(BudgetExceeded,
                       match=f"{q}\\^{n + 1} exceeds the sample budget"):
        CountSamples(q, ((n + 1, 1),))


def test_count_samples_accept_a_zero_count():
    # 0 is a count: the point count of an empty moduli space
    assert CountSamples(2, ((1, 0), (2, 5))).samples == ((1, 0), (2, 5))
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        CountSamples(2, ((1, -1),))


def test_strong_multiplicative_group():
    # |GF(q^n)*| = q^n - 1
    samples = CountSamples(2, tuple((n, 2**n - 1) for n in range(1, 5)))
    report = strong_purity_check(samples, 1)
    assert report.verdict == STRONG
    assert report.polynomials[0] == T - 1


def test_strong_projective_line_from_orbit_counts():
    counts = []
    for n in (1, 2, 3):
        field = field_table(2**n)
        counts.append((n, torsor_orbit_count(kronecker(2), (1, 1), (1, 0), field)))
    report = strong_purity_check(CountSamples(2, tuple(counts)), 1)
    assert report.verdict == STRONG
    assert report.polynomials[0] == T + 1


def test_orbit_count_towers_fit_the_moduli_polynomial():
    """For every coprime instance, orbit counts over F_2 and F_4 are fit
    by one polynomial, and it is the moduli counting polynomial."""
    from quivercount import Quiver, moduli_count_poly

    instances = [
        (kronecker(2), (1, 1)),
        (kronecker(3), (1, 1)),
        (Quiver(2, ((0, 1),)), (1, 1)),
    ]
    for quiver, dims in instances:
        poly = moduli_count_poly(quiver, dims, (1, 0))
        degree = max(poly.degree, 0)
        # enough samples to determine the degree, at least two
        counts = []
        for n in range(1, max(degree + 1, 2) + 1):
            field = field_table(2**n)
            counts.append((n, torsor_orbit_count(quiver, dims, (1, 0), field)))
        report = strong_purity_check(CountSamples(2, tuple(counts)), degree)
        assert report.verdict == STRONG
        assert report.polynomials[0] == poly


def test_norm_one_torus_counts_via_field_oracle():
    counts = [norm_one_torus_count(n) for n in range(1, 5)]
    assert counts == [3, 3, 9, 15]
    assert counts == [2**n - (-1)**n for n in range(1, 5)]


def test_weak_fit_norm_one_torus():
    samples = CountSamples(2, tuple((n, norm_one_torus_count(n))
                                    for n in range(1, 5)))
    report = weak_purity_periodic_fit(samples, 2, 1)
    assert report.verdict == PERIODIC
    assert report.period == 2
    assert report.polynomials == (T - 1, T + 1)
    # and a single polynomial does not fit
    assert strong_purity_check(samples, 1).verdict == INCONCLUSIVE


def test_strong_implies_weak_with_period_one():
    for counts in [
            tuple((n, 2**n - 1) for n in range(1, 5)),
            tuple((n, 2**n) for n in range(1, 5)),
            tuple((n, 4**n + 2**n + 1) for n in range(1, 4))]:
        samples = CountSamples(2, counts)
        degree = 2
        strong = strong_purity_check(samples, degree)
        weak = weak_purity_periodic_fit(samples, 1, degree)
        if strong.verdict == STRONG:
            assert weak.verdict == PERIODIC and weak.period == 1
            assert weak.polynomials == strong.polynomials


def test_power_counts_fit_period_one():
    samples = CountSamples(2, tuple((n, 2**n) for n in range(1, 5)))
    report = weak_purity_periodic_fit(samples, 1, 1)
    assert report.verdict == PERIODIC
    assert report.polynomials == (T,)


def test_reports_stable_under_reordering():
    pairs = [(n, norm_one_torus_count(n)) for n in range(1, 5)]
    rng = random.Random(4)
    for _ in range(5):
        rng.shuffle(pairs)
        report = weak_purity_periodic_fit(CountSamples(2, tuple(pairs)), 2, 1)
        assert report.polynomials == (T - 1, T + 1)


def test_non_integer_fit_is_inconclusive():
    # counts q^n / 2 fit a rational polynomial only
    samples = CountSamples(2, ((1, 1), (2, 2), (3, 4)))
    report = strong_purity_check(samples, 1)
    assert report.verdict == INCONCLUSIVE
    assert "non-integer" in report.details


def test_weak_fit_insufficient_class():
    samples = CountSamples(2, ((1, 3), (2, 3), (3, 9)))
    with pytest.raises(ValueError):
        weak_purity_periodic_fit(samples, 2, 1)


def test_report_lines():
    samples = CountSamples(2, tuple((n, 2**n - 1) for n in range(1, 5)))
    lines = strong_purity_check(samples, 1).format_lines()
    assert lines[0] == "verdict: strong-polynomial"
    assert lines[1] == "P: t - 1"
