"""Slope semistability, maximal destabilizing subrepresentations and the
Harder-Narasimhan filtration, computed point by point.

The quantifier "for all subrepresentations" is realized by exhaustive
enumeration of the dimension vectors of slope above mu(M) (at least
mu(M) for the stability tests): a subrepresentation of lower slope can
neither destabilize M (King 1994) nor share the slope of the maximal
destabilizing one (Reineke 2003).  These functions are the reference
route for one representation; the exhaustive module classifies spaces.
"""

from collections import namedtuple
from itertools import accumulate

from .errors import TheoremViolation
from .quiver import check_theta, slope_sets
from .rep import (DEFAULT_MAX_TUPLES, Filtration, SubspaceTuple, contains,
                  enumerate_subreps, pullback, quotient_key, quotient_rep)
from .strata import HNType

UNSTABLE = "unstable"
SEMISTABLE = "semistable"
SEMISTABLE_NOT_STABLE = "semistable_not_stable"
STABLE = "stable"


class StabilityVerdict(namedtuple("StabilityVerdict", "status witness",
                                  defaults=(None,))):
    """Outcome of a stability test, with a witness subrepresentation (a
    SubspaceTuple, or None).

    For an unstable representation the witness strictly exceeds the
    ambient slope; for a strictly semistable one it is a proper nonzero
    subrepresentation of equal slope.
    """

    __slots__ = ()

    def is_semistable(self):
        return self.status != UNSTABLE


def _slope_sets(M, theta):
    """quiver.slope_sets of M's dimension vector, theta checked first."""
    return slope_sets(check_theta(M.space.quiver, theta), M.space.dims)


def is_semistable(M, theta, max_tuples=DEFAULT_MAX_TUPLES):
    """King's test: M is semistable iff no nonzero subrepresentation has
    slope exceeding the slope of M.  The full tuple never does, so this
    is is_stable's scan with its two semistable verdicts merged."""
    verdict = is_stable(M, theta, max_tuples=max_tuples)
    if verdict.status == UNSTABLE:
        return verdict
    return StabilityVerdict(SEMISTABLE)


def is_stable(M, theta, max_tuples=DEFAULT_MAX_TUPLES):
    """Three-way verdict: stable, strictly semistable, or unstable."""
    ranks, mu, _, upper = _slope_sets(M, theta)
    equal_witness = None
    for S in enumerate_subreps(M, max_tuples=max_tuples, admissible=upper):
        if ranks[S.dims] > mu:
            return StabilityVerdict(UNSTABLE, S)
        if equal_witness is None:
            equal_witness = S
    if equal_witness is not None:
        return StabilityVerdict(SEMISTABLE_NOT_STABLE, equal_witness)
    return StabilityVerdict(STABLE)


def maximal_destabilizing(M, theta, max_tuples=DEFAULT_MAX_TUPLES):
    """The subrepresentation of maximal slope and, among those, maximal
    total dimension.

    For a semistable M this is the full tuple by convention, which makes
    the filtration procedure below total.  The maximizer is required to
    be unique and to contain every other subrepresentation of the same
    slope; a violation means the theory's uniqueness statement failed
    and is reported loudly.
    """
    ranks, _, above, _ = _slope_sets(M, theta)
    found = list(enumerate_subreps(M, max_tuples=max_tuples, admissible=above))
    if not found:
        return SubspaceTuple.full(M.space.field, M.space.dims)
    top = max(ranks[S.dims] for S in found)
    same_slope = [S for S in found if ranks[S.dims] == top]
    size = max(S.total_dim for S in same_slope)
    maximizers = [S for S in same_slope if S.total_dim == size]
    if len(maximizers) > 1:
        raise TheoremViolation(
            "non-unique maximal destabilizing subrepresentation "
            f"(dims {[m.dims for m in maximizers]})")
    best = maximizers[0]
    for S in same_slope:
        if not contains(best, S):
            raise TheoremViolation(
                "maximal destabilizing subrepresentation does not contain a "
                f"subrepresentation of equal slope (dims {S.dims})")
    return best


def hn_chain(M, theta, max_tuples, memo):
    """The maximal destabilizing subrepresentations T1 of M, T2 of M/T1,
    T3 of (M/T1)/T2, ..., the last one full, each in its own quotient's
    coordinates.  The chain of each quotient is kept in ``memo`` under
    its quotient_key, and the quotient point is built only on a miss;
    each link checks, in the slope ranks of the tuple ``theta``, that the
    slope of T exceeds the next piece's."""
    T = maximal_destabilizing(M, theta, max_tuples=max_tuples)
    if T.is_full():
        return (T,)
    key = quotient_key(M, T)
    tail = memo.get(key)
    if tail is None:
        Q = quotient_rep(M, T)
        tail = memo[key] = hn_chain(Q, theta, max_tuples, memo)
    ranks = slope_sets(theta, M.space.dims)[0]
    if ranks[T.dims] <= ranks[tail[0].dims]:
        raise TheoremViolation("HN slopes do not strictly decrease: "
                               f"{[S.dims for S in (T, *tail)]}")
    return (T, *tail)


def hn_filtration(M, theta, max_tuples=DEFAULT_MAX_TUPLES):
    """The unique filtration with semistable subquotients of strictly
    decreasing slope: hn_chain's pieces, each lifted onto the step
    before it.

    Returns the filtration (as subspace tuples of the ambient space)
    together with its instability type; a semistable M yields the
    trivial one-step type.
    """
    space = M.space
    if sum(space.dims) == 0:
        raise ValueError("the zero dimension vector has no filtration type")
    chain = hn_chain(M, tuple(theta), max_tuples, {})
    steps = accumulate(chain, pullback)
    # the zero step last: its catalogs are built only once the first
    # search has checked the tuple budget
    zero = SubspaceTuple.zero(space.field, space.dims)
    return (Filtration((zero, *steps)),
            HNType(tuple(theta), tuple(T.dims for T in chain)))
