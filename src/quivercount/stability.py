"""Slope semistability, maximal destabilizing subrepresentations and the
Harder-Narasimhan filtration, computed point by point.

The quantifier "for all subrepresentations" is realized by exhaustive
enumeration, which is correct by construction at the scales this
package targets.  Bulk classification of whole representation spaces
lives in the exhaustive module; the functions here are the reference
route for a single representation.
"""

from dataclasses import dataclass

from .errors import TheoremViolation
from .quiver import slope_ranks
from .rep import (DEFAULT_MAX_TUPLES, Filtration, SubspaceTuple, contains,
                  enumerate_subreps, pullback, quotient_rep)
from .strata import HNType

UNSTABLE = "unstable"
SEMISTABLE = "semistable"
SEMISTABLE_NOT_STABLE = "semistable_not_stable"
STABLE = "stable"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a stability test, with a witness subrepresentation.

    For an unstable representation the witness strictly exceeds the
    ambient slope; for a strictly semistable one it is a proper nonzero
    subrepresentation of equal slope.
    """

    status: str
    witness: SubspaceTuple | None = None

    def is_semistable(self):
        return self.status != UNSTABLE


def _slope_ranks(M, theta):
    """The slope rank table of M's subvectors and the rank of M itself."""
    dims = M.space.dims
    if sum(dims) == 0:
        raise ValueError("stability is undefined for the zero dimension vector")
    ranks = slope_ranks(tuple(theta), dims)
    return ranks, ranks[dims]


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
    ranks, mu = _slope_ranks(M, theta)
    equal_witness = None
    for S in enumerate_subreps(M, max_tuples=max_tuples):
        if S.total_dim == 0 or S.is_full():
            continue
        mu_s = ranks[S.dims]
        if mu_s > mu:
            return StabilityVerdict(UNSTABLE, S)
        if mu_s == mu and equal_witness is None:
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
    ranks, mu = _slope_ranks(M, theta)
    field = M.space.field
    best_key = None
    maximizers = []
    same_slope = []
    for S in enumerate_subreps(M, max_tuples=max_tuples):
        if S.total_dim == 0:
            continue
        key = (ranks[S.dims], S.total_dim)
        if best_key is None or key[0] > best_key[0]:
            best_key = key
            maximizers = [S]
            same_slope = [S]
        elif key[0] == best_key[0]:
            same_slope.append(S)
            if key[1] > best_key[1]:
                best_key = key
                maximizers = [S]
            elif key[1] == best_key[1]:
                maximizers.append(S)
    if best_key is None or best_key[0] <= mu:
        return SubspaceTuple.full(M.space.dims)
    if len(maximizers) > 1:
        raise TheoremViolation(
            "non-unique maximal destabilizing subrepresentation "
            f"(dims {[m.dims for m in maximizers]})")
    best = maximizers[0]
    for S in same_slope:
        if not contains(field, best, S):
            raise TheoremViolation(
                "maximal destabilizing subrepresentation does not contain a "
                f"subrepresentation of equal slope (dims {S.dims})")
    return best


def hn_filtration(M, theta, max_tuples=DEFAULT_MAX_TUPLES):
    """The unique filtration with semistable subquotients of strictly
    decreasing slope, built by repeatedly extracting the maximal
    destabilizing subrepresentation of the successive quotients.

    Returns the filtration (as subspace tuples of the ambient space)
    together with its instability type; a semistable M yields the
    trivial one-step type.
    """
    space = M.space
    field = space.field
    if sum(space.dims) == 0:
        raise ValueError("the zero dimension vector has no filtration type")
    steps = [SubspaceTuple.zero(space.dims)]
    pieces = []
    current = steps[0]
    quotient = M
    while True:
        T = maximal_destabilizing(quotient, theta, max_tuples=max_tuples)
        step = pullback(field, current, T.bases)
        pieces.append(tuple(b - a for a, b in zip(current.dims, step.dims)))
        steps.append(step)
        if step.is_full():
            break
        current = step
        quotient = quotient_rep(M, current)
    return Filtration(tuple(steps)), HNType(tuple(theta), tuple(pieces))
