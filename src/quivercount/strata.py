"""Instability types, their listing under the type budgets, and the
table of the point count of every stratum of a space.

An instability type records the dimension vectors of the semistable
subquotients of a filtration; the slopes are always derived from the
character rather than stored, so a type cannot drift out of sync with
the stability data.
"""

from collections import namedtuple
from itertools import islice

from .errors import BudgetExceeded
from .quiver import (check_theta, check_vector, int_vector,
                     nonzero_subvectors, rep_space_dim, slope, slope_sets,
                     total_dim)

DEFAULT_MAX_TYPE_DIM = 64
MAX_TYPES = 2**15  # as many ids as a widened array("h") of scan type ids holds


class HNType(namedtuple("HNType", "theta pieces")):
    """An ordered decomposition d = d^1 + ... + d^n with strictly
    decreasing slopes; indexes one stratum."""

    __slots__ = ()

    def __new__(cls, theta, pieces):
        theta = int_vector(theta, "character")
        pieces = tuple(int_vector(p, "piece", nonnegative=True)
                       for p in pieces)
        if not pieces:
            raise ValueError("a type needs at least one piece")
        for piece in pieces:
            if len(piece) != len(theta):
                raise ValueError("piece length does not match the character")
            if total_dim(piece) == 0:
                raise ValueError("zero piece in an instability type")
        self = super().__new__(cls, theta, pieces)
        mus = self.slopes
        if any(a <= b for a, b in zip(mus, mus[1:])):
            raise ValueError("slopes must strictly decrease")
        return self

    @property
    def slopes(self):
        return tuple(slope(self.theta, piece) for piece in self.pieces)

    @property
    def ambient(self):
        return tuple(map(sum, zip(*self.pieces)))

    def is_trivial(self):
        return len(self.pieces) == 1

    def sort_key(self):
        return (len(self.pieces), self.pieces)

    def key_str(self):
        """Serialized form: dimension vectors as comma-joined integer
        tuples, semicolon separated, e.g. ``1,0;0,1``."""
        return ";".join(",".join(str(x) for x in piece) for piece in self.pieces)

    def __str__(self):
        return self.key_str()


def trivial_type(theta, dims):
    return HNType(tuple(theta), (tuple(dims),))


def check_type_budget(dims):
    """Reject the zero vector, which has no types, and a total dimension
    beyond the type budget (exit 3) before any recursion over types."""
    if total_dim(dims) == 0:
        raise ValueError("no types for the zero dimension vector")
    if total_dim(dims) > DEFAULT_MAX_TYPE_DIM:
        raise BudgetExceeded(f"total dimension {total_dim(dims)} exceeds "
                             f"the type budget {DEFAULT_MAX_TYPE_DIM}")


def enumerate_hn_types(quiver, dims, theta):
    """All ordered decompositions of the dimension vector into nonzero
    pieces with strictly decreasing slopes, the trivial type included.

    Sorted by (number of pieces, pieces lexicographically), so the
    trivial type always comes first.  Past MAX_TYPES types the listing
    stops with BudgetExceeded.
    """
    dims = check_vector(quiver, dims, "dimension vector")
    theta = check_theta(quiver, theta)
    check_type_budget(dims)
    rank = slope_sets(theta, dims)[0]  # every piece is a subvector of dims
    # per remaining vector, its (rank, piece, what is left) triples,
    # built the first time the vector is reached
    splits = {}

    def rest(remaining, bound):
        if total_dim(remaining) == 0:
            yield ()
            return
        choices = splits.get(remaining)
        if choices is None:
            choices = splits[remaining] = [
                (rank[piece], piece,
                 tuple(r - p for r, p in zip(remaining, piece)))
                for piece in nonzero_subvectors(remaining)]
        for mu, piece, tail_remaining in choices:
            if mu >= bound:
                continue
            for tail in rest(tail_remaining, mu):
                yield (piece,) + tail

    # every rank is below len(rank), so that bound admits every first piece
    found = list(islice(rest(dims, len(rank)), MAX_TYPES + 1))
    if len(found) > MAX_TYPES:
        raise BudgetExceeded(f"more than {MAX_TYPES} HN types of {dims} "
                             f"exceed the type-count budget")
    types = [HNType(theta, pieces) for pieces in found]
    types.sort(key=HNType.sort_key)
    return types


class StratumTable(namedtuple("StratumTable", "quiver dims theta q counts")):
    """Exact point count of every nonempty stratum of one space: the
    counts dict maps an HNType to its points."""

    __slots__ = ()

    def total(self):
        return sum(self.counts.values())

    def expected_total(self):
        return self.q**rep_space_dim(self.quiver, self.dims)

    def trivial_count(self):
        """Points of the open stratum, i.e. the semistable locus."""
        return self.counts.get(trivial_type(self.theta, self.dims), 0)

    def sorted_items(self):
        return sorted(self.counts.items(), key=lambda kv: kv[0].sort_key())

    def serialize_lines(self):
        """One line per type: the type key, a space, the count."""
        return [f"{beta.key_str()} {count}" for beta, count in self.sorted_items()]
