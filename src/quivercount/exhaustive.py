"""Exhaustive classification of whole representation spaces.

Two independent routes compute the stratum table:

* ``classify_direct`` runs the filtration procedure point by point; it
  is the reference route and can spread index ranges over worker
  processes.  A point's type is the dimension vectors of its
  ``stability.hn_chain`` (T, the chain of M/T), the walk that
  ``hn_filtration`` lifts, with the quotients' chains memoized by
  ``rep.quotient_key`` (dimension vector, index) for one index range,
  so each worker classifies a distinct quotient once and builds a
  quotient point only then.  What depends only on the space and theta
  is done once per space, not per point: the slope ranks and
  admissible sets (``quiver.slope_sets``), the tuple budget check and
  the record trees, whose nodes keep the records that contain each
  image set seen.
* ``classify_scan`` turns the quantifier around: for every candidate
  destabilizing subspace tuple it enumerates the representations that
  preserve it.  Preserving a fixed tuple is a linear condition, so the
  preserving set has a product parametrization (restriction block,
  mixing block, quotient block), in the restriction and quotient
  coordinates of the catalog records' coords tables (see the rep module
  docstring).  Per arrow a block table holds the codes of the preserving
  matrices in one array("q") per restriction block, beside one array of
  the quotient blocks that every restriction shares; scaled by strides
  they make (index, pair) entries: restriction u and quotient w make the
  pair u * W + w, W the quotient space's point count, so entries add up
  to pair indices.  A table is built in codes: a preserving matrix is
  the images of the source basis times the source's coordinate map, one
  action-table lookup per row, row i of every matrix at once from column
  sums.  Points come in rows: a row fixes every arrow but arrow 0, whose
  stride is 1, and its points are its offsets plus each entry of arrow
  0's list, a loop the scan runs inline through memoryviews that start
  at the row's offsets, so a point costs no index addition.  A point's
  type id, a bytearray entry (an array("h") one from the table's 257th
  type on), is 0 while it is free.  A type's first piece fixes its
  group, so the ids a group interns exceed every earlier group's, and an
  id at least the group's first id is a second hit inside the claiming
  group, which breaks uniqueness.  On the first hit one lookup in a pair
  table, built per destabilizer dimension vector, gives the quotient's
  type id, or a marker past the quotient's ids where the restriction is
  not semistable, which the rare new-type branch rejects; the type is
  one id per (first piece, quotient type).  So a preserved point costs a
  few additions and lookups instead of a subspace search.  This is what
  makes million-point spaces affordable.

The two engines are compared on every small instance by the test
suite.  The same rows count, for every point, all filtrations with
semistable subquotients and strictly decreasing slopes (the uniqueness
oracle for the filtration procedure).
"""

import os
from array import array
from collections import Counter, namedtuple
from functools import partial
from itertools import product
from operator import add

from . import stability
from .errors import BudgetExceeded, TheoremViolation
from .linalg import action_table, decode_vector
from .quiver import (check_theta, nonzero_subvectors, slope, slope_sets,
                     total_dim)
from .rep import (DEFAULT_MAX_REPS, DEFAULT_MAX_TUPLES, RepSpace,
                  catalog_dim, check_rep_budget, check_tuple_budget)
from .strata import MAX_TYPES, HNType, StratumTable, trivial_type

BYTE_IDS = 256  # the type ids a bytearray holds; the next type widens it


class BlockTable:
    """All matrices carrying the source record's subspace into the target
    record's, tabulated with their restriction and quotient blocks.

    ``quots`` is an array("q") of the encoded quotient maps (in the free
    coordinates), one per choice of free images, and ``by_sub`` maps the
    encoded restricted map (in the subspace bases) to an array("q") of
    the encoded matrices with that restriction, position j pairing with
    ``quots[j]``; both in the coordinates of the target record's coords
    table, which sub_rep and quotient_rep read too.  Every code is below
    the point count of a space that passed the representation budget.

    A preserving matrix is A = M C, built in codes: the columns of M are
    the images of the source basis (its RREF rows, each sent into the
    target by a restriction coordinate, then its free unit vectors, each
    sent anywhere), and row j of C is the coordinate vector of e_j in
    that basis, read from the source's coords table.  So row i of A is
    the action table of C at row i of M.  The columns of M sit at
    disjoint digits, so row i of M for every choice of columns, in
    product order, is a sum of one digit per column, exact for every q.
    """

    __slots__ = ("by_sub", "quots")

    def __init__(self, src, tgt):
        field, q = src.field, src.field.q
        n, ks, kt, nt = src.n, src.k, tgt.k, tgt.n
        # the target vector sum_r y[r] * row_r by restriction coordinate y
        span = action_table(field, tuple(zip(*tgt.rows)), kt)
        # C: row j is the coordinate vector of e_j, its y digits then its z
        times_c = action_table(field, [
            decode_vector(y + z * q**ks, n, q)
            for y, z in (src.coords[q**j] for j in range(n))], n)
        zs = [z for _, z in tgt.coords]
        keys = list(column_codes([range(q**kt)] * ks, kt, q))
        self.quots = array("q", column_codes([zs] * (n - ks), nt - kt, q))
        width = len(self.quots)
        # the columns of M: the restriction images, then the free images
        columns = [span] * ks + [range(q**nt)] * (n - ks)
        codes = [0] * (len(keys) * width)
        for i in range(nt):
            weighted = [c * q**(i * n) for c in times_c]
            row = column_codes([[c // q**i % q for c in col] for col in columns],
                               1, q)
            codes = list(map(add, codes, map(weighted.__getitem__, row)))
        self.by_sub = {key: array("q", codes[j * width:(j + 1) * width])
                       for j, key in enumerate(keys)}


def column_codes(columns, rows, q):
    """encode_columns(cols, rows, q) for every cols in product(*columns),
    in product order.  The columns sit at disjoint digits, so a code is
    the integer sum of one contribution per column."""
    n = len(columns)
    return map(sum, product(*(
        [sum(c // q**i % q * q**(i * n + j) for i in range(rows)) for c in col]
        for j, col in enumerate(columns))))


def pair_table(sub_ids, ids, marks):
    """The table read at pair index u * len(ids) + w: per restriction u,
    the quotient's ``ids`` where u's type id is 0 (semistable) and
    ``marks`` elsewhere, built one restriction at a time."""
    table = ids[:0]
    for t in sub_ids:
        table += marks if t else ids
    return table


class SpaceTable(namedtuple("SpaceTable", "dims types type_ids counts")):
    """Classification of one representation space: the interned types and
    the type of every point by index."""

    __slots__ = ()


class ScanClassifier:
    """Subspace-major classification, memoized over dimension vectors.

    Candidate destabilizing tuples are visited in decreasing
    (slope rank, total dimension) order; the first group that preserves a
    point names its maximal destabilizing subrepresentation, and the
    quotient is looked up in the table of the smaller space.  Uniqueness
    of the maximizer and semistability of the extracted piece are
    asserted on every point.  Block tables are cached on the classifier,
    so they live as long as the problem that built them.
    """

    def __init__(self, quiver, theta, field, max_reps=DEFAULT_MAX_REPS,
                 max_tuples=DEFAULT_MAX_TUPLES):
        self.quiver = quiver
        self.theta = check_theta(quiver, theta)
        self.field = field
        self.max_reps = max_reps
        self.max_tuples = max_tuples
        self.tables = {}
        self.block_tables = {}

    def triples(self, dims, records):
        """Per arrow, the (index, pair) entries of the matrices preserving
        the subspace tuple with catalog records ``records`` in the space
        of dims.  For restriction u and quotient w, each scaled by the
        arrow's stride in the space of the records' dimension vector e and
        of dims - e, the pair is u * W + w, W the quotient space's point
        count, so sums of entries are pair indices u * W + w too.  Block
        tables are kept by (source record, target record)."""
        quiver, field = self.quiver, self.field
        e = tuple(r.k for r in records)
        quot_dims = tuple(d - x for d, x in zip(dims, e))
        spaces = [RepSpace(quiver, v, field) for v in (dims, e, quot_dims)]
        W = spaces[2].point_count
        strides = zip(*(space.arrow_strides for space in spaces))
        lists = []
        for (s, t), (ps, ss, qs) in zip(quiver.arrows, strides):
            key = (records[s], records[t])
            table = self.block_tables.get(key)
            if table is None:
                table = self.block_tables[key] = BlockTable(*key)
            lists.append([(a * ps, u * ss * W + w * qs)
                          for u, codes in table.by_sub.items()
                          for a, w in zip(codes, table.quots)])
        return lists

    def rows(self, dims, e):
        """The points of the space of dims preserving a subspace tuple of
        dimension vector e, once per tuple, as rows (i0, x0, last).

        A row fixes every arrow but arrow 0, whose stride is 1: its points
        are the (index, pair) entries (i0 + i, x0 + x) for (i, x) in
        ``last``, arrow 0's list, a loop the caller runs.  An arrowless
        quiver has one point, the empty sum.
        """
        for records in product(*(catalog_dim(self.field, n, k)
                                 for n, k in zip(dims, e))):
            last, *outer = self.triples(dims, records) or [[(0, 0)]]
            for combo in product(*outer):
                i0, x0 = map(sum, zip((0, 0), *combo))
                yield i0, x0, last

    def table(self, dims):
        dims = tuple(dims)
        if dims in self.tables:
            return self.tables[dims]
        if total_dim(dims) == 0:
            raise ValueError("cannot classify the zero dimension vector")
        quiver, theta, field = self.quiver, self.theta, self.field
        N = check_rep_budget(RepSpace(quiver, dims, field), self.max_reps)
        check_tuple_budget(dims, field.q, self.max_tuples)

        ranks, mu, _, _ = slope_sets(theta, dims)
        groups = {}
        for e, r in ranks.items():
            if r > mu:
                groups.setdefault((r, total_dim(e)), []).append(e)

        types = [trivial_type(theta, dims)]
        counts = [0]
        type_ids = bytearray(N)
        for key in sorted(groups, reverse=True):
            first = len(types)  # this group's types get ids from here on
            for e in groups[key]:
                quot_dims = tuple(d - x for d, x in zip(dims, e))
                sub_ids = self.table(e).type_ids
                quot = self.table(quot_dims)
                # the quotient's type id per (restriction, quotient) pair,
                # or bad where the restriction is not semistable; iter():
                # array("H", a bytearray) would read byte pairs
                bad = len(quot.types)
                ids = array("H", iter(quot.type_ids))
                marks = array("H", [bad]) * len(ids)
                pairs = memoryview(pair_table(sub_ids, ids, marks))
                lift = [None] * (bad + 1)
                view = memoryview(type_ids)
                for i0, x0, last in self.rows(dims, e):
                    # the row's points and pairs, read at offsets i and x
                    here, there = view[i0:], pairs[x0:]
                    for i, x in last:
                        claimed = here[i]
                        if claimed:
                            if claimed >= first:
                                raise TheoremViolation(
                                    "non-unique maximal destabilizing "
                                    f"subrepresentation at index {i0 + i} of {dims}")
                            continue
                        qt = there[x]
                        tid = lift[qt]
                        if tid is None:
                            if qt == bad:
                                raise TheoremViolation(
                                    "extracted maximal destabilizing piece is not "
                                    f"semistable at index {i0 + i} of {dims}")
                            pieces = (e,) + quot.types[qt].pieces
                            if key[0] <= ranks[pieces[1]]:
                                raise TheoremViolation(
                                    "HN slopes do not strictly decrease: "
                                    f"{list(pieces)} at index {i0 + i} of {dims}")
                            # new (e, qt): other pairs give other pieces
                            tid = len(types)
                            if tid >= MAX_TYPES:
                                raise BudgetExceeded(
                                    f"more than {MAX_TYPES} types "
                                    f"in the space of {dims}")
                            if tid == BYTE_IDS:
                                # array("h", a bytearray) reads byte pairs;
                                # the views move to the new array at once
                                type_ids = array("h", iter(type_ids))
                                view = memoryview(type_ids)
                                here = view[i0:]
                            types.append(HNType(theta, pieces))
                            counts.append(0)
                            lift[qt] = tid
                        here[i] = tid
                        counts[tid] += 1

        counts[0] = N - sum(counts)
        result = SpaceTable(dims, types, type_ids,
                            {t: n for t, n in zip(types, counts) if n})
        self.tables[dims] = result
        return result


def classify_scan(quiver, dims, theta, field, max_reps=DEFAULT_MAX_REPS,
                  max_tuples=DEFAULT_MAX_TUPLES):
    """The stratum table via the subspace-major engine."""
    classifier = ScanClassifier(quiver, theta, field, max_reps, max_tuples)
    counts = dict(classifier.table(tuple(dims)).counts)
    return StratumTable(quiver, tuple(dims), tuple(theta), field.q, counts)


# ---------------------------------------------------------------------------
# direct (point-by-point) engine


def _direct_range(quiver, dims, theta, field, start, stop, max_tuples):
    """The HN type counts, by pieces, of the points start .. stop - 1,
    with one hn_chain memo for the call: each quotient is walked once."""
    space = RepSpace(quiver, dims, field)
    memo = {}
    counter = Counter()
    for idx in range(start, stop):
        chain = stability.hn_chain(space.rep(idx), theta, max_tuples, memo)
        counter[tuple(T.dims for T in chain)] += 1
    return counter


POOL_MIN_POINTS = 5000  # below this the pool startup outweighs the work


def classify_direct(quiver, dims, theta, field, workers=1,
                    max_reps=DEFAULT_MAX_REPS, max_tuples=DEFAULT_MAX_TUPLES):
    """Stratum counts via the filtration procedure on every point.

    With ``workers`` > 1 the index range is split over a process pool of
    at most os.cpu_count() processes; partial tables merge by addition.
    """
    dims = tuple(dims)
    theta = check_theta(quiver, theta)
    workers = min(workers, os.cpu_count() or 1)
    N = check_rep_budget(RepSpace(quiver, dims, field), max_reps)
    if workers <= 1 or N < POOL_MIN_POINTS:
        merged = _direct_range(quiver, dims, theta, field, 0, N, max_tuples)
    else:
        chunk = -(-N // (2 * workers))
        starts = range(0, N, chunk)
        stops = [min(lo + chunk, N) for lo in starts]
        job = partial(_direct_range, quiver, dims, theta, field,
                      max_tuples=max_tuples)
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            merged = sum(pool.map(job, starts, stops), Counter())
    return {HNType(theta, pieces): n for pieces, n in merged.items()}


# ---------------------------------------------------------------------------
# filtration counting (the uniqueness oracle)


class FiltrationCounter:
    """For every point, the number of filtrations with semistable
    subquotients and strictly decreasing slopes, in an array("q"), written
    through a memoryview, which raises ValueError rather than wrap a count.

    Organized like the scan classifier: a filtration is a first step (a
    subspace tuple) plus a filtration of the quotient with slopes below
    the first slope, so the count table of a space is assembled from
    count tables of smaller spaces keyed by a slope bound.  The scan's
    rows are read through a pair table that holds the quotient's count
    where the restriction is semistable and 0 elsewhere, so a preserved
    point takes one addition.  The recursion never consults the
    filtration procedure, which is what makes it an independent
    uniqueness oracle.
    """

    def __init__(self, classifier):
        self.classifier = classifier
        self.memo = {}

    def counts(self, dims, bound=None):
        """Count table for the space, all zeros where no filtration fits.

        ``bound`` restricts to filtrations whose first slope is
        strictly below it; None means unrestricted.
        """
        dims = tuple(dims)
        if (dims, bound) in self.memo:
            return self.memo[dims, bound]
        cls = self.classifier
        theta = cls.theta
        if bound is None or slope(theta, dims) < bound:
            out = array("q", (t == 0 for t in cls.table(dims).type_ids))
        else:
            out = array("q", [0]) * RepSpace(
                cls.quiver, dims, cls.field).point_count
        view = memoryview(out)
        for e in nonzero_subvectors(dims):
            if e == dims:
                continue
            mu_e = slope(theta, e)
            if bound is not None and mu_e >= bound:
                continue
            quot_dims = tuple(d - x for d, x in zip(dims, e))
            child = self.counts(quot_dims, mu_e)
            if not any(child):
                continue
            pairs = memoryview(pair_table(cls.table(e).type_ids, child,
                                          array("q", [0]) * len(child)))
            for i0, x0, last in cls.rows(dims, e):
                here, there = view[i0:], pairs[x0:]
                for i, x in last:
                    here[i] += there[x]
        self.memo[dims, bound] = out
        return out


def count_hn_filtrations(quiver, dims, theta, field, max_reps=DEFAULT_MAX_REPS,
                         max_tuples=DEFAULT_MAX_TUPLES):
    """Filtration count of every point by representation index, an array("q")."""
    classifier = ScanClassifier(quiver, theta, field, max_reps, max_tuples)
    return FiltrationCounter(classifier).counts(tuple(dims), None)
