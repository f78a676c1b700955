"""Property tests of the subspace and subrepresentation layer, the
enumeration restricted to admissible dimension vectors and the lift of
a tuple from quotient coordinates included, of the scan, its rows of
preserving points included, of the action tables and image sets a space
holds, and of the direct route's counts and quotient keys, against the
definitions.

Random small quivers (loops, parallel arrows and 2-cycles all occur),
dimension vectors of total dimension at most 4, catalog records of
GF(q)^n with n <= 4, and q in {2, 3, 4}.  The runs are derandomized and
keep no example database, so they repeat exactly.
"""

import tempfile
from collections import Counter
from itertools import product

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from quivercount import (SEMISTABLE, SEMISTABLE_NOT_STABLE, STABLE, UNSTABLE,
                         Quiver, RepSpace, ScanClassifier, StabilityVerdict,
                         SubspaceTuple, classify_direct, count_hn_filtrations,
                         enumerate_subreps, enumerate_subspaces, field_table,
                         hn_filtration, is_semistable, is_stable, is_subrep,
                         maximal_destabilizing, pullback, quotient_rep, slope,
                         sub_rep)
from quivercount.linalg import decode_vector, encode_vector, mat_vec, rref
from quivercount.rep import (DEFAULT_MAX_TUPLES, _image_in_sub_coords,
                             quotient_key, subspace_catalog)
from quivercount.stability import hn_chain

from conftest import brute_force_filtrations

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=100)

# Hypothesis caches the constants it reads from source files while tests
# are collected; keep that cache out of the working tree
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@st.composite
def points(draw):
    """A representation of a random small quiver and a character."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    arrows = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    dims = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                .filter(lambda d: 0 < sum(d) <= 4))
    theta = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    q = draw(st.sampled_from((2, 3, 4)))
    space = RepSpace(Quiver(n, tuple(arrows)), dims, field_table(q))
    return space.rep(draw(st.integers(0, space.point_count - 1))), tuple(theta)


def definitional_subreps(M):
    """Every subspace tuple of M's space that is_subrep accepts, in
    catalog product order (the last vertex varies fastest)."""
    space = M.space
    per_vertex = [
        [basis for k in range(n + 1)
         for basis in enumerate_subspaces(n, k, space.field)]
        for n in space.dims]
    return [S for S in (SubspaceTuple.of(space.field, space.dims, bases)
                        for bases in product(*per_vertex))
            if is_subrep(M, S)]


def _point(arrows, dims, q, index, theta):
    n = len(dims)
    space = RepSpace(Quiver(n, arrows), dims, field_table(q))
    return space.rep(index % space.point_count), theta


@DETERMINISTIC
@given(points())
@example(_point(((0, 0),), (2,), 3, 5, (0,)))                  # a loop
@example(_point(((0, 1), (0, 1)), (1, 2), 4, 77, (1, 0)))      # parallel arrows
@example(_point(((0, 1), (1, 0)), (2, 2), 2, 123, (1, 0)))     # a 2-cycle
def test_enumeration_is_the_definitional_filter(point):
    M, theta = point
    subreps = definitional_subreps(M)
    assert list(enumerate_subreps(M)) == subreps

    # the maximal destabilizing subrepresentation, picked by definition
    dims = M.space.dims
    nonzero = [S for S in subreps if S.total_dim > 0]
    top = max(slope(theta, S.dims) for S in nonzero)
    if top <= slope(theta, dims):
        expected = SubspaceTuple.full(M.space.field, dims)
    else:
        size = max(S.total_dim for S in nonzero
                   if slope(theta, S.dims) == top)
        (expected,) = [S for S in nonzero
                       if (slope(theta, S.dims), S.total_dim) == (top, size)]
    assert maximal_destabilizing(M, theta) == expected

    # King's test and the three-way verdict, by definition; each witness
    # is a subrepresentation of slope at least that of M
    mu = slope(theta, dims)
    semistable, stable = is_semistable(M, theta), is_stable(M, theta)
    if top > mu:
        for verdict in (semistable, stable):
            assert verdict.status == UNSTABLE
            assert verdict.witness in subreps
            assert slope(theta, verdict.witness.dims) > mu
    else:
        assert semistable == StabilityVerdict(SEMISTABLE)
        equal = [S for S in nonzero
                 if not S.is_full() and slope(theta, S.dims) == mu]
        if equal:
            assert stable.status == SEMISTABLE_NOT_STABLE
            assert stable.witness in equal
        else:
            assert stable == StabilityVerdict(STABLE)


def assert_definitional_tables(M):
    """Each action table of M, held or built, maps every code c to the
    code of the arrow's matrix times the vector of code c."""
    space = M.space
    field, q = space.field, space.field.q
    for act, mat, (_, cols) in zip(M.actions, M.mats, space.arrow_shapes):
        assert act == tuple(
            encode_vector(mat_vec(field, mat, decode_vector(c, cols, q)), q)
            for c in range(q**cols))


@DETERMINISTIC
@given(points(), st.integers(0, 2**24), st.integers(0, 2**8))
@example(_point(((0, 0),), (2,), 3, 5, (0,)), 40, 3)                  # a loop
@example(_point(((0, 1), (1, 0)), (2, 2), 2, 123, (1, 0)), 9000, 1)   # a 2-cycle
@example(_point(((0, 1), (0, 2)), (1, 0, 2), 3, 4, (0, 0, 0)), 7, 2)  # size 0
def test_held_tables_are_the_definitional_ones(point, other, choice):
    M, _ = point
    space = M.space
    assert_definitional_tables(M)
    if space.quiver.arrows:
        # a second point with M's matrix at arrow k and other's elsewhere
        # reads arrow k's table from the store
        k = choice % len(space.quiver.arrows)
        stride = space.arrow_strides[k]
        block = space.field.q**space.arrow_sizes[k]
        other %= space.point_count
        N = space.rep(other + stride * (M.index // stride % block
                                        - other // stride % block))
        assert N.actions[k] is M.actions[k]
        assert_definitional_tables(N)
    # a quotient point, whose space is shared by every quotient of its
    # dimension vector
    subreps = list(enumerate_subreps(M))
    assert_definitional_tables(quotient_rep(M, subreps[choice % len(subreps)]))


def vector_sets(dims):
    """Random sets of dimension vectors, some of them above dims or
    nonzero at a vertex of dimension 0."""
    vectors = list(product(*(range(d + 2) for d in dims)))
    return st.sets(st.sampled_from(vectors)).map(frozenset)


@st.composite
def admissible_sets(draw):
    """A point as points() draws it and a random set of dimension vectors."""
    M, _ = draw(points())
    return M, draw(vector_sets(M.space.dims))


@DETERMINISTIC
@given(admissible_sets())
@example((_point(((0, 1), (1, 0)), (2, 2), 2, 123, (1, 0))[0],  # a 2-cycle
          frozenset({(0, 0), (1, 1), (2, 1), (2, 2)})))
@example((_point(((1, 1),), (0, 3), 3, 5, (0, 0))[0],           # a loop
          frozenset({(0, 1), (0, 3), (1, 2)})))
def test_filtered_enumeration_is_the_restricted_filter(case):
    M, admissible = case
    found = list(enumerate_subreps(M, admissible=admissible))
    assert set(found) == {S for S in definitional_subreps(M)
                          if S.dims in admissible}
    # the unfiltered order, and the same again from the kept record tree
    assert found == [S for S in enumerate_subreps(M) if S.dims in admissible]
    assert list(enumerate_subreps(M, admissible=set(admissible))) == found


@st.composite
def warm_cases(draw):
    """A point and character as points() draws them, a random set of
    dimension vectors, and up to three other points of the space."""
    M, theta = draw(points())
    others = st.integers(0, M.space.point_count - 1)
    return (M, theta, draw(vector_sets(M.space.dims)),
            draw(st.lists(others, max_size=3)))


def _warm(arrows, dims, q, index, theta, admissible, others):
    return (*_point(arrows, dims, q, index, theta), frozenset(admissible),
            others)


@DETERMINISTIC
@given(warm_cases())
@example(_warm(((0, 1), (1, 0)), (2, 2), 2, 123, (1, 0),         # a 2-cycle
               {(0, 0), (1, 1), (2, 1), (2, 2)}, [7, 200]))
@example(_warm(((1, 1), (0, 1)), (1, 2), 3, 5, (1, 0),           # a loop
               {(0, 1), (1, 1), (1, 2)}, [0, 700]))
def test_warm_stores_change_no_result(case):
    M, theta, admissible, others = case
    space = M.space
    # the same point twice, then other points of its space: each
    # enumeration reads the image sets that the ones before it stored
    for N in (M, M, *map(space.rep, others)):
        assert list(enumerate_subreps(N, admissible=admissible)) == [
            S for S in definitional_subreps(N) if S.dims in admissible]
    # the direct route's memo key names the quotient point
    for T in enumerate_subreps(M):
        Q = quotient_rep(M, T)
        assert quotient_key(M, T) == (Q.dims, Q.index)
    # and the filtration procedure on the warm stores is the one
    # filtration the brute-force search finds
    filtration, _ = hn_filtration(M, theta)
    assert brute_force_filtrations(M, theta) == [tuple(filtration.steps[1:])]


@DETERMINISTIC
@given(points())
@example(_point(((0, 1), (1, 0)), (2, 2), 2, 123, (1, 0)))     # a 2-cycle
@example(_point(((0, 1), (0, 2)), (1, 0, 2), 3, 4, (0, 0, 0)))  # size 0
def test_no_set_admits_every_vector_below_dims(point):
    M, _ = point
    every = set(product(*(range(d + 1) for d in M.space.dims)))
    assert list(enumerate_subreps(M)) == list(
        enumerate_subreps(M, admissible=every))


def _free_columns(rows, n):
    pivots = {next(j for j, x in enumerate(row) if x) for row in rows}
    return [c for c in range(n) if c not in pivots]


def reference_pullback(S, T):
    """T's rows placed on the free columns of S, row-reduced with S's
    rows."""
    field = S.field
    bases = []
    for rows, quotient_rows, n in zip(S.bases, T.bases, S.ambient):
        lifted = []
        for row in quotient_rows:
            v = [0] * n
            for c, x in zip(_free_columns(rows, n), row):
                v[c] = x
            lifted.append(v)
        bases.append(rref(field, list(rows) + lifted)[0])
    return SubspaceTuple.of(field, S.ambient, bases)


def reference_image(outer, inner):
    """inner's rows read at the pivot columns of outer, row-reduced."""
    field = outer.field
    bases = []
    for rows, inner_rows, n in zip(outer.bases, inner.bases, outer.ambient):
        pivots = [c for c in range(n) if c not in _free_columns(rows, n)]
        bases.append(rref(field, [[row[p] for p in pivots]
                                  for row in inner_rows])[0])
    return SubspaceTuple.of(field, outer.dims, bases)


# K2 (2,3), and a quiver with a loop and a 2-cycle; GF(4) digits do not
# add as integers
LIFT_CASES = [(Quiver(2, ((0, 1), (0, 1))), (2, 3), q) for q in (2, 3, 4)] + [
    (Quiver(2, ((0, 0), (0, 1), (1, 0))), (2, 2), q) for q in (2, 3)]


@st.composite
def lifts(draw):
    """A point M of a space of LIFT_CASES, a subrepresentation S of M and
    a subrepresentation T of M/S, a tuple in the quotient coordinates of
    S.  Low indices, whose later arrows are zero, have many
    subrepresentations."""
    quiver, dims, q = draw(st.sampled_from(LIFT_CASES))
    space = RepSpace(quiver, dims, field_table(q))
    index = draw(st.integers(0, space.point_count - 1) | st.integers(0, 255))
    M = space.rep(index)
    S = draw(st.sampled_from(list(enumerate_subreps(M))))
    T = draw(st.sampled_from(list(enumerate_subreps(quotient_rep(M, S)))))
    return M, S, T


@DETERMINISTIC
@given(lifts())
def test_pullback_is_the_row_reduced_lift(case):
    M, S, T = case
    lifted = pullback(S, T)
    assert lifted == reference_pullback(S, T)
    assert lifted.dims == tuple(a + b for a, b in zip(S.dims, T.dims))
    # a subrepresentation whose quotient is the quotient of M/S by T, the
    # walk M -> M/T1 -> (M/T1)/T2 of hn_filtration
    assert is_subrep(M, lifted)
    assert quotient_rep(M, lifted) == quotient_rep(quotient_rep(M, S), T)
    # S in the restriction coordinates of its lift, as the graded pieces
    # read it
    assert _image_in_sub_coords(lifted, S) == reference_image(lifted, S)


@st.composite
def spaces(draw):
    """A representation space of a random small quiver with at most 256
    points (0 to 3 arrows, loops included) and a character."""
    n = draw(st.integers(1, 3))
    vertex = st.integers(0, n - 1)
    arrows = tuple(draw(st.lists(st.tuples(vertex, vertex), max_size=3)))
    dims = tuple(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                      .filter(lambda d: 0 < sum(d) <= 4)))
    theta = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    exponent = sum(dims[s] * dims[t] for s, t in arrows)
    fields = [q for q in (2, 3, 4) if q**exponent <= 256]
    assume(fields)
    q = draw(st.sampled_from(fields))
    return RepSpace(Quiver(n, arrows), dims, field_table(q)), theta


def _space(arrows, dims, q, theta):
    return RepSpace(Quiver(len(dims), arrows), dims, field_table(q)), theta


@DETERMINISTIC
@given(spaces())
@example(_space((), (1, 2), 3, (1, 0)))                        # no arrow
@example(_space(((0, 1), (0, 0), (1, 0)), (2, 1), 2, (1, 0)))  # three arrows
@example(_space(((0, 1), (0, 0), (0, 0)), (1, 2), 3, (1, 0)))  # two loops
def test_scan_types_match_the_procedure_at_every_point(case):
    space, theta = case
    quiver, dims, field = space.quiver, space.dims, space.field
    classifier = ScanClassifier(quiver, theta, field)
    table = classifier.table(dims)
    for idx in range(space.point_count):
        _, beta = hn_filtration(space.rep(idx), theta)
        assert table.types[table.type_ids[idx]] == beta
    assert sum(table.counts.values()) == space.point_count
    counts = count_hn_filtrations(quiver, dims, theta, field)
    assert list(counts) == [1] * space.point_count


@DETERMINISTIC
@given(spaces())
@example(_space(((0, 0),), (3,), 2, (0,)))                     # a loop
@example(_space(((0, 1), (0, 1)), (1, 2), 3, (1, 0)))          # parallel arrows
@example(_space(((0, 1), (1, 0), (1, 1)), (2, 1), 2, (1, 0)))  # 2-cycle, loop
def test_direct_route_counts_the_procedure_types(case):
    # the quotient memo of the direct route changes no point's chain, and
    # the chain's lifts are hn_filtration's steps
    space, theta = case
    memo = {}
    expected = Counter()
    for idx in range(space.point_count):
        M = space.rep(idx)
        chain = hn_chain(M, theta, DEFAULT_MAX_TUPLES, memo)
        assert chain == hn_chain(M, theta, DEFAULT_MAX_TUPLES, {})
        steps = [chain[0]]
        for T in chain[1:]:
            steps.append(pullback(steps[-1], T))
        filtration, beta = hn_filtration(M, theta)
        assert list(filtration.steps[1:]) == steps
        assert beta.pieces == tuple(T.dims for T in chain)
        expected[beta] += 1
    assert classify_direct(space.quiver, space.dims, theta,
                           space.field) == expected


@DETERMINISTIC
@given(spaces())
@example(_space((), (2, 1), 3, (1, 0)))                        # no arrow
@example(_space(((0, 1), (0, 1)), (1, 2), 3, (1, 0)))          # parallel arrows
@example(_space(((0, 1), (0, 0), (1, 0)), (2, 1), 2, (1, 0)))  # loop, 2-cycle
def test_scan_rows_are_the_preserving_points(case):
    # per dimension vector e, the rows' (index, pair) entries, the pair
    # split into (restriction, quotient), are those of the pairs (M, S),
    # S of dimension vector e, that is_subrep accepts, each once
    space, theta = case
    dims, field = space.dims, space.field
    classifier = ScanClassifier(space.quiver, theta, field)
    per_vertex = [
        [basis for k in range(n + 1)
         for basis in enumerate_subspaces(n, k, field)]
        for n in dims]
    expected = {}
    for bases in product(*per_vertex):
        S = SubspaceTuple.of(field, dims, bases)
        found = expected.setdefault(S.dims, Counter())
        for idx in range(space.point_count):
            M = space.rep(idx)
            if is_subrep(M, S):
                found[idx, sub_rep(M, S).index, quotient_rep(M, S).index] += 1
    for e, points in expected.items():
        quot_points = RepSpace(space.quiver, tuple(
            n - k for n, k in zip(dims, e)), field).point_count
        rows = Counter((i0 + i, *divmod(x0 + x, quot_points))
                       for i0, x0, last in classifier.rows(dims, e)
                       for i, x in last)
        assert rows == points


@st.composite
def records(draw):
    """A random catalog record of GF(q)^n, with q and n."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(0, 4))
    catalog = subspace_catalog(field_table(q), n)
    return q, n, catalog[draw(st.integers(0, len(catalog) - 1))]


@DETERMINISTIC
@given(records())
def test_coords_split_every_vector_into_rows_and_free_columns(case):
    # v = sum_r y[r] * row_r + sum_i z[i] * e_{free_i}, the free columns
    # in increasing order, and z = 0 exactly on the members
    q, n, rec = case
    field = field_table(q)
    add, mul = field.add_table, field.mul_table
    pivots = [next(j for j, x in enumerate(row) if x) for row in rec.rows]
    free = [c for c in range(n) if c not in pivots]
    assert len(rec.coords) == q**n
    for c, (y, z) in enumerate(rec.coords):
        assert 0 <= y < q**len(pivots) and 0 <= z < q**len(free)
        v = [0] * n
        for coef, row in zip(decode_vector(y, len(pivots), q), rec.rows):
            v = [add[x][mul[coef][r]] for x, r in zip(v, row)]
        for coef, col in zip(decode_vector(z, len(free), q), free):
            v[col] = add[v[col]][coef]
        assert encode_vector(v, q) == c
        assert (z == 0) == (c in rec.members)
