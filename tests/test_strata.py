import random
from array import array
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from quivercount import (BudgetExceeded, HNType, Quiver, RepSpace,
                         StratumTable, SubspaceTuple, TheoremViolation,
                         classify_direct, classify_scan, count_hn_filtrations,
                         enumerate_hn_types, enumerate_reps, enumerate_subreps,
                         field_table, hn_filtration, is_subrep, kronecker,
                         nonzero_subvectors, quotient_rep, slope, sub_rep,
                         trivial_type)
from quivercount.exhaustive import (FiltrationCounter, ScanClassifier,
                                    SpaceTable, pair_table)
from quivercount.linalg import mat_vec, reduce_mod, rref
from quivercount.rep import subspace_catalog
from quivercount.strata import DEFAULT_MAX_TYPE_DIM, check_type_budget

from conftest import a2_quiver

THETA = (1, 0)


# ---------------------------------------------------------------------------
# types


def test_hn_type_validation():
    HNType(THETA, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        HNType(THETA, ((0, 1), (1, 0)))  # increasing slopes
    with pytest.raises(ValueError):
        HNType(THETA, ((1, 0), (0, 0)))  # zero piece
    with pytest.raises(ValueError):
        HNType(THETA, ())


def test_type_slopes_are_derived():
    beta = HNType(THETA, ((2, 0), (1, 1), (0, 2)))
    assert beta.slopes == (Fraction(1), Fraction(1, 2), Fraction(0))
    assert beta.ambient == (3, 3)
    assert beta.key_str() == "2,0;1,1;0,2"


def test_enumerate_types_k2_11():
    types = enumerate_hn_types(kronecker(2), (1, 1), THETA)
    assert [t.pieces for t in types] == [(((1, 1),))] + [((1, 0), (0, 1))]


def test_enumerate_types_zero_character():
    types = enumerate_hn_types(kronecker(2), (2, 3), (0, 0))
    assert len(types) == 1
    assert types[0].is_trivial()


def test_enumerate_types_budget():
    with pytest.raises(BudgetExceeded):
        enumerate_hn_types(kronecker(2), (32, 33), THETA)


def test_type_count_budget_boundary(monkeypatch):
    import quivercount.strata as strata

    # a budget of exactly the type count passes, one below it raises
    count = len(enumerate_hn_types(kronecker(2), (2, 3), THETA))
    monkeypatch.setattr(strata, "MAX_TYPES", count)
    assert len(enumerate_hn_types(kronecker(2), (2, 3), THETA)) == count
    monkeypatch.setattr(strata, "MAX_TYPES", count - 1)
    with pytest.raises(BudgetExceeded,
                       match=rf"more than {count - 1} HN types of \(2, 3\)"):
        enumerate_hn_types(kronecker(2), (2, 3), THETA)


# ---------------------------------------------------------------------------
# classification


def test_classify_k2_11(f2):
    table = classify_scan(kronecker(2), (1, 1), THETA, f2)
    assert table.counts == {
        trivial_type(THETA, (1, 1)): 3,
        HNType(THETA, ((1, 0), (0, 1))): 1,
    }
    assert table.total() == table.expected_total() == 4
    assert table.trivial_count() == 3
    assert table.serialize_lines() == ["1,1 3", "1,0;0,1 1"]


def test_classify_scan_returns_the_table_of_its_arguments(f3):
    quiver = kronecker(2)
    table = classify_scan(quiver, [1, 2], [1, 0], f3)
    assert isinstance(table, StratumTable)
    assert (table.quiver, table.dims, table.theta, table.q) == (
        quiver, (1, 2), (1, 0), 3)
    assert table.counts == classify_direct(quiver, (1, 2), (1, 0), f3)
    assert table.total() == table.expected_total() == 3**4


def test_classify_a2_q3(f3):
    table = classify_scan(a2_quiver(), (1, 1), THETA, f3)
    assert table.counts[trivial_type(THETA, (1, 1))] == 2
    assert table.counts[HNType(THETA, ((1, 0), (0, 1)))] == 1
    assert table.total() == 3


def test_classify_zero_character_single_stratum(f2):
    table = classify_scan(kronecker(2), (1, 1), (0, 0), f2)
    assert table.counts == {trivial_type((0, 0), (1, 1)): 4}


def test_classify_loop_quiver(f2):
    loop = Quiver(1, ((0, 0),))
    table = classify_scan(loop, (2,), (5,), f2)
    assert table.counts == {trivial_type((5,), (2,)): 16}


def test_classify_arrowless_quiver(f2):
    # one point, and it is maximally unstable
    quiver = Quiver(2, ())
    scan = classify_scan(quiver, (1, 1), THETA, f2).counts
    assert scan == classify_direct(quiver, (1, 1), THETA, f2)
    assert scan == {HNType(THETA, ((1, 0), (0, 1))): 1}
    assert list(count_hn_filtrations(quiver, (2, 2), THETA, f2)) == [1]


ENGINE_CASES = [
    (kronecker(2), (1, 1), THETA, 2),
    (kronecker(2), (1, 1), THETA, 3),
    (kronecker(2), (1, 1), THETA, 4),
    (kronecker(2), (1, 1), THETA, 5),
    (kronecker(3), (1, 1), THETA, 2),
    (kronecker(3), (1, 1), THETA, 3),
    (a2_quiver(), (1, 1), THETA, 2),
    (a2_quiver(), (1, 1), THETA, 5),
    (kronecker(2), (2, 1), THETA, 2),
    (kronecker(2), (1, 2), THETA, 3),
    (kronecker(2), (2, 2), THETA, 2),
    (kronecker(2), (2, 2), (3, -2), 2),
    (a2_quiver(), (2, 2), THETA, 2),
    (Quiver(1, ((0, 0),)), (2,), (1,), 2),
    (Quiver(3, ((0, 1), (1, 2))), (1, 1, 1), (2, 1, 0), 2),
    (Quiver(2, ((0, 1), (1, 0))), (1, 1), THETA, 3),
    (Quiver(2, ((0, 0), (0, 1))), (1, 1), THETA, 3),
    (Quiver(2, ((0, 0), (0, 1))), (2, 1), THETA, 2),
    # extension fields through the whole pipeline
    (kronecker(2), (1, 1), THETA, 9),
    (a2_quiver(), (2, 1), THETA, 4),
    (a2_quiver(), (1, 1), THETA, 8),
]


@pytest.mark.parametrize("quiver,dims,theta,q", ENGINE_CASES)
def test_engines_agree(quiver, dims, theta, q):
    """The subspace-major scan and the point-by-point procedure give the
    same table."""
    field = field_table(q)
    assert classify_scan(quiver, dims, theta, field).counts == \
        classify_direct(quiver, dims, theta, field)


def test_scan_claims_points_past_254_destabilizer_groups(f2):
    # distinct powers of two as theta: 255 (slope, total dimension) groups
    # above the slope of (1,)*9, and every point is hit in many of them
    quiver = Quiver(9, ((0, 8), (1, 7)))
    dims = (1,) * 9
    theta = tuple(2**i for i in range(9))
    mu = slope(theta, dims)
    groups = {(slope(theta, e), sum(e)) for e in nonzero_subvectors(dims)
              if slope(theta, e) > mu}
    assert len(groups) == 255
    assert classify_scan(quiver, dims, theta, f2).counts == \
        classify_direct(quiver, dims, theta, f2)


def test_classify_direct_workers(f2, f3, monkeypatch):
    import quivercount.exhaustive as exhaustive

    quiver = kronecker(2)
    # every space takes the pool
    monkeypatch.setattr(exhaustive, "POOL_MIN_POINTS", 1)
    assert (classify_direct(quiver, (2, 3), THETA, f2, workers=2)
            == classify_direct(quiver, (2, 3), THETA, f2, workers=1))
    seq = classify_direct(quiver, (1, 2), THETA, f3, workers=1)
    par = classify_direct(quiver, (1, 2), THETA, f3, workers=2)
    assert seq == par


def test_classify_direct_caps_workers_at_the_cpu_count(f2, monkeypatch):
    import concurrent.futures
    import os

    import quivercount.exhaustive as exhaustive

    # a pool that starts no process: it records its size and maps serially
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    quiver = kronecker(2)
    serial = classify_direct(quiver, (2, 3), THETA, f2, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(exhaustive, "POOL_MIN_POINTS", 1)
    assert classify_direct(quiver, (2, 3), THETA, f2, workers=10**6) == serial
    # one pool of one process per CPU; on one CPU no pool at all
    cpus = os.cpu_count() or 1
    assert sizes == ([cpus] if cpus > 1 else [])


def _lowest_slope_subrep(M, theta, max_tuples=None):
    """A broken maximal_destabilizing: the proper nonzero subrepresentation
    of least slope, so the pieces' slopes come out increasing."""
    dims = M.space.dims
    proper = [S for S in enumerate_subreps(M)
              if 0 < S.total_dim < sum(dims)]
    if not proper:
        return SubspaceTuple.full(M.space.field, dims)
    return min(proper, key=lambda S: slope(theta, S.dims))


def test_direct_route_rejects_slopes_that_do_not_decrease(f2, monkeypatch):
    import quivercount.stability as stability

    monkeypatch.setattr(stability, "maximal_destabilizing",
                        _lowest_slope_subrep)
    quiver = kronecker(2)
    message = r"HN slopes do not strictly decrease: \[\(0, 1\), \(1, 0\)\]"
    with pytest.raises(TheoremViolation, match=message):
        hn_filtration(RepSpace(quiver, (1, 1), f2).rep(0), THETA)
    with pytest.raises(TheoremViolation, match=message):
        classify_direct(quiver, (1, 1), THETA, f2)


def test_direct_calls_share_no_quotient_memo(f2, monkeypatch):
    import quivercount.stability as stability

    calls = [0]
    original = stability.maximal_destabilizing

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(stability, "maximal_destabilizing", counted)
    quiver, dims = kronecker(2), (2, 2)
    space = RepSpace(quiver, dims, f2)
    per_point = Counter(hn_filtration(space.rep(idx), THETA)[1]
                        for idx in range(space.point_count))
    unmemoized, calls[0] = calls[0], 0
    made = []
    for _ in range(2):
        assert classify_direct(quiver, dims, THETA, f2) == per_point
        made.append(calls[0])
        calls[0] = 0
    # once per point and once per distinct quotient, in either call
    assert made[0] == made[1]
    assert space.point_count < made[0] < unmemoized


def test_every_realized_type_is_enumerated(f2):
    quiver = kronecker(2)
    admissible = set(enumerate_hn_types(quiver, (2, 3), THETA))
    table = classify_scan(quiver, (2, 3), THETA, f2)
    assert set(table.counts) <= admissible
    assert len(admissible) >= len(table.counts)


def test_scan_classifier_handles_sub_dimensions(f2):
    cls = ScanClassifier(kronecker(2), THETA, f2)
    table = cls.table((2, 3))
    assert sum(table.counts.values()) == 4096
    assert (1, 3) in cls.tables  # quotient space computed along the way


class _RowsTwice(ScanClassifier):
    """A scan whose every row of preserving points comes twice."""

    def rows(self, dims, e):
        for row in super().rows(dims, e):
            yield row
            yield row


def test_scan_rejects_a_point_claimed_twice_in_one_group(f2):
    # (1, 0) preserves only the zero point of K2 (1, 1); met twice, it
    # has two maximal destabilizing subrepresentations
    cls = _RowsTwice(kronecker(2), THETA, f2)
    with pytest.raises(TheoremViolation,
                       match=r"non-unique maximal destabilizing "
                             r"subrepresentation at index 0 of \(1, 1\)"):
        cls.table((1, 1))


def test_scan_rejects_an_unstable_restriction(f2):
    # a sub-table that calls its only point unstable
    cls = ScanClassifier(kronecker(2), THETA, f2)
    cls.tables[(1, 0)] = SpaceTable((1, 0), [trivial_type(THETA, (1, 0))],
                                    array("h", [1]), {})
    with pytest.raises(TheoremViolation,
                       match=r"extracted maximal destabilizing piece is not "
                             r"semistable at index 0 of \(1, 1\)"):
        cls.table((1, 1))


def test_scan_rejects_slopes_that_do_not_decrease(f2):
    # a quotient table whose every point starts with a piece of slope 1,
    # the slope of the group (1, 0) that claims points of K2 (2, 1)
    cls = ScanClassifier(kronecker(2), THETA, f2)
    cls.tables[(1, 1)] = SpaceTable(
        (1, 1), [trivial_type(THETA, (1, 1)), HNType(THETA, ((1, 0), (0, 1)))],
        bytearray([1] * 4), {})
    with pytest.raises(TheoremViolation,
                       match=r"HN slopes do not strictly decrease: "
                             r"\[\(1, 0\), \(1, 0\), \(0, 1\)\] at index \d+ "
                             r"of \(2, 1\)"):
        cls.table((2, 1))


def test_filtration_counts_are_zero_arrays_below_every_slope(f2):
    # no filtration of K2 (2, 3) has a first slope below 0
    counts = FiltrationCounter(ScanClassifier(kronecker(2), THETA, f2)).counts(
        (2, 3), 0)
    assert counts.typecode == "q" and len(counts) == 4096 and not any(counts)


def test_scan_type_ids_are_one_byte_per_point(f2):
    table = ScanClassifier(kronecker(2), THETA, f2).table((2, 3))
    assert type(table.type_ids) is bytearray
    assert len(table.type_ids) == 4096


def test_scan_type_ids_widen_in_the_middle_of_a_scan(f2, monkeypatch):
    import quivercount.exhaustive as exhaustive

    # a byte that holds two ids: every table widens at its third type,
    # after its first destabilizer group has claimed points
    monkeypatch.setattr(exhaustive, "BYTE_IDS", 2)
    quiver, dims = kronecker(2), (2, 3)
    cls = ScanClassifier(quiver, THETA, f2)
    table = cls.table(dims)
    assert len(table.types) > 2 and table.type_ids.typecode == "h"
    assert len(table.type_ids) == 4096
    for t in cls.tables.values():
        assert type(t.type_ids) is (array if len(t.types) > 2 else bytearray)
    for M in enumerate_reps(quiver, dims, f2):
        _, beta = hn_filtration(M, THETA)
        assert table.types[table.type_ids[M.index]] == beta
    assert table.counts == classify_direct(quiver, dims, THETA, f2)
    assert list(FiltrationCounter(cls).counts(dims)) == [1] * 4096


def test_pair_tables_past_the_byte_edge(f2, monkeypatch):
    import quivercount.exhaustive as exhaustive

    # with three ids to a byte, the 3-type quotient (1, 2) of K2 (2, 3)
    # keeps byte ids; every pair table, its marker 3 too, is an array("H")
    monkeypatch.setattr(exhaustive, "BYTE_IDS", 3)
    built = []

    def recording(sub_ids, ids, marks):
        table = pair_table(sub_ids, ids, marks)
        built.append((marks[0], table))
        return table

    monkeypatch.setattr(exhaustive, "pair_table", recording)
    quiver, dims = kronecker(2), (2, 3)
    cls = ScanClassifier(quiver, THETA, f2)
    table = cls.table(dims)
    quot = cls.tables[(1, 2)]
    assert len(quot.types) == 3 and type(quot.type_ids) is bytearray
    assert 3 in dict(built)  # a pair table with the marker 3
    assert all(t.typecode == "H" for _, t in built)
    for M in enumerate_reps(quiver, dims, f2):
        _, beta = hn_filtration(M, THETA)
        assert table.types[table.type_ids[M.index]] == beta
    assert table.counts == classify_direct(quiver, dims, THETA, f2)


def test_pair_table_marker_at_the_byte_edge_is_not_a_type(f2, monkeypatch):
    import quivercount.exhaustive as exhaustive

    # the 1-type quotient (0, 1) at one id to a byte: its marker 1 is in
    # an array("H") pair table and must raise, not be read as a type id
    monkeypatch.setattr(exhaustive, "BYTE_IDS", 1)
    cls = ScanClassifier(kronecker(2), THETA, f2)
    cls.tables[(1, 0)] = SpaceTable((1, 0), [trivial_type(THETA, (1, 0))],
                                    array("h", [1]), {})
    with pytest.raises(TheoremViolation,
                       match=r"extracted maximal destabilizing piece is not "
                             r"semistable at index 0 of \(1, 1\)"):
        cls.table((1, 1))


def test_type_ids_past_the_array_cap_exceed_the_budget(f2, monkeypatch):
    import quivercount.exhaustive as exhaustive

    # a cap at the largest id any table needs passes, one below it raises
    cls = ScanClassifier(kronecker(2), THETA, f2)
    cls.table((2, 3))
    top = max(len(table.types) for table in cls.tables.values()) - 1
    monkeypatch.setattr(exhaustive, "MAX_TYPES", top + 1)
    ScanClassifier(kronecker(2), THETA, f2).table((2, 3))
    monkeypatch.setattr(exhaustive, "MAX_TYPES", top)
    with pytest.raises(BudgetExceeded, match=f"more than {top} types"):
        ScanClassifier(kronecker(2), THETA, f2).table((2, 3))


# ---------------------------------------------------------------------------
# block tables against the quotient/restriction conventions


def reference_blocks(M, S):
    """The restriction and quotient indices of M along S, from row
    reductions alone: an image's coordinates over the RREF rows of the
    target are its pivot entries, and a quotient column is the image of
    a free unit vector reduced modulo the target, read on the free
    columns."""
    space, field = M.space, M.space.field
    echelon = [rref(field, basis) if basis else ((), ()) for basis in S.bases]
    free = [tuple(c for c in range(n) if c not in pivots)
            for n, (_, pivots) in zip(space.dims, echelon)]
    sub_mats, quot_mats = [], []
    for (s, t), mat in zip(space.quiver.arrows, M.mats):
        basis, pivots = echelon[t]
        images = [mat_vec(field, mat, row) for row in echelon[s][0]]
        assert not any(any(reduce_mod(field, basis, pivots, v)) for v in images)
        sub_mats.append(tuple(tuple(v[p] for v in images) for p in pivots))
        reduced = [reduce_mod(field, basis, pivots, [row[c] for row in mat])
                   for c in free[s]]
        quot_mats.append(tuple(tuple(v[c] for v in reduced) for c in free[t]))
    quot_dims = tuple(map(len, free))
    return (RepSpace(space.quiver, S.dims, field).index_of(sub_mats),
            RepSpace(space.quiver, quot_dims, field).index_of(quot_mats))


# a loop at 0, a 2-cycle 0 <-> 1, and arrows into and out of vertex 2,
# which has dimension 0 in the cases below
LOOP_CYCLE_ZERO = Quiver(3, ((0, 0), (0, 1), (1, 0), (1, 2), (2, 1)))


@pytest.mark.parametrize("quiver,dims,q,every", [
    (kronecker(2), (2, 2), 2, True),
    (kronecker(2), (2, 1), 3, False),
    (kronecker(2), (2, 3), 2, False),
    (kronecker(2), (1, 2), 4, False),
    (LOOP_CYCLE_ZERO, (1, 2, 0), 3, False),
    (LOOP_CYCLE_ZERO, (1, 2, 0), 4, False),
    (LOOP_CYCLE_ZERO, (2, 1, 0), 2, False),
], ids=["2-dims0", "3-dims1", "2-dims2", "4-dims3", "3-dims4", "4-dims5",
        "2-dims6"])
def test_block_tables_match_rep_conventions(quiver, dims, q, every):
    """Every (index, pair) entry the classifier lists for a subspace
    tuple reconstructs a representation whose restriction and quotient
    indices are the pair's, by a reference built from row reductions,
    and the entries exhaust the representations preserving the tuple.
    With ``every`` each tuple and each of its entries is checked,
    otherwise 6 tuples and 10 sampled entries of each."""
    field = field_table(q)
    space = RepSpace(quiver, dims, field)
    theta = (1,) + (0,) * (quiver.vertex_count - 1)
    cls = ScanClassifier(quiver, theta, field)
    rng = random.Random(q * 100 + sum(dims))
    picks = list(product(*(subspace_catalog(field, n) for n in dims)))
    if not every:
        rng.shuffle(picks)
        picks = picks[:6]
    for records in picks:
        S = SubspaceTuple(records)
        lists = cls.triples(dims, records)
        quot_points = RepSpace(
            quiver, tuple(n - r.k for n, r in zip(dims, records)),
            field).point_count
        # completeness: the product size equals the direct count
        direct = sum(
            1 for M in enumerate_reps(quiver, dims, field) if is_subrep(M, S))
        assert direct == prod(map(len, lists))
        # listed entries reconstruct consistently
        choices = (product(*lists) if every else
                   ([rng.choice(entries) for entries in lists]
                    for _ in range(10)))
        for choice in choices:
            idx, x = (sum(parts) for parts in zip(*choice))
            u, w = divmod(x, quot_points)
            M = space.rep(idx)
            assert is_subrep(M, S)
            assert reference_blocks(M, S) == (u, w)
            assert (sub_rep(M, S).index, quotient_rep(M, S).index) == (u, w)


# ---------------------------------------------------------------------------
# filtration counting


@pytest.mark.parametrize("quiver,dims,theta,q", [
    (kronecker(2), (1, 1), THETA, 2),
    (kronecker(2), (2, 2), THETA, 2),
    (a2_quiver(), (2, 1), THETA, 3),
    (kronecker(3), (1, 1), THETA, 3),
])
def test_every_point_has_exactly_one_filtration(quiver, dims, theta, q):
    field = field_table(q)
    counts = count_hn_filtrations(quiver, dims, theta, field)
    assert all(c == 1 for c in counts)
    assert len(counts) == RepSpace(quiver, dims, field).point_count


def test_hn_type_of_every_point_is_consistent_between_routes(f3):
    quiver = kronecker(2)
    cls = ScanClassifier(quiver, THETA, f3)
    table = cls.table((1, 2))
    space = RepSpace(quiver, (1, 2), f3)
    for M in enumerate_reps(quiver, (1, 2), f3):
        _, beta = hn_filtration(M, THETA)
        assert table.types[table.type_ids[M.index]] == beta


def test_scan_type_of_every_point_matches_the_procedure_at_scale(f2):
    # per-point comparison over all 4096 points, not just table equality
    quiver = kronecker(2)
    cls = ScanClassifier(quiver, THETA, f2)
    table = cls.table((2, 3))
    for M in enumerate_reps(quiver, (2, 3), f2):
        _, beta = hn_filtration(M, THETA)
        assert table.types[table.type_ids[M.index]] == beta


def test_randomized_small_instances_cross_check():
    """Seeded sweep over random quivers (loops allowed), dimension
    vectors, characters and fields: both engines agree, the counts
    partition the space, and every stratum formula reproduces its
    observed count."""
    from quivercount import (rep_space_dim, semistable_count_poly,
                            stratum_count_poly)

    rng = random.Random(20260810)
    tried = 0
    while tried < 12:
        vertices = rng.randrange(1, 4)
        arrows = tuple(
            (rng.randrange(vertices), rng.randrange(vertices))
            for _ in range(rng.randrange(1, 4)))
        quiver = Quiver(vertices, arrows)
        dims = tuple(rng.randrange(0, 3) for _ in range(vertices))
        if sum(dims) == 0 or sum(dims) > 4:
            continue
        theta = tuple(rng.randrange(-2, 3) for _ in range(vertices))
        q = rng.choice((2, 3))
        field = field_table(q)
        N = q**rep_space_dim(quiver, dims)
        if N > 1500:
            continue
        tried += 1
        scan = classify_scan(quiver, dims, theta, field).counts
        direct = classify_direct(quiver, dims, theta, field)
        assert scan == direct
        assert sum(scan.values()) == N
        ss = {}
        for beta in enumerate_hn_types(quiver, dims, theta):
            for piece in beta.pieces:
                if piece not in ss:
                    ss[piece] = semistable_count_poly(quiver, piece, theta)
            assert stratum_count_poly(quiver, beta, ss)(q) == \
                scan.get(beta, 0)


# ---------------------------------------------------------------------------
# input guards


@pytest.mark.parametrize("make,message", [
    (lambda: HNType(THETA, ((1, 0, 0),)),
     "piece length does not match the character"),
    (lambda: check_type_budget((0, 0)), "no types for the zero dimension vector"),
    (lambda: ScanClassifier(kronecker(2), THETA, field_table(2)).table((0, 0)),
     "cannot classify the zero dimension vector"),
], ids=["type-piece-length", "type-budget-zero", "scan-zero"])
def test_types_and_scans_reject_bad_input(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_type_budget_at_its_edge():
    check_type_budget((32, 32))  # total dimension exactly the budget
    assert 32 + 32 == DEFAULT_MAX_TYPE_DIM == 64
    with pytest.raises(BudgetExceeded,
                       match="total dimension 65 exceeds the type budget 64"):
        check_type_budget((32, 33))
