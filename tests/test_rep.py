import random
from itertools import combinations, product

import pytest

from quivercount import (BudgetExceeded, Filtration, Quiver, RepSpace,
                         Representation, SubspaceTuple, associated_graded,
                         enumerate_reps, enumerate_subreps,
                         enumerate_subspaces, field_table, is_subrep,
                         kronecker, pullback, quotient_rep, sub_rep)
from quivercount.linalg import (decode_vector, encode_vector, mat_vec,
                                reduce_mod, rref)
from quivercount.rep import (MAX_IMAGE_SETS, MAX_RECORD_TREES,
                             MAX_TABLE_ENTRIES, _catalog,
                             check_tuple_budget, subspace_catalog,
                             subspace_count)

from conftest import a2_quiver


def gaussian_binomial(n, k, q):
    # standard product formula, the second oracle next to raw dedup
    num = den = 1
    for i in range(k):
        num *= q**(n - i) - 1
        den *= q**(i + 1) - 1
    assert num % den == 0
    return num // den


def brute_force_subspace_count(n, k, q):
    """Distinct row spaces of all k x n matrices, named by their RREF."""
    field = field_table(q)
    seen = set()
    for entries in product(range(q), repeat=k * n):
        mat = tuple(entries[i * n:(i + 1) * n] for i in range(k))
        basis, _ = rref(field, mat)
        if len(basis) == k:
            seen.add(basis)
    return len(seen)


# ---------------------------------------------------------------------------
# representation enumeration


def test_enumerate_reps_counts(f2, f3):
    assert sum(1 for _ in enumerate_reps(kronecker(2), (1, 1), f2)) == 4
    assert sum(1 for _ in enumerate_reps(a2_quiver(), (1, 1), f3)) == 3
    assert sum(1 for _ in enumerate_reps(kronecker(2), (2, 3), f2)) == 4096


def test_enumerate_reps_deterministic_and_partitionable(f3):
    space = RepSpace(kronecker(2), (1, 1), f3)
    full = [M.index for M in enumerate_reps(kronecker(2), (1, 1), f3)]
    assert full == list(range(9))
    assert space.rep(5).index == 5


def test_enumerate_reps_budget(f2):
    with pytest.raises(BudgetExceeded):
        list(enumerate_reps(kronecker(2), (2, 3), f2, max_reps=100))


def test_rep_index_roundtrip(f3):
    space = RepSpace(kronecker(2), (2, 3), f3)
    rng = random.Random(9)
    for _ in range(20):
        idx = rng.randrange(space.point_count)
        assert space.rep(idx).index == idx


def test_point_index_out_of_range(f3):
    space = RepSpace(kronecker(2), (1, 2), f3)
    for make in (space.rep, lambda i: Representation(space, i)):
        for idx in (-1, space.point_count):
            with pytest.raises(ValueError, match="out of range"):
                make(idx)


def test_index_of_checks_the_matrices(f3):
    space = RepSpace(kronecker(2), (1, 2), f3)  # two 2x1 matrices
    good = (((1,), (2,)), ((0,), (1,)))
    assert space.rep(space.index_of(good)).mats == good
    with pytest.raises(ValueError, match="wrong number of matrices"):
        space.index_of(good[:1])
    with pytest.raises(ValueError, match="expected 2x1"):
        space.index_of((((1, 0),), ((0,), (1,))))
    with pytest.raises(ValueError, match="expected 2x1"):
        space.index_of((((1,), (2,), (0,)), ((0,), (1,))))
    with pytest.raises(ValueError, match="outside the field"):
        space.index_of((((1,), (3,)), ((0,), (1,))))


# ---------------------------------------------------------------------------
# subspace enumeration


def test_subspace_counts_small(f2):
    assert sum(1 for _ in enumerate_subspaces(2, 1, f2)) == 3
    assert sum(1 for _ in enumerate_subspaces(3, 1, f2)) == 7
    assert sum(1 for _ in enumerate_subspaces(4, 2, field_table(3))) == 130
    assert gaussian_binomial(4, 2, 3) == 130 == (3**2 + 1) * (3**2 + 3 + 1)


def test_subspace_count_matches_brute_force_dedup():
    for q in (2, 3):
        for n in range(1, 4):
            for k in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(n, k, field_table(q)))
                assert count == brute_force_subspace_count(n, k, q)
    assert sum(1 for _ in enumerate_subspaces(4, 2, field_table(2))) == \
        brute_force_subspace_count(4, 2, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_subspace_total_counts(q):
    # sum over k of the Gaussian binomials, for n <= 4
    field = field_table(q)
    for n in range(1, 5):
        total = sum(sum(1 for _ in enumerate_subspaces(n, k, field))
                    for k in range(n + 1))
        assert total == sum(gaussian_binomial(n, k, q) for k in range(n + 1))
        assert total == subspace_count(n, q)


def test_coords_are_built_on_first_use():
    # a catalog never builds the q^n-entry coords tables of its records
    records = [rec for level in _catalog.__wrapped__(field_table(3), 3)[0]
               for rec in level]
    assert all(rec._coords is None for rec in records)
    rec = records[len(records) // 2]
    assert rec.coords is rec.coords
    assert sum(rec._coords is not None for rec in records) == 1


def test_subspace_enumeration_rejects_bad_dimensions(f2):
    with pytest.raises(ValueError):
        list(enumerate_subspaces(2, 3, f2))
    with pytest.raises(ValueError):
        list(enumerate_subspaces(2, -1, f2))


def test_subspaces_are_canonical(f3):
    seen = set()
    for basis in enumerate_subspaces(3, 2, f3):
        assert rref(f3, basis) == (basis, tuple(
            next(j for j, x in enumerate(row) if x) for row in basis))
        seen.add(basis)
    assert len(seen) == gaussian_binomial(3, 2, 3)


# ---------------------------------------------------------------------------
# subrepresentations


def dumb_is_subrep(M, S):
    """Definition spelled out with fresh row reductions only."""
    field = M.space.field
    for (s, t), mat in zip(M.space.quiver.arrows, M.mats):
        basis, pivots = rref(field, S.bases[t]) if S.bases[t] else ((), ())
        for row in S.bases[s]:
            if any(reduce_mod(field, basis, pivots, mat_vec(field, mat, row))):
                return False
    return True


def all_subspace_tuples(space):
    per_vertex = [
        [basis for k in range(n + 1)
         for basis in enumerate_subspaces(n, k, space.field)]
        for n in space.dims]
    for bases in product(*per_vertex):
        yield SubspaceTuple.of(space.field, space.dims, bases)


def test_subreps_a2_identity_map(f2):
    space = RepSpace(a2_quiver(), (1, 1), f2)
    M = space.rep(1)  # the nonzero 1x1 matrix
    dims = {S.dims for S in enumerate_subreps(M)}
    assert dims == {(0, 0), (0, 1), (1, 1)}


def test_subreps_a2_zero_map(f2):
    space = RepSpace(a2_quiver(), (1, 1), f2)
    M = space.rep(0)
    assert sum(1 for _ in enumerate_subreps(M)) == 4


def test_subreps_k2_line_kernel(f2):
    # dims (1,0) closed iff both matrix entries vanish
    space = RepSpace(kronecker(2), (1, 1), f2)
    for idx in range(4):
        M = space.rep(idx)
        has_10 = any(S.dims == (1, 0) for S in enumerate_subreps(M))
        assert has_10 == (idx == 0)


def test_subreps_match_dumb_checker(f2, f3):
    for quiver, dims, field in [
            (kronecker(2), (2, 2), f2),
            (a2_quiver(), (2, 1), f3),
            (Quiver(1, ((0, 0),)), (2,), f2)]:
        space = RepSpace(quiver, dims, field)
        rng = random.Random(13)
        for _ in range(8):
            M = space.rep(rng.randrange(space.point_count))
            found = set(enumerate_subreps(M))
            for S in all_subspace_tuples(space):
                expected = dumb_is_subrep(M, S)
                assert (S in found) == expected
                assert is_subrep(M, S) == expected


def test_zero_rep_subrep_count(f2):
    space = RepSpace(kronecker(2), (2, 2), f2)
    count = sum(1 for _ in enumerate_subreps(space.rep(0)))
    assert count == 5 * 5  # all pairs of subspaces of GF(2)^2


def test_negative_admissible_vectors_admit_nothing(f2):
    # a dimension -1 names no catalog level, not the last one
    M = RepSpace(kronecker(2), (2, 2), f2).rep(0)
    assert list(enumerate_subreps(M, admissible={(-1, -1)})) == []
    assert [S.dims for S in enumerate_subreps(
        M, admissible={(-1, 2), (0, 0)})] == [(0, 0)]


@pytest.mark.parametrize("vector", [(1, 0, 7), (1,), ()])
def test_admissible_vectors_of_the_wrong_length_are_rejected(f2, vector):
    # (1, 0, 7) used to yield the (1, 0) subreps and (1,) an IndexError
    M = RepSpace(kronecker(2), (2, 2), f2).rep(0)
    with pytest.raises(ValueError,
                       match=rf"admissible vector has length {len(vector)}, "
                             r"expected 2"):
        enumerate_subreps(M, admissible={vector, (1, 0)})


def test_subrep_budget(f2):
    space = RepSpace(kronecker(2), (2, 2), f2)
    with pytest.raises(BudgetExceeded):
        list(enumerate_subreps(space.rep(0), max_tuples=10))


def test_tuple_budget_at_its_edge(f2):
    # 5 subspaces of GF(2)^2 per vertex: 25 candidate tuples; the lower
    # bound, 2^1, fits both budgets, so the exact count is compared
    dims, candidates = (2, 2), subspace_count(2, 2)**2
    assert candidates == 25
    M = RepSpace(kronecker(2), dims, f2).rep(0)
    check_tuple_budget(dims, 2, candidates)
    assert len(list(enumerate_subreps(M, max_tuples=candidates))) > 0
    # a pass is kept per (dims, q, max_tuples): after the larger budget
    # passed on these dims, the smaller one still raises, on every call
    for _ in range(2):
        with pytest.raises(BudgetExceeded, match="exceed the budget 24") as hit:
            enumerate_subreps(M, max_tuples=candidates - 1)
        assert hit.value.exit_code == 3
        with pytest.raises(BudgetExceeded):
            check_tuple_budget(dims, 2, candidates - 1)


# ---------------------------------------------------------------------------
# quotients and graded pieces


def test_quotient_by_zero_and_full(f3):
    space = RepSpace(kronecker(2), (1, 2), f3)
    M = space.rep(17)
    unchanged = quotient_rep(M, SubspaceTuple.zero(space.field, space.dims))
    assert unchanged.mats == M.mats
    assert unchanged == M and hash(unchanged) == hash(M)
    assert unchanged != space.rep(16)
    collapsed = quotient_rep(M, SubspaceTuple.full(space.field, space.dims))
    assert collapsed.space.dims == (0, 0)


def test_quotient_a2_example(f2):
    space = RepSpace(a2_quiver(), (1, 1), f2)
    M = space.rep(1)
    S = SubspaceTuple.of(f2, (1, 1), ((), ((1,),)))  # dims (0, 1)
    quotient = quotient_rep(M, S)
    assert quotient.space.dims == (1, 0)
    assert quotient.mats == ((),)


def test_quotient_requires_subrep(f2):
    space = RepSpace(a2_quiver(), (1, 1), f2)
    M = space.rep(1)
    not_closed = SubspaceTuple.of(f2, (1, 1), (((1,),), ()))
    with pytest.raises(ValueError):
        quotient_rep(M, not_closed)
    with pytest.raises(ValueError):
        sub_rep(M, not_closed)


def test_associated_graded_trivial(f3):
    space = RepSpace(kronecker(2), (2, 1), f3)
    M = space.rep(42)
    filt = Filtration((SubspaceTuple.zero(space.field, space.dims),
                       SubspaceTuple.full(space.field, space.dims)))
    assert associated_graded(M, filt) == [M]


def test_associated_graded_zero_rep(f2):
    space = RepSpace(kronecker(2), (1, 1), f2)
    M = space.rep(0)
    step = SubspaceTuple.of(f2, (1, 1), (((1,),), ()))
    filt = Filtration((SubspaceTuple.zero(f2, (1, 1)), step,
                       SubspaceTuple.full(f2, (1, 1))))
    pieces = associated_graded(M, filt)
    assert [p.space.dims for p in pieces] == [(1, 0), (0, 1)]


def test_associated_graded_a2(f2):
    space = RepSpace(a2_quiver(), (1, 1), f2)
    M = space.rep(1)
    step = SubspaceTuple.of(f2, (1, 1), ((), ((1,),)))
    filt = Filtration((SubspaceTuple.zero(f2, (1, 1)), step,
                       SubspaceTuple.full(f2, (1, 1))))
    pieces = associated_graded(M, filt)
    assert [p.space.dims for p in pieces] == [(0, 1), (1, 0)]
    assert all(all(not any(row) for row in mat) for p in pieces for mat in p.mats)


def test_associated_graded_dims_sum(f2):
    space = RepSpace(kronecker(2), (2, 2), f2)
    rng = random.Random(3)
    for _ in range(6):
        M = space.rep(rng.randrange(space.point_count))
        subreps = [S for S in enumerate_subreps(M) if 0 < S.total_dim < 4]
        for S in subreps[:3]:
            filt = Filtration((SubspaceTuple.zero(f2, (2, 2)), S,
                               SubspaceTuple.full(f2, (2, 2))))
            pieces = associated_graded(M, filt)
            total = tuple(map(sum, zip(*(p.space.dims for p in pieces))))
            assert total == (2, 2)


def test_associated_graded_rejects_non_subrep_step(f2):
    space = RepSpace(a2_quiver(), (1, 1), f2)
    M = space.rep(1)
    step = SubspaceTuple.of(f2, (1, 1), (((1,),), ()))  # not closed under M
    filt = Filtration((SubspaceTuple.zero(f2, (1, 1)), step,
                       SubspaceTuple.full(f2, (1, 1))))
    with pytest.raises(ValueError):
        associated_graded(M, filt)


def test_filtration_validation(f2):
    zero, full = SubspaceTuple.zero(f2, (1, 1)), SubspaceTuple.full(f2, (1, 1))
    with pytest.raises(ValueError):
        Filtration((zero,))
    with pytest.raises(ValueError):
        Filtration((zero, zero))
    with pytest.raises(ValueError):
        Filtration((full, zero))


def test_subspace_tuple_validation(f2, f3):
    with pytest.raises(ValueError):
        SubspaceTuple.of(f3, (2,), (((2, 0),),))  # pivot entry not 1
    with pytest.raises(ValueError):
        # pivot column not reduced
        SubspaceTuple.of(f2, (2,), (((1, 0), (1, 1)),))
    with pytest.raises(ValueError):
        SubspaceTuple.of(f2, (2, 2), (((1, 0),),))  # wrong vertex count


def test_subspace_entries_lie_in_the_field(f2, f3):
    with pytest.raises(ValueError, match="not the RREF basis"):
        SubspaceTuple.of(f2, (2,), (((1, 2),),))
    assert SubspaceTuple.of(f3, (2,), (((1, 2),),)).dims == (1,)


def test_non_integers_are_rejected(f3):
    space = RepSpace(kronecker(2), (1, 1), f3)
    with pytest.raises(ValueError, match="outside the field"):
        space.index_of((((1.0,),), ((0,),)))
    for make in (space.rep, lambda i: Representation(space, i)):
        with pytest.raises(ValueError, match="not an integer"):
            make(4.0)
    for ambient, bases in (((2,), (((1, 1.5),),)), ((2,), (((1, 1.0),),)),
                           ((2.0,), (((1, 1),),))):
        with pytest.raises(ValueError, match="non-integer"):
            SubspaceTuple.of(f3, ambient, bases)


def test_quotient_rejects_a_tuple_over_another_field(f2, f3):
    space = RepSpace(a2_quiver(), (1, 1), f2)
    M = space.rep(1)
    bases = ((), ((1,),))
    same = SubspaceTuple.of(f2, (1, 1), bases)
    assert quotient_rep(M, same).space.dims == (1, 0)
    other = SubspaceTuple.of(f3, (1, 1), bases)
    for induced in (quotient_rep, sub_rep):
        with pytest.raises(ValueError, match="differ in field"):
            induced(M, other)


def test_is_subrep_rejects_another_field_or_ambient(f2, f3):
    # the checks of quotient_rep and sub_rep, with the same messages; the
    # zero map would close both tuples
    M = RepSpace(a2_quiver(), (2, 2), f2).rep(0)
    other_field = SubspaceTuple.of(f3, (2, 2), ((), ((1, 2),)))
    other_ambient = SubspaceTuple.zero(f2, (2, 3))
    for S, message in ((other_field, "differ in field"),
                       (other_ambient, "differ in dimensions")):
        for check in (is_subrep, quotient_rep, sub_rep):
            with pytest.raises(ValueError, match=message):
                check(M, S)


def test_pullback_rejects_a_tuple_off_the_quotient(f2, f3):
    S = SubspaceTuple.of(f2, (2, 3), (((1, 0),), ()))  # quotient dims (1, 3)
    assert pullback(S, SubspaceTuple.full(f2, (1, 3))).is_full()
    for T in (SubspaceTuple.zero(f2, (2, 3)), SubspaceTuple.zero(f2, (1, 2)),
              SubspaceTuple.zero(f3, (1, 3))):
        with pytest.raises(ValueError, match="not in the quotient"):
            pullback(S, T)


def test_action_table_store_is_bounded():
    # one arrow with 4,096 codes of 16-entry tables: four times the cap
    space = RepSpace(a2_quiver(), (2, 3), field_table(4))
    (store,) = space.table_stores
    assert space.point_count * 16 > 2 * MAX_TABLE_ENTRIES
    sizes = []
    for index in (*range(space.point_count), 0, 1):
        M = space.rep(index)
        (table,) = M.actions
        assert len(store) * len(table) <= MAX_TABLE_ENTRIES
        sizes.append(len(store))
        (mat,) = M.mats
        assert table == tuple(
            encode_vector(mat_vec(space.field, mat, decode_vector(c, 2, 4)), 4)
            for c in range(16))
    # the store was cleared, and the tables read after a clear, of points
    # 0 and 1 again among them, are still the arrow's maps
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def test_image_set_store_is_bounded(f4):
    # K2 (1, 3) over GF(4): at vertex 1 the image set of vertex 0's line
    # is the pair of the two arrows' columns, 2,080 sets, twice the cap
    space = RepSpace(kronecker(2), (1, 3), f4)
    list(enumerate_subreps(space.rep(0)))  # builds the record tree
    _, _, trees = space._subrep_plan
    ((_, children, _),) = trees.values()
    store = children[1][2]
    catalogs = [subspace_catalog(f4, n) for n in space.dims]
    sizes = []
    for index in (*range(space.point_count), 0, 1):
        M = space.rep(index)
        subreps = list(enumerate_subreps(M))
        assert len(store) <= MAX_IMAGE_SETS
        sizes.append(len(store))
        if index < 2:
            assert subreps == [
                S for S in map(SubspaceTuple, product(*catalogs))
                if is_subrep(M, S)]
    # the store was cleared, and the enumerations after a clear, of
    # points 0 and 1 again among them, are still the definitional ones
    assert max(sizes) == MAX_IMAGE_SETS
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def test_record_trees_are_bounded(f2):
    # K2 (2, 3) has 12 subvectors, so 12 + 66 + 220 = 298 distinct sets
    # of one to three of them, over four times the cap
    space = RepSpace(kronecker(2), (2, 3), f2)
    M = space.rep(1234)
    _, _, trees = space._subrep_plan
    catalogs = [subspace_catalog(f2, n) for n in space.dims]
    everything = [S for S in map(SubspaceTuple, product(*catalogs))
                  if is_subrep(M, S)]
    vectors = list(product(range(3), range(4)))
    sets = [frozenset(c) for k in (1, 2, 3) for c in combinations(vectors, k)]
    assert len(sets) == 298
    sizes = []
    for admissible in sets:
        subreps = list(enumerate_subreps(M, admissible=admissible))
        assert len(trees) <= MAX_RECORD_TREES
        sizes.append(len(trees))
        assert subreps == [S for S in everything if S.dims in admissible]
    assert max(sizes) == MAX_RECORD_TREES
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    # after the clears, the unrestricted enumeration is still the
    # definitional filter
    assert list(enumerate_subreps(M)) == everything


def test_enumerated_tuples_equal_their_checked_copies(f3):
    space = RepSpace(kronecker(2), (1, 2), f3)
    M = space.rep(5)
    rebuilt = [_catalog.__wrapped__(f3, n)[1] for n in space.dims]
    for S in enumerate_subreps(M):
        T = SubspaceTuple.of(f3, space.dims, S.bases)
        assert S == T and hash(S) == hash(T)
        # records of a rebuilt catalog name the same tuple
        fresh = SubspaceTuple(tuple(
            by_rows[rows] for by_rows, rows in zip(rebuilt, S.bases)))
        assert fresh.records != S.records
        assert fresh == S and hash(fresh) == hash(S)


F2 = field_table(2)


def _tuple(dims, bases):
    return SubspaceTuple.of(F2, dims, bases)


@pytest.mark.parametrize("make,message", [
    (lambda: Filtration((SubspaceTuple.zero(F2, (1, 1)),
                         SubspaceTuple.full(F2, (1, 2)))),
     "all steps must share the ambient dimensions"),
    (lambda: Filtration((SubspaceTuple.zero(F2, (1, 1)),
                         _tuple((1, 1), (((1,),), ())),
                         _tuple((1, 1), ((), ((1,),))),
                         SubspaceTuple.full(F2, (1, 1)))),
     "total dimension must strictly increase"),
    (lambda: associated_graded(
        RepSpace(kronecker(2), (1, 1), F2).rep(0),
        Filtration((SubspaceTuple.zero(F2, (1, 2)),
                    SubspaceTuple.full(F2, (1, 2))))),
     "filtration ambient does not match the representation"),
    # a line (1, 0) at vertex 0, then another line with vertex 1: every
    # tuple is a subrepresentation of the zero point, but they do not nest
    (lambda: associated_graded(
        RepSpace(kronecker(2), (2, 1), F2).rep(0),
        Filtration((SubspaceTuple.zero(F2, (2, 1)),
                    _tuple((2, 1), (((1, 0),), ())),
                    _tuple((2, 1), (((0, 1),), ((1,),))),
                    SubspaceTuple.full(F2, (2, 1))))),
     "filtration steps are not nested"),
], ids=["mixed-ambients", "not-increasing", "graded-ambient",
        "graded-not-nested"])
def test_filtrations_reject_bad_steps(make, message):
    with pytest.raises(ValueError, match=message):
        make()
