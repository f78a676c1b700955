from fractions import Fraction

import pytest

from quivercount import (Quiver, RepSpace, associated_graded,
                         enumerate_hn_types, enumerate_reps, hn_filtration,
                         is_semistable, is_stable, kronecker,
                         maximal_destabilizing, slope)
from quivercount import stability
from quivercount.stability import (SEMISTABLE, SEMISTABLE_NOT_STABLE, STABLE,
                                   UNSTABLE)

from conftest import a2_quiver, brute_force_filtrations

THETA = (1, 0)


def test_semistable_a2_identity(f2):
    M = RepSpace(a2_quiver(), (1, 1), f2).rep(1)
    assert is_semistable(M, THETA).status == SEMISTABLE


def test_unstable_a2_zero(f2):
    M = RepSpace(a2_quiver(), (1, 1), f2).rep(0)
    verdict = is_semistable(M, THETA)
    assert verdict.status == UNSTABLE
    assert verdict.witness.dims == (1, 0)
    assert slope(THETA, verdict.witness.dims) > slope(THETA, (1, 1))


def test_zero_character_everything_semistable(f3):
    space = RepSpace(kronecker(2), (1, 1), f3)
    for M in enumerate_reps(kronecker(2), (1, 1), f3):
        assert is_semistable(M, (0, 0)).status == SEMISTABLE


def test_stable_k2_example(f2):
    space = RepSpace(kronecker(2), (1, 1), f2)
    M = space.rep(space.index_of((((1,),), ((0,),))))
    assert is_stable(M, THETA).status == STABLE


def test_direct_sum_strictly_semistable(f2):
    # block-diagonal sum of two stable (1,1) representations
    space = RepSpace(kronecker(2), (2, 2), f2)
    a = ((1, 0), (0, 1))
    b = ((0, 0), (0, 1))
    M = space.rep(space.index_of((a, b)))
    verdict = is_stable(M, THETA)
    assert verdict.status == SEMISTABLE_NOT_STABLE
    assert verdict.witness is not None
    assert 0 < verdict.witness.total_dim < 4
    assert slope(THETA, verdict.witness.dims) == Fraction(1, 2)


def test_witness_never_zero_dimensional(f2, f3):
    for field in (f2, f3):
        for M in enumerate_reps(kronecker(2), (1, 1), field):
            for verdict in (is_semistable(M, THETA), is_stable(M, THETA)):
                if verdict.witness is not None:
                    assert verdict.witness.total_dim > 0


def test_maximal_destabilizing_examples(f2):
    a2 = RepSpace(a2_quiver(), (1, 1), f2)
    assert maximal_destabilizing(a2.rep(0), THETA).dims == (1, 0)
    assert maximal_destabilizing(a2.rep(1), THETA).is_full()
    k2 = RepSpace(kronecker(2), (1, 1), f2)
    assert maximal_destabilizing(k2.rep(0), THETA).dims == (1, 0)


def test_hn_semistable_trivial_type(f2):
    M = RepSpace(kronecker(2), (1, 1), f2).rep(1)
    filt, beta = hn_filtration(M, THETA)
    assert beta.pieces == ((1, 1),)
    assert beta.slopes == (Fraction(1, 2),)
    assert len(filt.steps) == 2


def test_hn_zero_rep_k2(f2):
    M = RepSpace(kronecker(2), (1, 1), f2).rep(0)
    _, beta = hn_filtration(M, THETA)
    assert beta.pieces == ((1, 0), (0, 1))
    assert beta.slopes == (Fraction(1), Fraction(0))


def test_hn_zero_rep_a2(f2):
    M = RepSpace(a2_quiver(), (1, 1), f2).rep(0)
    _, beta = hn_filtration(M, THETA)
    assert beta.pieces == ((1, 0), (0, 1))


EXHAUSTIVE_CASES = [
    (kronecker(2), (1, 1), 2),
    (kronecker(2), (1, 1), 3),
    (a2_quiver(), (1, 1), 2),
    (a2_quiver(), (1, 1), 3),
    (kronecker(2), (2, 3), 2),
]


@pytest.mark.parametrize("quiver,dims,q", EXHAUSTIVE_CASES)
def test_hn_invariants_exhaustive(quiver, dims, q):
    """Graded pieces of every computed filtration are semistable, the
    slopes strictly decrease, and the type decomposes the dimension
    vector."""
    from quivercount import field_table

    field = field_table(q)
    admissible = set()
    for beta in enumerate_hn_types(quiver, dims, THETA):
        admissible.add(beta)
    for M in enumerate_reps(quiver, dims, field):
        filt, beta = hn_filtration(M, THETA)
        assert beta in admissible
        assert tuple(map(sum, zip(*beta.pieces))) == tuple(dims)
        mus = beta.slopes
        assert all(a > b for a, b in zip(mus, mus[1:]))
        assert mus == tuple(slope(THETA, piece) for piece in beta.pieces)
        if len(filt.steps) > 2:
            assert slope(THETA, filt.steps[2].dims) < slope(THETA, filt.steps[1].dims)
        for piece_dims, piece in zip(beta.pieces, associated_graded(M, filt)):
            assert piece.space.dims == piece_dims
            assert is_semistable(piece, THETA).status == SEMISTABLE


@pytest.mark.parametrize("quiver,dims,q", [
    (kronecker(2), (1, 1), 2),
    (kronecker(2), (1, 1), 3),
    (a2_quiver(), (1, 1), 2),
    (a2_quiver(), (1, 1), 3),
    (kronecker(2), (2, 1), 2),
])
def test_hn_uniqueness_against_chain_search(quiver, dims, q):
    """The chain search finds exactly one valid filtration, the computed
    one."""
    from quivercount import field_table

    field = field_table(q)
    for M in enumerate_reps(quiver, dims, field):
        found = brute_force_filtrations(M, THETA)
        assert len(found) == 1
        filt, _ = hn_filtration(M, THETA)
        assert found[0] == tuple(filt.steps[1:])


def test_hn_rejects_zero_dimension(f2):
    from quivercount import Quiver

    space = RepSpace(Quiver(2, ()), (0, 0), f2)
    with pytest.raises(ValueError):
        hn_filtration(space.rep(0), THETA)


def test_the_procedure_enumerates_through_the_stability_namespace(
        f2, monkeypatch):
    # bench/replay.py times and counts subrepresentations by wrapping
    # stability.enumerate_subreps; if the procedure stopped calling it
    # there, its traced rep.subreps_yielded would read 0
    original = stability.enumerate_subreps
    yielded = []

    def traced(M, *args, **kwargs):
        for S in original(M, *args, **kwargs):
            yielded.append(S)
            yield S

    monkeypatch.setattr(stability, "enumerate_subreps", traced)
    space = RepSpace(kronecker(2), (2, 3), f2)
    for idx in range(0, space.point_count, 16):
        hn_filtration(space.rep(idx), THETA)
    assert len(yielded) > 0


@pytest.mark.parametrize("check", [maximal_destabilizing, is_stable,
                                   is_semistable])
def test_stability_is_undefined_for_the_zero_vector(f2, check):
    M = RepSpace(Quiver(2, ()), (0, 0), f2).rep(0)
    with pytest.raises(ValueError, match="stability is undefined for the "
                                         "zero dimension vector"):
        check(M, THETA)
