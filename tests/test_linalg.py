import random

import pytest

from quivercount import field_table
from quivercount.linalg import (action_table, decode_matrix, decode_vector,
                                encode_columns, encode_matrix, encode_vector,
                                mat_vec, reduce_mod, rref)


def random_matrix(rng, rows, cols, q):
    return tuple(tuple(rng.randrange(q) for _ in range(cols))
                 for _ in range(rows))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rref_is_canonical(q):
    field = field_table(q)
    rng = random.Random(1000 + q)
    for _ in range(60):
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
        mat = random_matrix(rng, rows, cols, q)
        basis, pivots = rref(field, mat)
        assert rref(field, basis) == (basis, pivots)
        # pivot entries are 1 and pivot columns are reduced
        for i, (row, p) in enumerate(zip(basis, pivots)):
            assert row[p] == 1
            assert all(row[pp] == 0 for j, pp in enumerate(pivots) if j != i)
        # original rows lie in the row space
        for row in mat:
            assert not any(reduce_mod(field, basis, pivots, row))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_rref_names_the_row_space(q):
    # shuffling rows and adding multiples of other rows does not change
    # the canonical form
    field = field_table(q)
    rng = random.Random(77 + q)
    for _ in range(40):
        mat = [list(r) for r in random_matrix(rng, 3, 4, q)]
        basis, pivots = rref(field, mat)
        i, j = rng.randrange(3), rng.randrange(3)
        if i != j:
            c = rng.randrange(q)
            mat[i] = [field.add(x, field.mul(c, y))
                      for x, y in zip(mat[i], mat[j])]
        rng.shuffle(mat)
        assert rref(field, mat) == (basis, pivots)


def test_mat_vec():
    field = field_table(3)
    mat = ((1, 2), (0, 1), (2, 2))
    assert mat_vec(field, mat, (1, 1)) == (0, 1, 1)
    assert mat_vec(field, (), (1, 2)) == ()


def test_reduce_mod_membership():
    field = field_table(2)
    basis, pivots = rref(field, ((1, 0, 1), (0, 1, 1)))
    assert not any(reduce_mod(field, basis, pivots, (1, 1, 0)))
    assert any(reduce_mod(field, basis, pivots, (0, 0, 1)))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_encode_decode_roundtrip(q):
    rng = random.Random(5 + q)
    for _ in range(30):
        n = rng.randrange(1, 5)
        vec = tuple(rng.randrange(q) for _ in range(n))
        assert decode_vector(encode_vector(vec, q), n, q) == vec
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 4)
        mat = random_matrix(rng, rows, cols, q)
        assert decode_matrix(encode_matrix(mat, q), rows, cols, q) == mat
    assert encode_vector((), q) == 0
    assert decode_matrix(0, 0, 3, q) == ()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_encode_columns_is_the_index_of_the_columns(q):
    # at q = 4 the digits of a code do not add as field elements
    rng = random.Random(31 + q)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 4), (4, 1)]
    shapes += [(rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(30)]
    for rows, cols in shapes:
        codes = [rng.randrange(q**rows) for _ in range(cols)]
        columns = [decode_vector(code, rows, q) for code in codes]
        mat = tuple(tuple(col[i] for col in columns) for i in range(rows))
        assert encode_columns(codes, rows, q) == encode_matrix(mat, q)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_action_table_is_mat_vec_on_every_code(q):
    field = field_table(q)
    rng = random.Random(47 + q)
    shapes = [(0, 2), (2, 0), (1, 1)]
    shapes += [(rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(12)]
    for rows, cols in shapes:
        mat = random_matrix(rng, rows, cols, q)
        table = action_table(field, mat, cols)
        assert len(table) == q**cols
        for code, image in enumerate(table):
            v = decode_vector(code, cols, q)
            assert image == encode_vector(mat_vec(field, mat, v), q)
