"""Row reduction and small-matrix helpers over a FieldTable.

Vectors are tuples of element indices; an r x n matrix is a tuple of r
row tuples.  Everything is tiny, so the code favours clarity and exact
table lookups over any clever packing.

rref, reduce_mod and mat_vec are the definitional references of
is_subrep and the tests; rep's subspace layer works on codes instead.

Index encodings (used for bulk enumeration):
  vector v of length n   ->  sum_k v[k] * q^k
  matrix, row-major      ->  entry (i, j) contributes at digit i*n + j
  encode_columns         ->  the same matrix index from the codes of the
                             columns: digit i of column j goes to digit i*n + j
  action_table           ->  a matrix as a map of codes: entry c is the
                             code of mat * v for the vector v with code c
"""


def rref(field, rows):
    """Reduced row echelon form.

    Returns (basis, pivots): the nonzero rows of the RREF and the pivot
    column of each.  Two row-equivalent inputs yield identical output,
    so the result is a canonical name for the row space.
    """
    mul, add, neg, inv = (field.mul_table, field.add_table,
                          field.neg_table, field.inv_table)
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        if pv != 1:
            s = inv[pv]
            work[r] = [mul[s][x] for x in work[r]]
        row_r = work[r]
        for i in range(m):
            if i != r and work[i][c]:
                f = work[i][c]
                fm = mul[f]
                work[i] = [add[x][neg[fm[y]]] for x, y in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def mat_vec(field, mat, v):
    """Apply a matrix to a column vector: out[i] = sum_k mat[i][k] * v[k]."""
    mul, add = field.mul_table, field.add_table
    out = []
    for row in mat:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = add[acc][mul[a][b]]
        out.append(acc)
    return tuple(out)


def reduce_mod(field, basis, pivots, v):
    """Subtract basis multiples so the result vanishes on all pivot columns.

    With ``basis`` in RREF this is the canonical representative of v
    modulo the row space; v lies in the row space iff the result is 0.
    """
    mul, add, neg = field.mul_table, field.add_table, field.neg_table
    w = list(v)
    for row, p in zip(basis, pivots):
        c = w[p]
        if c:
            cm = mul[c]
            w = [add[x][neg[cm[y]]] for x, y in zip(w, row)]
    return tuple(w)


def encode_vector(v, q):
    idx = 0
    for k in range(len(v) - 1, -1, -1):
        idx = idx * q + v[k]
    return idx


def decode_vector(idx, n, q):
    out = []
    for _ in range(n):
        idx, r = divmod(idx, q)
        out.append(r)
    return tuple(out)


def encode_matrix(mat, q):
    flat = [x for row in mat for x in row]
    return encode_vector(flat, q)


def encode_columns(cols, rows, q):
    """The index of the rows x len(cols) matrix whose column j has code
    cols[j]."""
    n = len(cols)
    return sum(col // q**i % q * q**(i * n + j)
               for j, col in enumerate(cols) for i in range(rows))


def decode_matrix(idx, rows, cols, q):
    flat = decode_vector(idx, rows * cols, q)
    return tuple(flat[i * cols:(i + 1) * cols] for i in range(rows))


def action_table(field, mat, n_src):
    """The code of mat * v for every v in GF(q)^{n_src}, by code of v.

    Row by row, the value on the vectors below q^(j+1) is built from
    the value below q^j: code a*q^j + r adds mat[i][j]*a to the entry
    at r.
    """
    q = field.q
    add, mul = field.add_table, field.mul_table
    codes = [0] * q**n_src
    weight = 1
    for row in mat:
        values = [0]
        for m in row:
            scaled = mul[m]
            base = values
            values = list(base)
            for a in range(1, q):
                shift = add[scaled[a]]
                values += [shift[x] for x in base]
        codes = [c + weight * v for c, v in zip(codes, values)]
        weight *= q
    return tuple(codes)
