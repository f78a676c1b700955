"""Representations of a quiver over GF(q), named by index, and the
exhaustive enumeration of representations, subspaces and
subrepresentations.

Conventions fixed here and relied on everywhere else:

* A representation is one matrix per arrow, in quiver arrow order; the
  matrix of an arrow s -> t has shape d_t x d_s and acts on column
  vectors.
* Representations are indexed 0 .. q^dim - 1: arrow 0 occupies the
  least significant base-q digits, each matrix flattened row-major
  (see linalg for the digit order).  enumerate_reps yields in
  increasing index order.  A point is its space and a range-checked
  index; RepSpace.index_of is the checked path from matrices.
* Subspaces are stored as reduced row echelon bases, so equal
  subspaces have identical storage and set-level deduplication is
  structural equality.
* Quotient coordinates are the non-pivot columns of the subspace
  basis, in increasing column order.  This makes quotients and
  associated graded pieces deterministic.
* A vector v of GF(q)^n is also named by its code sum_k v[k] * q^k
  (linalg.encode_vector): code 0 is the zero vector, the unit vector
  e_c has code q^c, and digit k of the code is v[k].
* subspace_catalog(field, n) lists every subspace of GF(q)^n once, by
  dimension and then in enumerate_subspaces order, and
  catalog_dim(field, n, k) lists its k-dimensional records.  Each record
  carries the RREF rows, the codes of the rows and the set of codes of
  all members; the catalog also finds a record by its rows and by its
  member set.
* GF(q)^n = S + span(e_c : c a free column of S), and the coords table
  of a record names each vector v by its two parts: entry c is the pair
  (y, z) of codes with v = sum_r y[r] * row_r + sum_i z[i] * e_{free_i}.
  So y is the restriction coordinate (the pivot entries of v), z the
  quotient coordinate, and z = 0 exactly on the members.  Restrictions,
  quotients, lifts (pullback), graded pieces and the scan's block
  tables all read this one table, which a record builds on first use.
* The action table of an arrow s -> t of a representation is the
  arrow's matrix as a map of codes (linalg.action_table).  The tables
  are held on the space, one store per arrow keyed by the arrow's digit
  block of the index (its code), so points that share an arrow's matrix
  share its table; a store is cleared before it would hold more than
  MAX_TABLE_ENTRIES entries.  A subspace tuple is closed under the
  arrow iff the table maps the codes of the source rows into the
  members of the target record.
* A subspace tuple is its catalog record per vertex, and compares and
  hashes by field, ambient and bases; SubspaceTuple.of is the checked
  path from bases.
"""

import sys
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import chain, combinations, product
from math import prod
from operator import attrgetter

from .errors import BudgetExceeded
from .linalg import (action_table, decode_matrix, encode_columns,
                     encode_matrix, encode_vector, mat_vec, reduce_mod)
from .quiver import check_vector, rep_space_dim

DEFAULT_MAX_REPS = 2**24
DEFAULT_MAX_TUPLES = 2**20
MAX_TABLE_ENTRIES = 2**14  # action-table entries per arrow's store on a space
MAX_IMAGE_SETS = 2**10  # image sets per record-tree node's store
MAX_RECORD_TREES = 2**6  # record trees, one per admissible set, on a space

# readers of catalog records, for building subspace tuples from them
_ROWS = attrgetter("rows")
_DIM = attrgetter("k")


class RepSpace:
    """The affine space of matrix tuples for (quiver, dims) over GF(q)."""

    def __init__(self, quiver, dims, field):
        self.quiver = quiver
        self.dims = check_vector(quiver, dims, "dimension vector")
        self.field = field
        self.arrow_shapes = tuple(
            (self.dims[t], self.dims[s]) for (s, t) in quiver.arrows)
        self.arrow_sizes = tuple(r * c for (r, c) in self.arrow_shapes)
        self.dimension = rep_space_dim(quiver, self.dims)
        # per arrow: the action table of each arrow code read so far
        self.table_stores = tuple({} for _ in self.arrow_sizes)

    # built on first use, so a budget check can reject a space before
    # q^dimension is ever computed
    @cached_property
    def arrow_strides(self):
        strides = []
        acc = 1
        for size in self.arrow_sizes:
            strides.append(acc)
            acc *= self.field.q**size
        return tuple(strides)

    @cached_property
    def point_count(self):
        return self.field.q**self.dimension

    def rep(self, index):
        """The representation with the given index."""
        return Representation(self, index)

    def index_of(self, mats):
        """The index of a matrix per arrow, each checked against the space."""
        q = self.field.q
        if len(mats) != len(self.arrow_shapes):
            raise ValueError("wrong number of matrices")
        index = 0
        for mat, (rows, cols), stride in zip(mats, self.arrow_shapes,
                                             self.arrow_strides):
            if len(mat) != rows or any(len(row) != cols for row in mat):
                raise ValueError(f"matrix shape mismatch: expected {rows}x{cols}")
            if any(not (isinstance(x, int) and 0 <= x < q)
                   for row in mat for x in row):
                raise ValueError("matrix entry outside the field")
            index += encode_matrix(mat, q) * stride
        return index

    @cached_property
    def _subrep_plan(self):
        """The zero subspace's record at every vertex, the vertices
        enumerate_subreps fixes (those of nonzero dimension, or vertex 0
        alone), each with the (source, arrow) pairs into it from earlier
        vertices and the (target, arrow) pairs out of it into earlier
        vertices or itself, and the kept record trees, cleared before
        they would number more than MAX_RECORD_TREES."""
        into = [[] for _ in self.dims]
        back = [[] for _ in self.dims]
        for k, (s, t) in enumerate(self.quiver.arrows):
            if s < t:
                into[t].append((s, k))
            else:
                back[s].append((t, k))
        order = [i for i, n in enumerate(self.dims) if n] or [0]
        return ([catalog_dim(self.field, n, 0)[0] for n in self.dims],
                [(i, into[i], back[i]) for i in order], {})

    def __eq__(self, other):
        return (isinstance(other, RepSpace) and self.quiver == other.quiver
                and self.dims == other.dims and self.field == other.field)

    def __hash__(self):
        return hash((self.quiver, self.dims, self.field.q))

    def __repr__(self):
        return f"RepSpace({self.quiver!r}, dims={self.dims}, q={self.field.q})"


# the spaces of derived dimension vectors, shared so that each keeps its
# record trees
_space = lru_cache(maxsize=256)(RepSpace)


class Representation:
    """One point of the representation space, named by its index."""

    def __init__(self, space, index):
        if not isinstance(index, int):
            raise ValueError(f"index {index!r} is not an integer")
        if not 0 <= index < space.point_count:
            raise ValueError(f"index {index} out of range")
        self.space = space
        self.index = index

    def __eq__(self, other):
        return (isinstance(other, Representation) and self.index == other.index
                and self.space == other.space)

    def __hash__(self):
        return hash((self.space, self.index))

    @cached_property
    def mats(self):
        """One matrix per arrow, decoded from the index."""
        space = self.space
        q = space.field.q
        return tuple(decode_matrix(self.index // stride % q**size, rows, cols, q)
                     for (rows, cols), size, stride in zip(
                         space.arrow_shapes, space.arrow_sizes, space.arrow_strides))

    @property
    def dims(self):
        return self.space.dims

    @cached_property
    def actions(self):
        """One action table per arrow (see the module docstring), read
        from the space's store and built only on a miss."""
        space = self.space
        field = space.field
        q = field.q
        tables = []
        for (rows, cols), size, stride, store in zip(
                space.arrow_shapes, space.arrow_sizes, space.arrow_strides,
                space.table_stores):
            code = self.index // stride % q**size
            table = store.get(code)
            if table is None:
                table = action_table(field, decode_matrix(code, rows, cols, q), cols)
                if (len(store) + 1) * len(table) > MAX_TABLE_ENTRIES:
                    store.clear()
                if len(table) <= MAX_TABLE_ENTRIES:
                    store[code] = table
            tables.append(table)
        return tuple(tables)


class SubspaceTuple:
    """A subspace of GF(q)^{d_i} per vertex, held as its catalog record."""

    __slots__ = ("records", "dims", "total_dim")

    def __init__(self, records):
        self.records = records
        self.dims = dims = tuple(map(_DIM, records))
        self.total_dim = sum(dims)

    @classmethod
    def of(cls, field, ambient, bases):
        """The tuple with the given RREF basis per vertex, looked up in the
        catalogs of the ambient dimensions, which this builds; ValueError
        unless each basis is the RREF basis of a subspace of GF(q)^n with
        integer entries."""
        if len(bases) != len(ambient):
            raise ValueError("one basis per vertex required")
        records = []
        for n, basis in zip(ambient, bases):
            basis = tuple(map(tuple, basis))
            if not (isinstance(n, int)
                    and all(isinstance(x, int) for row in basis for x in row)):
                raise ValueError("subspace basis has a non-integer entry")
            record = _catalog(field, n)[1].get(basis)
            if record is None:
                raise ValueError(f"{basis} is not the RREF basis of a "
                                 f"subspace of GF({field.q})^{n}")
            records.append(record)
        return cls(tuple(records))

    @classmethod
    def zero(cls, field, ambient):
        return cls(tuple(catalog_dim(field, n, 0)[0] for n in ambient))

    @classmethod
    def full(cls, field, ambient):
        return cls(tuple(catalog_dim(field, n, n)[0] for n in ambient))

    @property
    def field(self):
        return self.records[0].field

    @property
    def ambient(self):
        return tuple(r.n for r in self.records)

    @property
    def bases(self):
        return tuple(map(_ROWS, self.records))

    def __eq__(self, other):
        # by value, not by record: an evicted catalog's records are rebuilt
        return (isinstance(other, SubspaceTuple)
                and self.field == other.field and self.ambient == other.ambient
                and self.bases == other.bases)

    def __hash__(self):
        return hash((self.field.q, self.ambient, self.bases))

    def is_zero(self):
        return self.total_dim == 0

    def is_full(self):
        return self.dims == self.ambient


class Filtration(namedtuple("Filtration", "steps")):
    """A strictly increasing chain 0 = S^0 < S^1 < ... < S^n = full."""

    __slots__ = ()

    def __new__(cls, steps):
        steps = tuple(steps)
        if len(steps) < 2:
            raise ValueError("a filtration has at least the zero and full steps")
        ambient = steps[0].ambient
        if any(s.ambient != ambient for s in steps):
            raise ValueError("all steps must share the ambient dimensions")
        if not steps[0].is_zero() or not steps[-1].is_full():
            raise ValueError("filtration must run from 0 to the full tuple")
        totals = [s.total_dim for s in steps]
        if any(a >= b for a, b in zip(totals, totals[1:])):
            raise ValueError("total dimension must strictly increase")
        return super().__new__(cls, steps)


# ---------------------------------------------------------------------------
# enumeration


def check_rep_budget(space, max_reps):
    """The point count of the space, once it is at most max_reps and
    sys.maxsize, the largest index of a point table; else BudgetExceeded,
    which names the count as q^dimension, never in full.  The lower bound
    2^(floor(log2 q) * dimension) is compared first, so q^dimension is
    computed only when it has about as many bits as the limit."""
    q, n = space.field.q, space.dimension
    limit = min(max_reps, sys.maxsize)
    if ((q.bit_length() - 1) * n >= limit.bit_length()
            or space.point_count > limit):
        name = (f"the budget {max_reps}" if limit == max_reps
                else f"the index limit {limit} (sys.maxsize)")
        raise BudgetExceeded(f"{q}^{n} representations exceed {name}")
    return space.point_count


def enumerate_reps(quiver, dims, field, max_reps=DEFAULT_MAX_REPS):
    """Yield every representation exactly once, in increasing index order."""
    space = RepSpace(quiver, dims, field)
    yield from map(space.rep, range(check_rep_budget(space, max_reps)))


def enumerate_subspaces(n, k, field):
    """Yield the RREF basis of every k-dimensional subspace of GF(q)^n.

    Each subspace appears exactly once; the total count is the Gaussian
    binomial coefficient.  For k = 0 the single empty basis is yielded.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == 0:
        yield ()
        return
    q = field.q
    for pivots in combinations(range(n), k):
        pivot_set = set(pivots)
        free = [(r, c) for r in range(k)
                for c in range(n) if c > pivots[r] and c not in pivot_set]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for r in range(k):
                rows[r][pivots[r]] = 1
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield tuple(tuple(row) for row in rows)


class SubspaceInfo:
    """Catalog record: an RREF basis plus derived data for fast scans."""

    __slots__ = ("field", "rows", "codes", "pivots", "free_cols", "n", "k",
                 "members", "_coords")

    def __init__(self, field, rows, n):
        self.field = field
        self._coords = None
        self.rows = rows
        self.codes = tuple(encode_vector(row, field.q) for row in rows)
        self.n = n
        self.k = len(rows)
        # the first nonzero column of each row
        self.pivots = tuple(next(j for j, x in enumerate(row) if x)
                            for row in rows)
        piv = set(self.pivots)
        self.free_cols = tuple(c for c in range(n) if c not in piv)
        # the image of the map whose columns are the rows
        self.members = frozenset(
            action_table(field, tuple(zip(*rows)), self.k))

    @property
    def coords(self):
        """Entry c: the (restriction, quotient) coordinate codes of the
        vector with code c (see the module docstring), by inverting the
        map (y, z) -> sum_r y[r] * row_r + sum_i z[i] * e_{free_i}."""
        if self._coords is None:
            n, split = self.n, self.field.q**self.k
            units = [tuple(int(j == f) for j in range(n))
                     for f in self.free_cols]
            act = action_table(self.field, tuple(zip(*self.rows, *units)), n)
            table = [None] * len(act)
            for c, v in enumerate(act):
                table[v] = (c % split, c // split)
            self._coords = tuple(table)
        return self._coords


@lru_cache(maxsize=64)
def _catalog(field, n):
    # the records of each dimension, then each record by rows and by member
    # set; an evicted catalog's records stay valid: contains reads members
    by_dim = tuple(tuple(SubspaceInfo(field, rows, n)
                         for rows in enumerate_subspaces(n, k, field))
                   for k in range(n + 1))
    records = list(chain.from_iterable(by_dim))
    return (by_dim, {r.rows: r for r in records},
            {r.members: r for r in records})


def subspace_catalog(field, n):
    """All subspaces of GF(q)^n as their cached SubspaceInfo records.

    Ordered by dimension, then by generation order of
    enumerate_subspaces; the order is deterministic.
    """
    return tuple(chain.from_iterable(_catalog(field, n)[0]))


def catalog_dim(field, n, k):
    """The k-dimensional records of subspace_catalog(field, n), in its
    order."""
    return _catalog(field, n)[0][k]


def subspace_count(n, q):
    """Number of subspaces of GF(q)^n, counted without listing them: the
    sum of the Gaussian binomials, [n; k] = [n; k-1] (q^(n-k+1) - 1) /
    (q^k - 1)."""
    total = binom = 1
    for k in range(1, n + 1):
        binom = binom * (q**(n - k + 1) - 1) // (q**k - 1)
        total += binom
    return total


@lru_cache(maxsize=256)
def check_tuple_budget(dims, q, max_tuples):
    """Raise BudgetExceeded, before any catalog is built, when the
    subspace tuples of dims over GF(q) outnumber max_tuples; the count
    is named by a lower bound on its bit length, never in full.  A key
    that passes is cached and not counted again; one that fails raises
    on every call.

    The exact count at a vertex of dimension n has about n^2/4 * log2(q)
    bits, so the lower bound [n; n//2]_q >= q^(n^2 // 4) at the largest
    vertex is compared first, and the exact counts are summed only when
    it fits."""
    largest = max(dims)
    bits = (q.bit_length() - 1) * (largest * largest // 4)
    if bits < max_tuples.bit_length():
        candidates = prod(subspace_count(n, q) for n in dims)
        if candidates <= max_tuples:
            return
        bits = candidates.bit_length() - 1
    raise BudgetExceeded(f"2^{bits} or more candidate subspace tuples "
                         f"exceed the budget {max_tuples}")


def _check_same_ambient(M, S):
    """ValueError unless S lies in the vertex spaces of M, over its field."""
    space = M.space
    if S.ambient != space.dims:
        raise ValueError("subspace tuple and representation differ in dimensions")
    if S.field != space.field:
        raise ValueError("subspace tuple and representation differ in field")


def is_subrep(M, S):
    """Definitional check: every arrow maps S at its source into S at
    its target; ValueError when S and M differ in ambient or field."""
    _check_same_ambient(M, S)
    field = M.space.field
    for (s, t), mat in zip(M.space.quiver.arrows, M.mats):
        target = S.records[t]
        for row in S.bases[s]:
            image = mat_vec(field, mat, row)
            if any(reduce_mod(field, target.rows, target.pivots, image)):
                return False
    return True


def _record_tree(space, admissible):
    """The records enumerate_subreps tries per level, as nodes (records,
    children, store): the records of the dimensions some admissible
    vector allows after those already fixed, the next level's node by
    the dimension fixed here, and a dict from an image set to the
    records that contain it, cleared before it would hold more than
    MAX_IMAGE_SETS sets.  ValueError for a vector of the wrong length."""
    for e in admissible:
        check_vector(space.quiver, e, "admissible vector", nonnegative=False)
    _, levels, _ = space._subrep_plan
    order = [level[0] for level in levels]

    def build(j, paths):
        i, children, records = levels[j][0], {}, []
        for path in paths:
            children.setdefault(path[0], set()).add(path[1:])
        for k in sorted(children):
            records += catalog_dim(space.field, space.dims[i], k)
            children[k] = build(j + 1, children[k]) if len(path) > 1 else None
        return tuple(records), children, {}

    return build(0, {tuple(e[i] for i in order) for e in admissible
                     if all(0 <= x <= n for x, n in zip(e, space.dims))})


def enumerate_subreps(M, max_tuples=DEFAULT_MAX_TUPLES, admissible=None):
    """An iterator over exactly the subspace tuples closed under all
    arrow maps, the zero and full tuples included, whose dimension
    vectors lie in the set ``admissible`` (by default all do), in catalog
    product order (the last vertex varies fastest).  The budget is
    checked on the call.

    Vertices are fixed one at a time from the records that _record_tree
    admits.  Each arrow is checked as soon as both of its ends are fixed,
    by looking up the action-table images of the source rows among the
    target record's members, so a failing prefix is never extended.  The
    images of the arrows from fixed vertices form one set, and the
    node's store gives the records that contain it, so a set seen before
    at the node costs one lookup, not a subset test per record.  A
    vertex of dimension 0 has only the zero subspace, and every arrow at
    it is closed, so it is fixed up front: each other vertex has two or
    more subspaces, and the budget bounds the recursion depth by
    log2(max_tuples).
    """
    space = M.space
    field = space.field
    dims = space.dims
    check_tuple_budget(dims, field.q, max_tuples)
    zeros, levels, trees = space._subrep_plan
    key = frozenset(product(*(range(n + 1) for n in dims))
                    if admissible is None else admissible)
    tree = trees.get(key)
    if tree is None:
        if len(trees) >= MAX_RECORD_TREES:
            trees.clear()
        tree = trees[key] = _record_tree(space, key)
    acts = M.actions
    chosen = list(zeros)
    last = len(levels) - 1

    def extend(j, node):
        i, into, checks = levels[j]
        records, children, store = node
        need = frozenset([acts[k][c] for s, k in into for c in chosen[s].codes])
        matches = store.get(need)
        if matches is None:
            if len(store) >= MAX_IMAGE_SETS:
                store.clear()
            matches = store[need] = tuple(
                rec for rec in records if need <= rec.members)
        for rec in matches:
            if checks and not all(
                    acts[k][c] in (rec if t == i else chosen[t]).members
                    for t, k in checks for c in rec.codes):
                continue
            chosen[i] = rec
            if j == last:
                yield SubspaceTuple(tuple(chosen))
            else:
                yield from extend(j + 1, children[rec.k])

    return extend(0, tree)


# ---------------------------------------------------------------------------
# quotients, restrictions, graded pieces


def _closed_records(M, S):
    """The catalog records of S, once the action tables show that every
    arrow maps S into itself; ValueError otherwise."""
    _check_same_ambient(M, S)
    records = S.records
    for (s, t), act in zip(M.space.quiver.arrows, M.actions):
        members = records[t].members
        for c in records[s].codes:
            if act[c] not in members:
                raise ValueError("not a subrepresentation")
    return records


def _induced_key(M, S, quotient):
    """The dimension vector and index of the restriction of M to the
    subrepresentation S (quotient 0), or of the induced representation
    on the quotient by it (quotient 1), in the coordinates of the coords
    tables: an arrow's column for a row of the source subspace (a free
    source column) is the restriction (quotient) coordinate of its
    image."""
    records = _closed_records(M, S)
    space = M.space
    q = space.field.q
    new_dims = tuple(d - r.k if quotient else r.k
                     for d, r in zip(space.dims, records))
    index, stride = 0, 1
    for (s, t), act in zip(space.quiver.arrows, M.actions):
        sources = ([q**c for c in records[s].free_cols] if quotient
                   else records[s].codes)
        coords = records[t].coords
        index += stride * encode_columns(
            [coords[act[c]][quotient] for c in sources], new_dims[t], q)
        stride *= q**(new_dims[s] * new_dims[t])
    return new_dims, index


def _induced_rep(M, S, quotient):
    dims, index = _induced_key(M, S, quotient)
    return _space(M.space.quiver, dims, M.space.field).rep(index)


def quotient_key(M, S):
    """The (dimension vector, index) of quotient_rep(M, S), found without
    building the point."""
    return _induced_key(M, S, 1)


def quotient_rep(M, S):
    """The induced representation on the quotient coordinates: the free
    columns of the subspace basis at each vertex."""
    return _induced_rep(M, S, 1)


def sub_rep(M, S):
    """The restriction of M to a subrepresentation, in the basis rows of S."""
    return _induced_rep(M, S, 0)


def _image_in_sub_coords(outer, inner):
    """inner expressed in the restriction coordinates of outer (inner <=
    outer): the records whose members are the restriction coordinates
    of inner's members."""
    return SubspaceTuple(tuple(_catalog(outer.field, rec_out.k)[2][frozenset(
        rec_out.coords[c][0] for c in rec_in.members)]
        for rec_in, rec_out in zip(inner.records, outer.records)))


def contains(outer, inner):
    """Whether each subspace of ``inner`` lies in the one of ``outer``:
    the member sets of their catalog records nest."""
    return all(a.members <= b.members
               for a, b in zip(inner.records, outer.records))


def associated_graded(M, filtration):
    """The list of subquotient representations S^k / S^{k-1}.

    This realizes the limit of the one-parameter subgroup attached to
    the filtration without ever constructing the subgroup: the graded
    pieces are exactly the diagonal blocks in adapted coordinates.
    """
    steps = filtration.steps
    if steps[0].ambient != M.space.dims:
        raise ValueError("filtration ambient does not match the representation")
    for lower, upper in zip(steps, steps[1:]):
        if not contains(upper, lower):
            raise ValueError("filtration steps are not nested")
    pieces = []
    for lower, upper in zip(steps, steps[1:]):
        restricted = sub_rep(M, upper)
        lowered = _image_in_sub_coords(upper, lower)
        pieces.append(quotient_rep(restricted, lowered))
    return pieces


def pullback(S, T):
    """Lift T, a subspace tuple in the quotient coordinates of S, back to
    the ambient space: per vertex, the record whose members are the
    vectors whose quotient coordinate lies in T.  ValueError unless T
    lies over S's quotient dimensions and field."""
    if T.field != S.field or T.ambient != tuple(r.n - r.k for r in S.records):
        raise ValueError("T is not in the quotient coordinates of S")
    return SubspaceTuple(tuple(_catalog(S.field, rec.n)[2][frozenset(
        c for c, (_, z) in enumerate(rec.coords) if z in sub.members)]
        for rec, sub in zip(S.records, T.records)))
