"""The scan's block tables against brute force, and the bench's reading
of them.

A block table lists, per restriction code u, the codes of the matrices
carrying the source record's subspace into the target record's, in an
array("q") that pairs position by position with the shared array of
quotient codes.  The brute force runs over every nt x n matrix and reads
u and w from the target's coords table, as sub_rep and quotient_rep do.
The run is derandomized and keeps no example database.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from quivercount import ScanClassifier, field_table
from quivercount.cli import parse_problem
from quivercount.exhaustive import BlockTable
from quivercount.linalg import action_table, decode_matrix, encode_columns
from quivercount.rep import subspace_catalog

BENCH = Path(__file__).resolve().parent.parent / "bench"

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=100)

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


@st.composite
def record_pairs(draw):
    """(source, target) catalog records of GF(q)^n and GF(q)^nt with at
    most 2^12 matrices nt x n.  At q = 4, 8 and 9 field addition is not
    addition mod q; the table adds codes only at disjoint digits."""
    q = draw(st.sampled_from((2, 3, 4, 5, 8, 9)))
    n, nt = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
        lambda dims: q**(dims[0] * dims[1]) <= 2**12))
    field = field_table(q)
    src, tgt = (draw(st.sampled_from(subspace_catalog(field, m)))
                for m in (n, nt))
    return src, tgt


def brute_force(src, tgt):
    """{u: [(matrix code, w), ...]} over every preserving matrix."""
    field, q = src.field, src.field.q
    n, nt = src.n, tgt.n
    found = {}
    for code in range(q**(n * nt)):
        act = action_table(field, decode_matrix(code, nt, n, q), n)
        if all(act[c] in tgt.members for c in src.codes):
            u = encode_columns([tgt.coords[act[c]][0] for c in src.codes],
                               tgt.k, q)
            w = encode_columns([tgt.coords[act[q**c]][1]
                                for c in src.free_cols], nt - tgt.k, q)
            found.setdefault(u, []).append((code, w))
    return found


@DETERMINISTIC
@given(record_pairs())
def test_block_table_is_every_preserving_matrix(pair):
    table = BlockTable(*pair)
    expected = brute_force(*pair)
    assert set(table.by_sub) == set(expected)
    assert table.quots.typecode == "q"
    for u, codes in table.by_sub.items():
        assert codes.typecode == "q" and len(codes) == len(table.quots)
        assert sorted(zip(codes, table.quots)) == sorted(expected[u])


def test_bench_replay_reads_every_block_table(monkeypatch):
    # bench/replay.py counts exhaustive.block_tables and
    # exhaustive.block_table_entries from by_sub, as sized sequences
    monkeypatch.syspath_prepend(str(BENCH))
    import replay

    problem = parse_problem((BENCH / "problems" / "k2_23.problem").read_text(
        encoding="utf-8"))
    field = field_table(2)
    classifier = ScanClassifier(problem.quiver, problem.theta, field)
    classifier.table(problem.dims)
    tables = replay.block_tables(classifier)
    assert tables
    assert sorted(map(id, tables)) == sorted(
        map(id, classifier.block_tables.values()))
    # both arrows of K2 run 0 -> 1, so arrow 0's list covers one table
    entries = sum(len(classifier.triples((src.n, tgt.n), (src, tgt))[0])
                  for src, tgt in classifier.block_tables)
    tracer = replay.Tracer()
    replay.scan(tracer, problem, field)
    assert tracer.counts["exhaustive.block_tables"] == len(tables)
    assert tracer.counts["exhaustive.block_table_entries"] == entries
