"""Traced in-process replay of a benchmark workload.

The replay repeats the work of one CLI invocation through the package's
public functions, wrapping each call into a layer in a span.  It follows
the CLI's call pattern (a fresh semistable memo per call, one moduli
polynomial per q in ``verify``); a change to that pattern in the CLI
needs the same change here.

A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span (or None); spans are kept in memory and returned at
the end.  Two root spans separate the replay of the CLI's own work
(``replay``) from extra passes that only measure a layer or check the
replay (``probe``), such as timing ``hn_filtration`` on every point.

Per-layer times are the summed durations of all spans of one name, so
they include their child spans; no name nests inside itself.  A layer
that a workload does not reach reports 0.  The replay's results are
checked against the CLI's stdout and against the package's own
entry points (``moduli_count_poly``, ``classify_direct``); every
disagreement is returned as a message.
"""

import re
import statistics
from collections import Counter
from contextlib import contextmanager
from math import prod
from time import perf_counter

from quivercount import (CountPolynomial, RepSpace, ScanClassifier,
                         StratumTable, classify_direct, enumerate_hn_types,
                         field_table, group_order_poly, hn_filtration,
                         moduli_count_poly, nonzero_subvectors, rep_count_poly,
                         stratum_formula, torsor_orbit_count, total_dim)
from quivercount import exhaustive, stability
from quivercount.cli import DIRECT_CROSSCHECK_LIMIT, parse_problem
from quivercount.rep import subspace_catalog

# name -> unit; every workload reports all of them
LAYER_METRICS = {
    "ffield.field_table_s": "s",
    "rep.subspace_catalog_s": "s",
    "rep.catalog_records": "count",
    "exhaustive.scan_sub_s": "s",
    "exhaustive.scan_top_s": "s",
    "exhaustive.scan_points_per_s": "1/s",
    "exhaustive.block_tables": "count",
    "exhaustive.block_table_entries": "count",
    "exhaustive.direct_s": "s",
    "exhaustive.direct_points_per_s": "1/s",
    "stability.hn_point_us_p50": "us",
    "stability.hn_point_us_p99": "us",
    "rep.enumerate_subreps_s": "s",
    "rep.subreps_yielded": "count",
    "rep.tuples_checked": "count",
    "rep.subrep_yield": "ratio",
    "counting.torsor_orbit_count_s": "s",
    "strata.enumerate_hn_types_s": "s",
    "strata.hn_types": "count",
    "counting.stratum_formula_s": "s",
    "counting.semistable_calls": "count",
    "polynomial.mul_s": "s",
    "polynomial.div_exact_s": "s",
    "polynomial.mul_calls": "count",
    "polynomial.max_coeff_bits": "count",
    "cli.untraced_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def total(self, name):
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def children(self, index):
        return [s for s in self.spans if s[3] == index]


@contextmanager
def traced_polynomial(tr):
    """Wrap ``CountPolynomial`` multiplication and exact division in spans
    for the duration of the block."""
    cls = CountPolynomial
    saved = {name: cls.__dict__[name] for name in ("__mul__", "__rmul__",
                                                    "div_exact")}

    def wrap(fn, name):
        def traced_op(self, other):
            index = tr.begin(name)
            out = fn(self, other)
            tr.end(index)
            tr.counts[name + "_calls"] += 1
            bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                        for c in out.coeffs), default=0)
            if bits > tr.counts["polynomial.max_coeff_bits"]:
                tr.counts["polynomial.max_coeff_bits"] = bits
            return out
        return traced_op

    cls.__mul__ = cls.__rmul__ = wrap(saved["__mul__"], "polynomial.mul")
    cls.div_exact = wrap(saved["div_exact"], "polynomial.div_exact")
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(cls, name, fn)


@contextmanager
def traced_subreps(tr):
    """Time the inside of every ``enumerate_subreps`` generator the
    filtration procedure consumes, and count yields and candidates."""
    original = stability.enumerate_subreps

    def traced_enumerate(M, *args, **kwargs):
        field = M.space.field
        tr.counts["rep.tuples_checked"] += prod(
            len(subspace_catalog(field, n)) for n in M.space.dims)
        gen = original(M, *args, **kwargs)
        while True:
            index = tr.begin("rep.enumerate_subreps")
            try:
                S = next(gen)
            except StopIteration:
                tr.end(index)
                return
            tr.end(index)
            tr.counts["rep.subreps_yielded"] += 1
            yield S

    stability.enumerate_subreps = traced_enumerate
    try:
        yield
    finally:
        stability.enumerate_subreps = original


def semistable(tr, quiver, dims, theta):
    """``semistable_count_poly`` replayed with spans around its calls into
    strata and counting; polynomial operations are traced by the caller."""
    memo = {}

    def ss(d):
        if d not in memo:
            tr.counts["counting.semistable_calls"] += 1
            total = rep_count_poly(quiver, d)
            with tr.span("strata.enumerate_hn_types"):
                types = enumerate_hn_types(quiver, d, theta)
            tr.counts["strata.hn_types"] += len(types)
            for beta in types:
                if beta.is_trivial():
                    continue
                counts = {piece: ss(piece) for piece in set(beta.pieces)}
                with tr.span("counting.stratum_formula"):
                    formula = stratum_formula(quiver, beta, counts)
                total = total - formula.polynomial()
            memo[d] = total
        return memo[d]

    with tr.span("counting.semistable_count_poly"):
        return ss(tuple(dims))


def moduli(tr, quiver, dims, theta):
    """``moduli_count_poly`` replayed: (q - 1) * |R^ss| / |GL_d|."""
    numerator = CountPolynomial((-1, 1)) * semistable(tr, quiver, dims, theta)
    return numerator.div_exact(group_order_poly(dims))


def block_tables(classifier):
    """The block tables built so far: the module cache, or a cache the
    classifier owns."""
    caches = [getattr(exhaustive, "_BLOCK_CACHE", None)]
    caches += [v for v in vars(classifier).values() if isinstance(v, dict)]
    return [t for cache in caches if cache for t in cache.values()
            if isinstance(t, exhaustive.BlockTable)]


def scan(tr, problem, field):
    """Classify by the scan route: catalogs, then every smaller dimension
    vector, then the requested one, each in its own span."""
    dims, theta = problem.dims, problem.theta
    with tr.span("rep.subspace_catalog"):
        catalogs = [subspace_catalog(field, n) for n in range(max(dims) + 1)]
    tr.counts["rep.catalog_records"] += sum(map(len, catalogs))
    classifier = ScanClassifier(problem.quiver, theta, field,
                                problem.max_reps, problem.max_tuples)
    smaller = sorted((e for e in nonzero_subvectors(dims) if e != dims),
                     key=lambda e: (total_dim(e), e))
    with tr.span("exhaustive.scan_sub"):
        for e in smaller:
            classifier.table(e)
    with tr.span("exhaustive.scan_top"):
        top = classifier.table(dims)
    tr.counts["scan_points"] += sum(
        RepSpace(problem.quiver, e, field).point_count for e in smaller + [dims])
    tables = block_tables(classifier)
    tr.counts["exhaustive.block_tables"] = len(tables)
    tr.counts["exhaustive.block_table_entries"] = sum(
        len(entries) for t in tables for entries in t.by_sub.values())
    return StratumTable(problem.quiver, dims, theta, field.q, dict(top.counts))


def _table_lines(stdout):
    """Stratum table lines of ``stratify`` output, as {type key: count}."""
    rows = {}
    lines = iter(stdout.splitlines())
    for line in lines:
        if line.startswith("stratum table"):
            break
    for line in lines:
        if not line.startswith("  "):
            break
        key, count = line.split()
        rows[key] = int(count)
    return rows


def _formula_lines(stdout):
    return [line.strip() for line in stdout.splitlines()
            if re.match(r"  \S+: .* = \d+$", line)]


def replay_stratify(tr, problem, workload, stdout, errors):
    q = workload.fields[0]
    quiver, dims, theta = problem.quiver, problem.dims, problem.theta
    with tr.span("ffield.field_table"):
        field = field_table(q)
    table = scan(tr, problem, field)
    got = {beta.key_str(): n for beta, n in table.sorted_items()}
    if got != _table_lines(stdout):
        errors.append(f"stratum table at q={q} differs from the CLI's")
    with tr.span("strata.enumerate_hn_types"):
        types = enumerate_hn_types(quiver, dims, theta)
    formulas = []
    for beta in types:
        ss = {piece: semistable(tr, quiver, piece, theta)
              for piece in set(beta.pieces)}
        with tr.span("counting.stratum_formula"):
            formula = stratum_formula(quiver, beta, ss)
        poly = formula.polynomial()
        value = poly(q)
        if value != table.counts.get(beta, 0):
            errors.append(f"formula for {beta.key_str()} at q={q} gives {value}")
        formulas.append(f"{beta.key_str()}: {poly.pretty()} = {value}")
    if formulas != _formula_lines(stdout):
        errors.append("stratum formulas differ from the CLI's")


def replay_verify(tr, problem, workload, stdout, errors):
    quiver, dims, theta = problem.quiver, problem.dims, problem.theta
    with tr.span("strata.enumerate_hn_types"):
        types = enumerate_hn_types(quiver, dims, theta)
    ss = {}
    for beta in types:
        for piece in beta.pieces:
            if piece not in ss:
                ss[piece] = semistable(tr, quiver, piece, theta)
    tables = {}
    for q in workload.fields:
        with tr.span("ffield.field_table"):
            field = field_table(q)
        table = tables[q] = scan(tr, problem, field)
        line = (f"q={q}: partition ok ({table.total()} points in "
                f"{len(table.counts)} strata)")
        if table.total() != table.expected_total() or line not in stdout:
            errors.append(f"stratum table at q={q} differs from the CLI's")
        if table.expected_total() <= DIRECT_CROSSCHECK_LIMIT:
            with tr.span("exhaustive.direct"):
                direct = classify_direct(quiver, dims, theta, field, workers=1,
                                         max_reps=problem.max_reps,
                                         max_tuples=problem.max_tuples)
            tr.counts["direct_points"] += table.expected_total()
            if direct != table.counts:
                errors.append(f"direct and scan tables differ at q={q}")
        for beta in types:
            with tr.span("counting.stratum_formula"):
                formula = stratum_formula(quiver, beta, ss)
            if formula.polynomial()(q) != table.counts.get(beta, 0):
                errors.append(f"formula for {beta.key_str()} fails at q={q}")
        with tr.span("counting.torsor_orbit_count"):
            orbits = torsor_orbit_count(quiver, dims, theta, field,
                                        max_reps=problem.max_reps,
                                        max_tuples=problem.max_tuples)
        if moduli(tr, quiver, dims, theta)(q) != orbits:
            errors.append(f"moduli polynomial disagrees with orbits at q={q}")
        if f"q={q}: torsor and moduli ok ({orbits} orbits)" not in stdout:
            errors.append(f"orbit count at q={q} differs from the CLI's")
    return lambda: probe_points(tr, problem, tables, errors)


def probe_points(tr, problem, tables, errors):
    """``hn_filtration`` on every point of the spaces small enough for the
    direct route, one span per point."""
    for q, table in tables.items():
        if table.expected_total() > DIRECT_CROSSCHECK_LIMIT:
            continue
        space = RepSpace(problem.quiver, problem.dims, field_table(q))
        found = Counter()
        with traced_subreps(tr):
            for idx in range(space.point_count):
                M = space.rep(idx)
                index = tr.begin("stability.hn_point")
                _, beta = hn_filtration(M, problem.theta,
                                        max_tuples=problem.max_tuples)
                tr.end(index)
                found[beta] += 1
        if dict(found) != table.counts:
            errors.append(f"hn_filtration on every point disagrees at q={q}")


def replay_moduli(tr, problem, workload, stdout, errors):
    poly = moduli(tr, problem.quiver, problem.dims, problem.theta)
    if stdout != f"{poly.pretty()}\ncoeffs: {poly.coeff_line()}\n":
        errors.append("moduli polynomial differs from the CLI's")

    def check():
        if poly != moduli_count_poly(problem.quiver, problem.dims, problem.theta):
            errors.append("replayed polynomial differs from moduli_count_poly")
    return check


REPLAYS = {"stratify": replay_stratify, "verify": replay_verify,
           "moduli-poly": replay_moduli}


def run(workload, cli):
    """Replay ``workload``; ``cli`` is the untraced CLI invocation.

    Returns ({metric: (value, unit)}, spans, mismatch messages).
    """
    tr = Tracer()
    errors = []
    stdout = cli.stdout.decode()
    with open(workload.problem_path, encoding="utf-8") as handle:
        problem = parse_problem(handle.read())
    root = tr.begin("replay")
    with traced_polynomial(tr):
        after = REPLAYS[workload.command](tr, problem, workload, stdout, errors)
    tr.end(root)
    probe = tr.begin("probe")
    if after is not None:
        after()
    tr.end(probe)

    replay_s = tr.spans[root][2] - tr.spans[root][1]
    library_s = sum(end - start for _, start, end, _ in tr.children(root))
    scan_s = tr.total("exhaustive.scan_sub") + tr.total("exhaustive.scan_top")
    direct_s = tr.total("exhaustive.direct")
    hn_us = [d * 1e6 for d in tr.durations("stability.hn_point")]
    c = tr.counts
    values = {
        "ffield.field_table_s": tr.total("ffield.field_table"),
        "rep.subspace_catalog_s": tr.total("rep.subspace_catalog"),
        "rep.catalog_records": c["rep.catalog_records"],
        "exhaustive.scan_sub_s": tr.total("exhaustive.scan_sub"),
        "exhaustive.scan_top_s": tr.total("exhaustive.scan_top"),
        "exhaustive.scan_points_per_s": c["scan_points"] / scan_s if scan_s else 0,
        "exhaustive.block_tables": c["exhaustive.block_tables"],
        "exhaustive.block_table_entries": c["exhaustive.block_table_entries"],
        "exhaustive.direct_s": direct_s,
        "exhaustive.direct_points_per_s":
            c["direct_points"] / direct_s if direct_s else 0,
        "stability.hn_point_us_p50": statistics.median(hn_us) if hn_us else 0,
        "stability.hn_point_us_p99":
            statistics.quantiles(hn_us, n=100)[98] if len(hn_us) > 1 else 0,
        "rep.enumerate_subreps_s": tr.total("rep.enumerate_subreps"),
        "rep.subreps_yielded": c["rep.subreps_yielded"],
        "rep.tuples_checked": c["rep.tuples_checked"],
        "rep.subrep_yield": (c["rep.subreps_yielded"] / c["rep.tuples_checked"]
                             if c["rep.tuples_checked"] else 0),
        "counting.torsor_orbit_count_s": tr.total("counting.torsor_orbit_count"),
        "strata.enumerate_hn_types_s": tr.total("strata.enumerate_hn_types"),
        "strata.hn_types": c["strata.hn_types"],
        "counting.stratum_formula_s": tr.total("counting.stratum_formula"),
        "counting.semistable_calls": c["counting.semistable_calls"],
        "polynomial.mul_s": tr.total("polynomial.mul"),
        "polynomial.div_exact_s": tr.total("polynomial.div_exact"),
        "polynomial.mul_calls": c["polynomial.mul_calls"],
        "polynomial.max_coeff_bits": c["polynomial.max_coeff_bits"],
        "cli.untraced_s": cli.wall_s - library_s,
        "trace.overhead_s": replay_s - cli.wall_s,
    }
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
    return metrics, tr.spans, errors
