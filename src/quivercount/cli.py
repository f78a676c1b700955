"""Command line front end.

Problem file format (line oriented, UTF-8, '#' starts a comment):

    vertices <n>                  required, before any arrow
    arrow <src> <dst>             zero or more
    dim <d_0> ... <d_{n-1}>       required
    theta <t_0> ... <t_{n-1}>     required
    q <q1> <q2> ...               optional default field sizes
    budget-reps <N>               optional enumeration budget
    budget-subspaces <N>          optional subspace tuple budget

Representation literal format (for ``hn --rep``): one line per arrow of
nonzero matrix size, in quiver arrow order, the d_t x d_s matrix given
row-major as field element indices.

Stratum tables serialize one type per line: the piece dimension vectors
as comma-joined tuples separated by semicolons, a space, the count
(e.g. ``1,0;0,1 1``).  Polynomials print both in a human form like
``q^2 + q + 1`` and as the ascending coefficient line ``1 1 1``.

Exit codes: 0 ok, 2 parse error, 3 budget exceeded, 4 coprimality
precondition failed, 5 theorem violation.
"""

import argparse
import json
import os
import sys
from collections import namedtuple

from .counting import (coprime_witness, moduli_count_poly,
                       moduli_poly_from_semistable, rep_count_poly,
                       semistable_count_polys, stratum_count_poly,
                       torsor_orbit_count)
from .errors import (BudgetExceeded, ProblemParseError, QuiverCountError,
                     TheoremViolation)
from .exhaustive import classify_direct, classify_scan
from .ffield import FIELD_SIZES, MAX_Q, field_table, prime_power
from .purity import CountSamples, strong_purity_check, weak_purity_periodic_fit
from .quiver import Quiver, rep_space_dim
from .rep import (DEFAULT_MAX_REPS, DEFAULT_MAX_TUPLES, RepSpace,
                  check_rep_budget, check_tuple_budget, enumerate_reps)
from .stability import hn_filtration
from .strata import StratumTable, enumerate_hn_types


class ProblemFile(namedtuple(
        "ProblemFile", "quiver dims theta q_list max_reps max_tuples",
        defaults=(None, DEFAULT_MAX_REPS, DEFAULT_MAX_TUPLES))):
    """A parsed problem: the quiver, dimension vector and character,
    optional default field sizes (a tuple, or None) and enumeration
    budgets."""

    __slots__ = ()


def _data_lines(text):
    """Yield (line number, line) for every line that is not blank once
    its '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_problem(text):
    """Parse a problem file; rejects unknown keys, duplicate keys and
    semantic mismatches, reporting the offending line."""
    vertices = None
    arrows = []
    dims = theta = q_list = None
    max_reps, max_tuples = DEFAULT_MAX_REPS, DEFAULT_MAX_TUPLES
    seen = set()
    for lineno, line in _data_lines(text):
        key, *args = line.split()
        if key in seen:
            raise ProblemParseError(f"duplicate {key!r}", lineno)
        if key != "arrow":
            seen.add(key)
        if key == "vertices":
            vertices = _one_int(args, lineno, minimum=1)
        elif key == "arrow":
            if vertices is None:
                raise ProblemParseError("'vertices' must come before arrows", lineno)
            src, dst = _ints(args, 2, lineno)
            if not (0 <= src < vertices and 0 <= dst < vertices):
                raise ProblemParseError(
                    f"arrow endpoint outside 0..{vertices - 1}", lineno)
            arrows.append((src, dst))
        elif key == "dim":
            dims = _vector(args, vertices, lineno, minimum=0)
        elif key == "theta":
            theta = _vector(args, vertices, lineno)
        elif key == "q":
            values = _ints(args, None, lineno)
            for v in values:
                try:
                    prime_power(v)
                except ValueError as exc:
                    raise ProblemParseError(str(exc), lineno) from exc
            q_list = tuple(values)
        elif key == "budget-reps":
            max_reps = _one_int(args, lineno, minimum=1)
        elif key == "budget-subspaces":
            max_tuples = _one_int(args, lineno, minimum=1)
        else:
            raise ProblemParseError(f"unknown key {key!r}", lineno)
    if vertices is None:
        raise ProblemParseError("missing 'vertices'")
    if dims is None:
        raise ProblemParseError("missing 'dim'")
    if theta is None:
        raise ProblemParseError("missing 'theta'")
    return ProblemFile(Quiver(vertices, tuple(arrows)), dims, theta, q_list,
                       max_reps, max_tuples)


def _ints(args, count, lineno):
    if count is not None and len(args) != count:
        raise ProblemParseError(f"expected {count} integers", lineno)
    if count is None and not args:
        raise ProblemParseError("expected at least one integer", lineno)
    try:
        return tuple(int(a) for a in args)
    except ValueError as exc:
        raise ProblemParseError(f"not an integer: {exc}", lineno) from exc


def _one_int(args, lineno, minimum=None):
    (value,) = _ints(args, 1, lineno)
    if minimum is not None and value < minimum:
        raise ProblemParseError(f"value must be >= {minimum}", lineno)
    return value


def _vector(args, vertices, lineno, minimum=None):
    values = _ints(args, None, lineno)
    if vertices is None:
        raise ProblemParseError("'vertices' must come first", lineno)
    if len(values) != vertices:
        raise ProblemParseError(
            f"expected {vertices} entries, got {len(values)}", lineno)
    if minimum is not None and any(v < minimum for v in values):
        raise ProblemParseError(f"entries must be >= {minimum}", lineno)
    return values


def parse_representation(text, space):
    """Parse a representation literal for the given space."""
    expected = [(k, size) for k, size in enumerate(space.arrow_sizes) if size > 0]
    data_lines = list(_data_lines(text))
    if len(data_lines) != len(expected):
        raise ProblemParseError(
            f"expected {len(expected)} matrix lines, got {len(data_lines)}")
    # an arrow of matrix size 0 has no line: its matrix has only empty rows
    mats = [((),) * rows for rows, _ in space.arrow_shapes]
    q = space.field.q
    for (lineno, line), (k, size) in zip(data_lines, expected):
        entries = _ints(line.split(), size, lineno)
        if any(not 0 <= x < q for x in entries):
            raise ProblemParseError(f"entry outside field of size {q}", lineno)
        rows, cols = space.arrow_shapes[k]
        mats[k] = tuple(entries[r * cols:(r + 1) * cols] for r in range(rows))
    return space.rep(space.index_of(mats))


def parse_samples(text):
    """Parse a sample file: a ``base_q <q>`` header, then ``n count`` lines."""
    base_q = None
    pairs = []
    for lineno, line in _data_lines(text):
        key, *args = line.split()
        if key == "base_q":
            if base_q is not None:
                raise ProblemParseError("duplicate 'base_q'", lineno)
            base_q = _one_int(args, lineno, minimum=2)
        else:
            if len(args) != 1:
                raise ProblemParseError("sample lines are 'n count'", lineno)
            try:
                pairs.append((int(key), int(args[0])))
            except ValueError as exc:
                raw = text.splitlines()[lineno - 1]
                raise ProblemParseError(f"bad sample line: {raw!r}", lineno) from exc
    if base_q is None:
        raise ProblemParseError("missing 'base_q' header")
    try:
        return CountSamples(base_q, tuple(pairs))
    except ValueError as exc:
        raise ProblemParseError(str(exc)) from exc


def _prime_powers_upto(limit):
    if limit > MAX_Q:
        prime_power(MAX_Q + 1)  # the cap error, for the first size past it
    return [q for q in FIELD_SIZES if q <= limit]


def _poly_json(poly):
    return {"pretty": poly.pretty(), "coeffs": poly.coeff_line().split()}


def _emit(args, text_lines, json_obj):
    if args.json:
        print(json.dumps(json_obj, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_problem(args):
    with open(args.problem, encoding="utf-8") as handle:
        return parse_problem(handle.read())


# ---------------------------------------------------------------------------
# subcommands


MAX_PRINTED_DEGREE = 2**20  # count-reps prints every coefficient of q^dimension


def _cmd_count_reps(args):
    problem = _load_problem(args)
    if args.brute is not None:  # its budget fails before the polynomial is built
        field = field_table(args.brute)
        count = sum(1 for _ in enumerate_reps(
            problem.quiver, problem.dims, field, max_reps=problem.max_reps))
    degree = rep_space_dim(problem.quiver, problem.dims)
    if degree > MAX_PRINTED_DEGREE:
        raise BudgetExceeded(f"q^{degree} exceeds the printed degree "
                             f"budget {MAX_PRINTED_DEGREE}")
    poly = rep_count_poly(problem.quiver, problem.dims)
    lines = [f"rep-count-poly: {poly.pretty()}", f"coeffs: {poly.coeff_line()}"]
    obj = {"command": "count-reps", "poly": _poly_json(poly)}
    if args.brute is not None:
        expected = poly(args.brute)
        if count != expected:
            raise TheoremViolation(
                f"brute count {count} != polynomial value {expected}")
        lines.append(f"brute q={args.brute}: {count}")
        obj["brute"] = {"q": args.brute, "count": count}
    _emit(args, lines, obj)
    return 0


def _format_basis(basis):
    if not basis:
        return "-"
    return ";".join(" ".join(str(x) for x in row) for row in basis)


def _cmd_hn(args):
    problem = _load_problem(args)
    field = field_table(args.q)
    space = RepSpace(problem.quiver, problem.dims, field)
    with open(args.rep, encoding="utf-8") as handle:
        M = parse_representation(handle.read(), space)
    filt, beta = hn_filtration(M, problem.theta, max_tuples=problem.max_tuples)
    lines = [f"type: {beta.key_str()}",
             "slopes: " + " ".join(str(mu) for mu in beta.slopes)]
    for k, step in enumerate(filt.steps[1:], 1):
        lines.append(f"step {k} dims: {','.join(str(d) for d in step.dims)}")
        for i, basis in enumerate(step.bases):
            lines.append(f"  vertex {i}: {_format_basis(basis)}")
    obj = {"command": "hn",
           "type": [list(p) for p in beta.pieces],
           "slopes": [str(mu) for mu in beta.slopes],
           "steps": [{"dims": list(s.dims),
                      "bases": [[list(r) for r in b] for b in s.bases]}
                     for s in filt.steps[1:]]}
    _emit(args, lines, obj)
    return 0


def _stratum_polys(problem, qs):
    """The stratum polynomial of every HN type of the problem, as (type,
    polynomial) pairs, and the semistable polynomials they are built
    from; one recursion per problem.  The point and tuple budgets of
    every field in qs, then the type-count budget, fail before it."""
    quiver, dims, theta = problem.quiver, problem.dims, problem.theta
    for q in qs:
        check_rep_budget(RepSpace(quiver, dims, field_table(q)),
                         problem.max_reps)
        check_tuple_budget(dims, q, problem.max_tuples)
    types = enumerate_hn_types(quiver, dims, theta)
    ss = semistable_count_polys(quiver, dims, theta)
    return [(beta, stratum_count_poly(quiver, beta, ss))
            for beta in types], ss


def _check_strata(table, polys):
    """Raise TheoremViolation unless the stratum table partitions its
    space and every stratum polynomial gives its count at the table's q."""
    total, expected = table.total(), table.expected_total()
    if total != expected:
        raise TheoremViolation(
            f"partition failed at q={table.q}: {total} != {expected}")
    for beta, poly in polys:
        value, observed = poly(table.q), table.counts.get(beta, 0)
        if value != observed:
            raise TheoremViolation(
                f"stratum formula for {beta.key_str()} at q={table.q} "
                f"predicts {value}, classification found {observed}")


def _cmd_stratify(args):
    problem = _load_problem(args)
    field = field_table(args.q)
    polys, _ = _stratum_polys(problem, [args.q])
    quiver, dims, theta = problem.quiver, problem.dims, problem.theta
    budgets = {"max_reps": problem.max_reps, "max_tuples": problem.max_tuples}
    if args.engine == "direct":
        table = StratumTable(quiver, dims, theta, args.q, classify_direct(
            quiver, dims, theta, field, workers=args.threads, **budgets))
    else:
        table = classify_scan(quiver, dims, theta, field, **budgets)
    _check_strata(table, polys)
    lines = [f"stratum table (q={args.q}):"]
    lines += ["  " + line for line in table.serialize_lines()]
    formulas = []
    lines.append("stratum formulas:")
    for beta, poly in polys:
        count = table.counts.get(beta, 0)
        lines.append(f"  {beta.key_str()}: {poly.pretty()} = {count}")
        formulas.append({"type": [list(p) for p in beta.pieces],
                         "poly": _poly_json(poly), "count": count})
    total = table.total()
    lines.append(f"partition: {total} == q^{rep_space_dim(quiver, dims)} ok")
    obj = {"command": "stratify", "q": args.q,
           "table": [{"type": [list(p) for p in b.pieces], "count": c}
                     for b, c in table.sorted_items()],
           "formulas": formulas, "total": total}
    _emit(args, lines, obj)
    return 0


def _cmd_moduli_poly(args):
    problem = _load_problem(args)
    poly = moduli_count_poly(problem.quiver, problem.dims, problem.theta)
    _emit(args, [poly.pretty(), f"coeffs: {poly.coeff_line()}"],
          {"command": "moduli-poly", "poly": _poly_json(poly)})
    return 0


DIRECT_CROSSCHECK_LIMIT = 4096


def _cmd_verify(args):
    problem = _load_problem(args)
    qs = (_prime_powers_upto(args.qmax) if args.qmax is not None
          else list(problem.q_list or ()))
    if not qs:
        raise ProblemParseError("no fields to verify: pass --qmax or add a 'q' line")
    quiver, dims, theta = problem.quiver, problem.dims, problem.theta
    budgets = {"max_reps": problem.max_reps, "max_tuples": problem.max_tuples}
    lines = []
    checks = []

    def report(name, q, detail):
        lines.append(f"q={q}: {name} ok ({detail})")
        checks.append({"q": q, "check": name, "detail": detail})

    polys, ss_polys = _stratum_polys(problem, qs)
    witness = coprime_witness(dims, theta)
    moduli = (moduli_poly_from_semistable(dims, theta, ss_polys[dims])
              if witness is None else None)
    for q in qs:
        field = field_table(q)
        table = classify_scan(quiver, dims, theta, field, **budgets)
        _check_strata(table, polys)
        total = table.total()
        report("partition", q, f"{total} points in {len(table.counts)} strata")
        if total <= DIRECT_CROSSCHECK_LIMIT:
            direct = classify_direct(quiver, dims, theta, field,
                                     workers=args.threads, **budgets)
            if direct != table.counts:
                raise TheoremViolation(f"engines disagree at q={q}")
            report("engines", q, "point-by-point table matches")
        report("stratum formulas", q, f"{len(polys)} types")
        if witness is None:
            orbits = torsor_orbit_count(quiver, dims, theta, field,
                                        table=table)
            value = moduli(q)
            if value != orbits:
                raise TheoremViolation(
                    f"moduli polynomial at q={q}: {value} != {orbits} orbits")
            report("torsor and moduli", q, f"{orbits} orbits")
        else:
            lines.append(
                f"q={q}: torsor check skipped (not coprime: {witness} shares the slope)")
            checks.append({"q": q, "check": "torsor", "detail": "skipped"})
    lines.append("verify: all checks passed")
    _emit(args, lines, {"command": "verify", "qs": qs, "checks": checks,
                        "result": "ok"})
    return 0


def _cmd_purity_fit(args):
    with open(args.samples, encoding="utf-8") as handle:
        samples = parse_samples(handle.read())
    if args.period == 1:
        report = strong_purity_check(samples, args.degree)
    else:
        report = weak_purity_periodic_fit(samples, args.period, args.degree)
    obj = {"command": "purity-fit", "verdict": report.verdict,
           "period": report.period, "details": report.details,
           "polynomials": ([_poly_json(p) for p in report.polynomials]
                           if report.polynomials else None)}
    _emit(args, report.format_lines(), obj)
    return 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivercount",
        description="Exact point counting for quiver representation spaces "
                    "over small finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true",
                       help="machine readable output, one JSON object")
        return p

    p = add("count-reps", _cmd_count_reps,
            "print the point count polynomial of the representation space")
    p.add_argument("problem")
    p.add_argument("--brute", type=int, metavar="Q",
                   help="also count exhaustively over F_Q")

    p = add("hn", _cmd_hn,
            "print the filtration and instability type of one representation")
    p.add_argument("problem")
    p.add_argument("--rep", required=True, help="representation literal file")
    p.add_argument("--q", required=True, type=int, help="field size")

    p = add("stratify", _cmd_stratify,
            "classify every representation over F_q into strata")
    p.add_argument("problem")
    p.add_argument("--q", required=True, type=int, help="field size")
    p.add_argument("--engine", choices=("scan", "direct"), default="scan")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker processes for the point-by-point engine, "
                        "at most the CPU count")

    p = add("moduli-poly", _cmd_moduli_poly,
            "print the moduli counting polynomial (coprime case)")
    p.add_argument("problem")

    p = add("verify", _cmd_verify,
            "run every cross-check for all prime powers up to a bound")
    p.add_argument("problem")
    p.add_argument("--qmax", type=int, help="check all prime powers <= QMAX")
    p.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1,
                   help="worker processes for the point-by-point engine; its "
                        "cross-check stays below the pool threshold, so it "
                        "runs in one process")

    p = add("purity-fit", _cmd_purity_fit,
            "fit sampled counts by a (periodic) polynomial in q^n")
    p.add_argument("--samples", required=True, help="sample file")
    p.add_argument("--period", required=True, type=int)
    p.add_argument("--degree", required=True, type=int)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except QuiverCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
