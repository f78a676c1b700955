import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quivercount import ProblemParseError, counting, rep, rep_count_poly
from quivercount.cli import (MAX_PRINTED_DEGREE, main, parse_problem,
                             parse_representation, parse_samples)
from quivercount.ffield import MAX_Q
from quivercount.rep import RepSpace
from quivercount import field_table, kronecker

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _child_env():
    """The environment for a child interpreter, with the checkout's src/
    first on its path, so the children import this checkout installed or
    not."""
    paths = [SRC, os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def _run_cli(argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "quivercount.cli", *argv],
                          capture_output=True, text=True, env=_child_env(),
                          **kwargs)

K2_PROBLEM = """\
# 2-Kronecker quiver
vertices 2
arrow 0 1
arrow 0 1
dim 1 1
theta 1 0
"""

K2_22_PROBLEM = """\
vertices 2
arrow 0 1
arrow 0 1
dim 2 2
theta 1 0
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_problem_example():
    problem = parse_problem(K2_PROBLEM)
    assert problem.quiver.vertex_count == 2
    assert problem.quiver.arrows == ((0, 1), (0, 1))
    assert problem.dims == (1, 1)
    assert problem.theta == (1, 0)
    assert problem.q_list is None


def test_parse_problem_q_and_budgets():
    problem = parse_problem(K2_PROBLEM + "q 2 3\nbudget-reps 500\nbudget-subspaces 40\n")
    assert problem.q_list == (2, 3)
    assert problem.max_reps == 500
    assert problem.max_tuples == 40


def test_parse_problem_bad_arrow_line():
    with pytest.raises(ProblemParseError) as err:
        parse_problem("vertices 2\narrow 0 2\ndim 1 1\ntheta 1 0\n")
    assert "line 2" in str(err.value)


def test_parse_problem_dim_length():
    with pytest.raises(ProblemParseError) as err:
        parse_problem("vertices 2\ndim 1 1 1\ntheta 1 0\n")
    assert "line 2" in str(err.value)


def test_parse_problem_unknown_key():
    with pytest.raises(ProblemParseError):
        parse_problem(K2_PROBLEM + "arrows 1 0\n")


def test_parse_problem_missing_sections():
    with pytest.raises(ProblemParseError):
        parse_problem("vertices 2\ndim 1 1\n")
    with pytest.raises(ProblemParseError):
        parse_problem("arrow 0 1\n")


def test_parse_problem_duplicates_and_bad_q():
    with pytest.raises(ProblemParseError):
        parse_problem(K2_PROBLEM + "dim 1 1\n")
    with pytest.raises(ProblemParseError):
        parse_problem(K2_PROBLEM + "q 6\n")


def test_parse_problem_negative_dimension():
    with pytest.raises(ProblemParseError) as err:
        parse_problem("vertices 2\narrow 0 1\ndim 1 -1\ntheta 1 0\n")
    assert "line 3" in str(err.value)


def test_parse_representation_roundtrip():
    space = RepSpace(kronecker(2), (2, 3), field_table(2))
    M = space.rep(1234)
    text = "\n".join(
        " ".join(str(x) for row in mat for x in row) for mat in M.mats)
    parsed = parse_representation(text, space)
    assert parsed == M


def test_parse_representation_errors():
    space = RepSpace(kronecker(2), (1, 1), field_table(2))
    with pytest.raises(ProblemParseError):
        parse_representation("1\n", space)  # one line missing
    with pytest.raises(ProblemParseError):
        parse_representation("1 1\n0\n", space)  # too many entries
    with pytest.raises(ProblemParseError):
        parse_representation("2\n0\n", space)  # entry outside the field


def test_parse_samples():
    samples = parse_samples("base_q 2\n1 3\n2 3\n# c\n3 9\n4 15\n")
    assert samples.base_q == 2
    assert samples.samples == ((1, 3), (2, 3), (3, 9), (4, 15))
    with pytest.raises(ProblemParseError):
        parse_samples("1 3\n")
    with pytest.raises(ProblemParseError):
        parse_samples("base_q 2\n1 3 4\n")


# ---------------------------------------------------------------------------
# subcommands (in-process)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.problem"
    path.write_text(K2_PROBLEM, encoding="utf-8")
    return str(path)


@pytest.fixture
def k2_22_file(tmp_path):
    path = tmp_path / "k2_22.problem"
    path.write_text(K2_22_PROBLEM, encoding="utf-8")
    return str(path)


def test_moduli_poly_command(k2_file, capsys):
    assert main(["moduli-poly", k2_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "q + 1"
    assert out[1] == "coeffs: 1 1"


def test_moduli_poly_coprimality_exit_code(k2_22_file, capsys):
    assert main(["moduli-poly", k2_22_file]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not coprime" in captured.err


def test_count_reps_command(k2_file, capsys):
    assert main(["count-reps", k2_file, "--brute", "3"]) == 0
    out = capsys.readouterr().out
    assert "rep-count-poly: q^2" in out
    assert "brute q=3: 9" in out


def test_stratify_command(k2_file, capsys):
    assert main(["stratify", k2_file, "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "1,1 3" in out
    assert "1,0;0,1 1" in out
    assert "partition: 4 == q^2 ok" in out


def test_stratify_json(k2_file, capsys):
    assert main(["stratify", k2_file, "--q", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["command"] == "stratify"
    assert data["total"] == 4
    assert {"type": [[1, 1]], "count": 3} in data["table"]


def test_stratify_scan_engine_ignores_the_default_thread_count(
        tmp_path, monkeypatch, capsys):
    # --threads defaults to the CPU count but only drives the direct engine
    problem = tmp_path / "k2_22.problem"
    problem.write_text(K2_22_PROBLEM, encoding="utf-8")
    monkeypatch.setattr("os.cpu_count", lambda: 4)
    assert main(["stratify", str(problem), "--q", "2"]) == 0
    default = capsys.readouterr().out
    assert main(["stratify", str(problem), "--q", "2", "--engine", "scan"]) == 0
    assert capsys.readouterr().out == default


def test_stratify_many_arrows_does_not_recurse_per_arrow(tmp_path, capsys):
    # 1,200 loops at a vertex of dimension 0: one point, one product factor
    # per arrow
    path = tmp_path / "loops.problem"
    path.write_text("vertices 3\n" + "arrow 2 2\n" * 1200
                    + "dim 1 1 0\ntheta 1 0 0\n", encoding="utf-8")
    assert main(["stratify", str(path), "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "  1,0,0;0,1,0 1\n" in out
    assert "partition: 1 == q^0 ok" in out


@pytest.mark.parametrize("command,expected", [
    (["hn", "{problem}", "--rep", "{rep}", "--q", "2"], "slopes: 0\n"),
    (["stratify", "{problem}", "--q", "2", "--engine", "direct",
      "--threads", "1"], "partition: 1 == q^0 ok\n"),
    (["verify", "{problem}", "--qmax", "2", "--threads", "1"],
     "verify: all checks passed\n"),
], ids=["hn", "stratify", "verify"])
def test_many_vertices_do_not_recurse_per_vertex(tmp_path, capsys, command,
                                                 expected):
    # 1,200 vertices, all but one of dimension 0: the subrepresentation
    # search fixes the vertices one at a time
    problem = tmp_path / "vertices.problem"
    problem.write_text("vertices 1200\ndim 1" + " 0" * 1199
                       + "\ntheta" + " 0" * 1200 + "\n", encoding="utf-8")
    rep = tmp_path / "empty.rep"
    rep.write_text("", encoding="utf-8")
    assert main([a.format(problem=problem, rep=rep) for a in command]) == 0
    assert expected in capsys.readouterr().out


def test_cli_import_leaves_multiprocessing_unloaded():
    # the process pool of the direct engine is imported only when used
    code = "import sys, quivercount.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=_child_env())
    assert done.stdout == "False\n"


def test_hn_command(tmp_path, k2_file, capsys):
    # the zero point: the line at vertex 0, then everything
    rep = tmp_path / "rep.txt"
    rep.write_text("0\n0\n", encoding="utf-8")
    assert main(["hn", k2_file, "--rep", str(rep), "--q", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "type: 1,0;0,1", "slopes: 1 0",
        "step 1 dims: 1,0", "  vertex 0: 1", "  vertex 1: -",
        "step 2 dims: 1,1", "  vertex 0: 1", "  vertex 1: 1"]


HN_JSON = [
    ("0\n0\n", {"command": "hn", "type": [[1, 0], [0, 1]],
                "slopes": ["1", "0"],
                "steps": [{"dims": [1, 0], "bases": [[[1]], []]},
                          {"dims": [1, 1], "bases": [[[1]], [[1]]]}]}),
    ("1\n0\n", {"command": "hn", "type": [[1, 1]], "slopes": ["1/2"],
                "steps": [{"dims": [1, 1], "bases": [[[1]], [[1]]]}]}),
]


def test_hn_json(tmp_path, k2_file, capsys):
    # the zero point's two steps, and a semistable point's one
    rep = tmp_path / "rep.txt"
    for literal, expected in HN_JSON:
        rep.write_text(literal, encoding="utf-8")
        assert main(["hn", k2_file, "--rep", str(rep), "--q", "2",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == expected


A3_PROBLEM = "vertices 3\narrow 0 1\narrow 1 2\ndim 1 1 0\ntheta 1 0 0\n"


def test_hn_literal_skips_a_zero_size_arrow(tmp_path, capsys):
    # the arrow 1 -> 2 has a 0 x 1 matrix: it takes no line of the
    # literal, and the empty vertex 2 prints as - in both steps
    problem = tmp_path / "a3.problem"
    problem.write_text(A3_PROBLEM, encoding="utf-8")
    rep = tmp_path / "rep.txt"
    rep.write_text("0\n", encoding="utf-8")
    argv = ["hn", str(problem), "--rep", str(rep), "--q", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "type: 1,0,0;0,1,0", "slopes: 1 0",
        "step 1 dims: 1,0,0", "  vertex 0: 1", "  vertex 1: -",
        "  vertex 2: -",
        "step 2 dims: 1,1,0", "  vertex 0: 1", "  vertex 1: 1",
        "  vertex 2: -"]
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "hn", "type": [[1, 0, 0], [0, 1, 0]], "slopes": ["1", "0"],
        "steps": [{"dims": [1, 0, 0], "bases": [[[1]], [], []]},
                  {"dims": [1, 1, 0], "bases": [[[1]], [[1]], []]}]}
    rep.write_text("0\n0\n", encoding="utf-8")
    assert main(argv) == 2
    assert "expected 1 matrix lines, got 2" in capsys.readouterr().err


def test_verify_command(k2_file, capsys):
    assert main(["verify", k2_file, "--qmax", "3", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "verify: all checks passed" in out
    assert "q=2: partition ok" in out
    assert "q=3: torsor and moduli ok" in out


def test_verify_uses_problem_q_list(tmp_path, capsys):
    path = tmp_path / "with_q.problem"
    path.write_text(K2_PROBLEM + "q 2\n", encoding="utf-8")
    assert main(["verify", str(path), "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "q=2: partition ok" in out
    assert "q=3" not in out


def test_verify_without_fields_errors(k2_file, capsys):
    assert main(["verify", k2_file]) == 2
    assert "qmax" in capsys.readouterr().err
    # no prime power up to the bound: nothing to check is an error too
    for qmax in ("-2", "-1", "0", "1"):
        assert main(["verify", k2_file, "--qmax", qmax]) == 2
        captured = capsys.readouterr()
        assert "no fields to verify" in captured.err
        assert "all checks passed" not in captured.out


def test_verify_non_coprime_skips_torsor(k2_22_file, capsys):
    assert main(["verify", k2_22_file, "--qmax", "2", "--threads", "1"]) == 0
    out = capsys.readouterr().out
    assert "torsor check skipped" in out


def test_verify_cross_check_starts_no_pool(tmp_path, monkeypatch, capsys):
    import concurrent.futures

    # the 4,096 points of K2 (2,3) at q=2, the most the cross-check takes,
    # with two workers on two CPUs: a pool would cost more than it saves
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: pools.append(max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    path = tmp_path / "k2_23.problem"
    path.write_text(K2_PROBLEM.replace("dim 1 1", "dim 2 3"), encoding="utf-8")
    assert main(["verify", str(path), "--qmax", "2", "--threads", "2"]) == 0
    assert "q=2: engines ok" in capsys.readouterr().out
    assert pools == []


def test_verify_json(k2_file, capsys):
    assert main(["verify", k2_file, "--qmax", "2", "--threads", "1",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == "ok"
    assert data["qs"] == [2]
    assert any(c["check"] == "partition" for c in data["checks"])
    # --qmax lists every field size up to it
    sizes = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
    for qmax in range(3, 17):
        assert main(["verify", k2_file, "--qmax", str(qmax), "--threads", "1",
                     "--json"]) == 0
        qs = json.loads(capsys.readouterr().out)["qs"]
        assert qs == [q for q in sizes if q <= qmax], qmax


def test_three_vertex_problem_roundtrip(tmp_path, capsys):
    path = tmp_path / "a3.problem"
    path.write_text(
        "vertices 3\narrow 0 1\narrow 1 2\ndim 1 1 1\ntheta 2 1 0\n",
        encoding="utf-8")
    assert main(["stratify", str(path), "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "partition: 4 == q^2 ok" in out
    rep = tmp_path / "rep.txt"
    rep.write_text("1\n0\n", encoding="utf-8")
    assert main(["hn", str(path), "--rep", str(rep), "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("type: 1,1,0;0,0,1")


def test_budget_exceeded_exit_code(tmp_path, capsys):
    path = tmp_path / "tiny.problem"
    path.write_text(K2_PROBLEM + "budget-reps 2\n", encoding="utf-8")
    assert main(["stratify", str(path), "--q", "2"]) == 3
    assert "budget" in capsys.readouterr().err


ARROW_300 = "vertices 2\narrow 0 1\ndim 300 300\ntheta 1 0\n"
POINT_300 = "vertices 1\ndim 300\ntheta 0\n"


@pytest.mark.parametrize("text,command,expected", [
    (ARROW_300, ["stratify", "{problem}", "--q", "2"],
     "2^90000 representations exceed the budget 16777216"),
    (ARROW_300, ["count-reps", "{problem}", "--brute", "2"],
     "2^90000 representations exceed the budget 16777216"),
    (POINT_300, ["stratify", "{problem}", "--q", "2"],
     "candidate subspace tuples exceed the budget 1048576"),
    (POINT_300, ["hn", "{problem}", "--rep", "{rep}", "--q", "2"],
     "candidate subspace tuples exceed the budget 1048576"),
])
def test_budget_errors_name_huge_counts_briefly(tmp_path, text, command,
                                                expected):
    # counts far past the 4300-digit limit of int to str conversion; run
    # in a child, so that a budget checked too late fails on the timeout
    problem = tmp_path / "big.problem"
    problem.write_text(text, encoding="utf-8")
    rep = tmp_path / "empty.rep"
    rep.write_text("", encoding="utf-8")
    argv = [a.format(problem=problem, rep=rep) for a in command]
    done = _run_cli(argv, timeout=5)
    assert done.returncode == 3, done.stderr
    assert expected in done.stderr
    assert len(done.stderr.encode()) < 200


@pytest.mark.parametrize("command", [
    ["stratify", "{problem}", "--q", "2", "--engine", "direct"],
    ["verify", "{problem}", "--qmax", "2"],
])
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_a_parse_error(k2_file, capsys, command,
                                            threads):
    argv = [a.format(problem=k2_file) for a in command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))


def test_verify_runs_the_semistable_recursion_once(k2_file, monkeypatch,
                                                   capsys):
    # the formulas and the moduli polynomial share one recursion: one
    # rep_count_poly call per dimension vector it visits
    calls = []

    def counted(quiver, dims):
        calls.append(tuple(dims))
        return rep_count_poly(quiver, dims)

    monkeypatch.setattr(counting, "rep_count_poly", counted)
    assert main(["verify", k2_file, "--qmax", "3", "--threads", "1"]) == 0
    assert "q=3: torsor and moduli ok" in capsys.readouterr().out
    assert sorted(calls) == [(0, 1), (1, 0), (1, 1)]


def test_verify_qmax_above_the_field_cap_fails_at_once(k2_file, capsys):
    # the first prime power over the cap ends the run before the others
    # up to QMAX are listed
    done = _run_cli(["verify", k2_file, "--qmax", "1000000000"], timeout=10)
    assert done.returncode == 1
    assert done.stdout == ""
    assert "q=17 exceeds the configured maximum 16" in done.stderr
    for qmax in ("17", "18", "19"):
        assert main(["verify", k2_file, "--qmax", qmax]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: q=17 exceeds the configured maximum 16\n"


@pytest.mark.parametrize("command", [
    ["stratify", "{problem}", "--q", "2"],
    ["hn", "{problem}", "--rep", "{rep}", "--q", "2"],
    ["verify", "{problem}", "--qmax", "2", "--threads", "1"],
])
def test_subspace_budget_is_checked_before_any_catalog(tmp_path, command):
    # GF(2)^10 has 229,755,605 subspaces: far over the 2^20 default
    # budget, and far too many to list under a 512 MiB address space
    problem = tmp_path / "point.problem"
    problem.write_text("vertices 1\ndim 10\ntheta 0\n", encoding="utf-8")
    rep = tmp_path / "empty.rep"
    rep.write_text("", encoding="utf-8")
    argv = [a.format(problem=problem, rep=rep) for a in command]
    done = _run_cli(argv, timeout=60, preexec_fn=_limit_address_space)
    assert done.returncode == 3, done.stderr
    assert "candidate subspace tuples exceed the budget" in done.stderr


def test_tuple_budget_comes_before_any_action_table(tmp_path, monkeypatch,
                                                  capsys):
    # A2 (20, 1) at q=2: the point's action table alone would have 2^20
    # entries, and its subspace tuples are far over the budget
    problem = tmp_path / "a2.problem"
    problem.write_text("vertices 2\narrow 0 1\ndim 20 1\ntheta 1 0\n",
                       encoding="utf-8")
    point = tmp_path / "a2.rep"
    point.write_text(" ".join(["1"] * 20) + "\n", encoding="utf-8")
    build = rep.action_table

    def guarded(field, mat, n_src):
        # catalog records of GF(2)^1 build tables of at most 2 entries
        if n_src == 20:
            raise AssertionError("action table built before the tuple budget")
        return build(field, mat, n_src)

    monkeypatch.setattr(rep, "action_table", guarded)
    assert main(["hn", str(problem), "--rep", str(point), "--q", "2"]) == 3
    assert "candidate subspace tuples exceed" in capsys.readouterr().err


K3_1213 = "vertices 2\n" + "arrow 0 1\n" * 3 + "dim 12 13\ntheta 1 0\n"
POINT_3000 = "vertices 1\ndim 3000\ntheta 0\n"
K2_3233 = "vertices 2\n" + "arrow 0 1\n" * 2 + "dim 32 33\ntheta 1 0\n"
# one point, but more than 32,768 HN types of dim 1 ... 1 under
# theta 1 ... 12
ARROWLESS_12 = "vertices 12\ndim" + " 1" * 12 + "\ntheta" + "".join(
    f" {t}" for t in range(1, 13)) + "\n"
# the same space under theta 1, 2, 4, ..., 2048: coprime, so moduli-poly
# reaches the semistable recursion over its 3^12 pairs (m, e)
ARROWLESS_12_COPRIME = "vertices 12\ndim" + " 1" * 12 + "\ntheta" + "".join(
    f" {2**t}" for t in range(12)) + "\n"
# 26 arrowless vertices under theta 1, 0, ..., 0: coprime, so the
# coprimality check of moduli-poly would walk all 2^26 subvectors
ARROWLESS_26_COPRIME = "vertices 26\ndim" + " 1" * 26 + "\ntheta 1" + (
    " 0" * 25) + "\n"
# a dimension past 10^8, and one past the C size of a range
ARROW_1E8 = "vertices 2\narrow 0 1\ndim 100000000 1\ntheta 1 0\n"
ARROW_1E20 = "vertices 2\narrow 0 1\ndim 100000000000000000000 1\ntheta 1 0\n"


@pytest.mark.parametrize("text,command,expected", [
    (K3_1213, ["verify", "{problem}", "--qmax", "2"],
     "2^468 representations exceed the budget 16777216"),
    (POINT_3000, ["stratify", "{problem}", "--q", "2"],
     "2^2250000 or more candidate subspace tuples exceed the budget"),
    (POINT_3000, ["hn", "{problem}", "--rep", "{rep}", "--q", "2"],
     "2^2250000 or more candidate subspace tuples exceed the budget"),
    (K2_3233, ["moduli-poly", "{problem}"],
     "total dimension 65 exceeds the type budget 64"),
    (ARROWLESS_12, ["verify", "{problem}", "--qmax", "2", "--threads", "1"],
     "more than 32768 HN types of (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1) "
     "exceed the type-count budget"),
    (ARROWLESS_12, ["stratify", "{problem}", "--q", "2"],
     "more than 32768 HN types"),
    (ARROWLESS_12_COPRIME, ["moduli-poly", "{problem}"],
     "531441 pairs of subvectors exceed the semistable recursion budget "
     "65536"),
    (ARROWLESS_26_COPRIME, ["moduli-poly", "{problem}"],
     "2541865828329 pairs of subvectors exceed the semistable recursion "
     "budget 65536"),
    (ARROW_1E8, ["moduli-poly", "{problem}"], "exceeds the type budget 64"),
    (ARROW_1E20, ["moduli-poly", "{problem}"], "exceeds the type budget 64"),
], ids=["verify-k3", "stratify-point", "hn-point", "moduli-poly-k2",
        "verify-many-types", "stratify-many-types", "moduli-poly-many-pairs",
        "moduli-poly-coprime-scan", "moduli-poly-huge-dim",
        "moduli-poly-overflow"])
def test_budgets_fail_before_the_long_work(tmp_path, text, command,
                                           expected):
    # listing the 23,410 HN types of K3 (12,13) alone takes over 6 s, the
    # semistable recursion of K2 (32,33) multiplies polynomials of degree
    # up to 2,112, the exact subspace count of GF(2)^3000 has 2,250,003
    # bits, and listing every HN type of the arrowless 12-vertex problem
    # runs past 60 s; without a budget the semistable recursion of its
    # coprime variant takes about 13 s to print 0; the coprimality check
    # of moduli-poly lists every subvector of dim 100000000 1, and the 2^26
    # subvectors of the arrowless 26-vertex problem for over 20 s
    problem = tmp_path / "big.problem"
    problem.write_text(text, encoding="utf-8")
    rep = tmp_path / "empty.rep"
    rep.write_text("", encoding="utf-8")
    argv = [a.format(problem=problem, rep=rep) for a in command]
    done = _run_cli(argv, timeout=5)
    assert done.returncode == 3, done.stderr
    assert expected in done.stderr


HUGE_ARROW = "vertices 2\narrow 0 1\ndim 100000 100000\ntheta 1 0\n"


HUGE_POINTS = "2^10000000000 representations exceed the budget 16777216"


@pytest.mark.parametrize("command,expected", [
    (["stratify", "{problem}", "--q", "2"], HUGE_POINTS),
    (["stratify", "{problem}", "--q", "2", "--engine", "direct"], HUGE_POINTS),
    (["verify", "{problem}", "--qmax", "2", "--threads", "1"], HUGE_POINTS),
    (["count-reps", "{problem}", "--brute", "2"], HUGE_POINTS),
    (["count-reps", "{problem}"],
     "q^10000000000 exceeds the printed degree budget 1048576"),
], ids=["stratify", "stratify-direct", "verify", "count-reps-brute",
        "count-reps"])
def test_point_budget_is_checked_before_the_point_count(tmp_path, command,
                                                        expected):
    # 2^10000000000 has 10^10 bits: the budget must fail before the
    # point count or the counting polynomial is built, and the dense
    # polynomial q^10000000000 would have 10^10 + 1 coefficients
    problem = tmp_path / "huge.problem"
    problem.write_text(HUGE_ARROW, encoding="utf-8")
    argv = [a.format(problem=problem) for a in command]
    done = _run_cli(argv, timeout=5, preexec_fn=_limit_address_space)
    assert done.returncode == 3, done.stderr
    assert expected in done.stderr


K2_PAST_THE_INDEX = ("vertices 2\narrow 0 1\narrow 0 1\ndim 5 7\ntheta 1 0\n"
                     f"budget-reps {10**30}\nbudget-subspaces {10**30}\n")


@pytest.mark.parametrize("command", [
    ["stratify", "{problem}", "--q", "2"],
    ["verify", "{problem}", "--qmax", "2", "--threads", "1"],
    ["stratify", "{problem}", "--q", "2", "--engine", "direct"],
    ["count-reps", "{problem}", "--brute", "2"],
], ids=["stratify", "verify", "stratify-direct", "count-reps-brute"])
def test_points_past_the_index_limit_exceed_the_budget(tmp_path, command):
    # 2^70 points pass a budget of 10^30 but no table index reaches them:
    # the scan would fail to allocate, the direct and brute routes would
    # loop over every point
    problem = tmp_path / "k2_57.problem"
    problem.write_text(K2_PAST_THE_INDEX, encoding="utf-8")
    argv = [a.format(problem=problem) for a in command]
    done = _run_cli(argv, timeout=5, preexec_fn=_limit_address_space)
    assert done.returncode == 3, done.stderr
    assert (f"2^70 representations exceed the index limit {sys.maxsize}"
            in done.stderr)


K2_WITH_Q = "vertices 2\narrow 0 1\narrow 0 1\ndim 1 1\ntheta 1 0\nq {q}\n"


@pytest.mark.parametrize("q,command,code,expected", [
    (2, ["stratify", "{problem}", "--q", "1000000007"], 1,
     "q=1000000007 exceeds the configured maximum 16"),
    (2, ["hn", "{problem}", "--rep", "{rep}", "--q", "1000000007"], 1,
     "q=1000000007 exceeds the configured maximum 16"),
    (2, ["count-reps", "{problem}", "--brute", "1000000007"], 1,
     "q=1000000007 exceeds the configured maximum 16"),
    # a q line above the cap is a parse error, prime power or not
    (1000000007, ["verify", "{problem}"], 2,
     "line 6: q=1000000007 exceeds the configured maximum 16"),
    (1000000006, ["verify", "{problem}"], 2,
     "line 6: q=1000000006 exceeds the configured maximum 16"),
    (2**61 - 1, ["verify", "{problem}"], 2,
     f"line 6: q={2**61 - 1} exceeds the configured maximum 16"),
    (2**61 - 2, ["verify", "{problem}"], 2,
     f"line 6: q={2**61 - 2} exceeds the configured maximum 16"),
    (10**30 + 1, ["verify", "{problem}"], 2,
     f"line 6: q={10**30 + 1} exceeds the configured maximum 16"),
], ids=["stratify", "hn", "count-reps-brute", "verify-q-line",
        "q-line-not-prime-power", "q-line-mersenne-61",
        "q-line-mersenne-61-minus-1", "q-line-past-the-exact-range"])
def test_large_field_sizes_fail_at_once(tmp_path, q, command, code,
                                        expected):
    # within the timeout, so no q is factored by trial division (up to
    # its square root, 2^61 - 1 would take hours)
    problem = tmp_path / "k2.problem"
    problem.write_text(K2_WITH_Q.format(q=q), encoding="utf-8")
    rep = tmp_path / "k2.rep"
    rep.write_text("0\n0\n", encoding="utf-8")
    argv = [a.format(problem=problem, rep=rep) for a in command]
    done = _run_cli(argv, timeout=5)
    assert done.returncode == code, done.stderr
    assert expected in done.stderr


# one arrow 0 -> 1 of 1024 x 1024 entries, and a loop at a third vertex
# of dimension 0 or 1, so the degree is 2^20 or one more
DEGREE_EDGE = ("vertices 3\narrow 0 1\narrow 2 2\ndim 1024 1024 {extra}\n"
               "theta 1 0 0\n")


def test_count_reps_at_the_printed_degree_budget(tmp_path, capsys):
    problem = tmp_path / "edge.problem"
    problem.write_text(DEGREE_EDGE.format(extra=0), encoding="utf-8")
    assert main(["count-reps", str(problem)]) == 0
    poly, coeffs = capsys.readouterr().out.splitlines()
    assert MAX_PRINTED_DEGREE == 2**20
    assert poly == f"rep-count-poly: q^{MAX_PRINTED_DEGREE}"
    assert coeffs == "coeffs:" + " 0" * MAX_PRINTED_DEGREE + " 1"
    problem.write_text(DEGREE_EDGE.format(extra=1), encoding="utf-8")
    assert main(["count-reps", str(problem)]) == 3
    assert (f"q^{MAX_PRINTED_DEGREE + 1} exceeds the printed degree budget "
            f"{MAX_PRINTED_DEGREE}") in capsys.readouterr().err


@pytest.mark.parametrize("offset,code,expected", [
    (-1, 2, f"line 6: not a prime power: {MAX_Q - 1}"),
    (0, 0, "verify: all checks passed"),
    (1, 2, f"line 6: q={MAX_Q + 1} exceeds the configured maximum 16"),
], ids=["below", "at", "past"])
def test_q_line_at_the_factoring_limit(tmp_path, capsys, offset, code,
                                       expected):
    # a q line is factored up to the field cap and refused past it
    problem = tmp_path / "k2.problem"
    problem.write_text(K2_WITH_Q.format(q=MAX_Q + offset), encoding="utf-8")
    assert main(["verify", str(problem)]) == code
    out, err = capsys.readouterr()
    assert expected in (out if code == 0 else err)


# every subcommand that reads a problem file
PROBLEM_COMMANDS = [
    ["stratify", "{problem}", "--q", "2"],
    ["hn", "{problem}", "--rep", "{rep}", "--q", "2"],
    ["moduli-poly", "{problem}"],
    ["count-reps", "{problem}"],
    ["verify", "{problem}"],
]


@pytest.mark.parametrize("q,code", [(16, 0), (17, 2)], ids=["16", "17"])
@pytest.mark.parametrize("command", PROBLEM_COMMANDS,
                         ids=[c[0] for c in PROBLEM_COMMANDS])
def test_q_line_contract_for_every_subcommand(tmp_path, capsys, command, q,
                                              code):
    # a q line within the cap parses for all; past it, it fails on its
    # line, also where the subcommand would not read it
    problem = tmp_path / "k2.problem"
    problem.write_text(K2_WITH_Q.format(q=q), encoding="utf-8")
    rep = tmp_path / "k2.rep"
    rep.write_text("0\n0\n", encoding="utf-8")
    argv = [a.format(problem=problem, rep=rep) for a in command]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert "line 6: q=17 exceeds the configured maximum 16" in err


def test_type_ids_past_the_array_cap_exit_3(k2_22_file, monkeypatch,
                                            capsys):
    import quivercount.exhaustive as exhaustive

    monkeypatch.setattr(exhaustive, "MAX_TYPES", 2)
    assert main(["stratify", k2_22_file, "--q", "2"]) == 3
    assert "more than 2 types in the space of" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.problem"
    path.write_text("vertices 2\narrow 0 5\ndim 1 1\ntheta 1 0\n", encoding="utf-8")
    assert main(["moduli-poly", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_purity_fit_command(tmp_path, capsys):
    samples = tmp_path / "torus.samples"
    samples.write_text("base_q 2\n1 3\n2 3\n3 9\n4 15\n", encoding="utf-8")
    assert main(["purity-fit", "--samples", str(samples), "--period", "2",
                 "--degree", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: periodic-polynomial"
    assert "P_0: t - 1" in out
    assert "P_1: t + 1" in out


def test_purity_fit_period_one(tmp_path, capsys):
    samples = tmp_path / "gm.samples"
    samples.write_text("base_q 2\n1 1\n2 3\n3 7\n4 15\n", encoding="utf-8")
    assert main(["purity-fit", "--samples", str(samples), "--period", "1",
                 "--degree", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "strong-polynomial"
    assert data["polynomials"][0]["pretty"] == "q - 1"


def test_purity_fit_huge_period_fails_at_once(tmp_path):
    # a class per residue up to the period would be 10^11 lists; the
    # first empty class is found after the samples are grouped
    samples = tmp_path / "gm.samples"
    samples.write_text("base_q 2\n1 1\n2 3\n3 7\n", encoding="utf-8")
    done = _run_cli(["purity-fit", "--samples", str(samples), "--period",
                     "100000000000", "--degree", "1"],
                    timeout=5, preexec_fn=_limit_address_space)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert ("residue class 0 mod 100000000000 has 0 samples, need at "
            "least 2") in done.stderr


def test_purity_fit_negative_degree_fails_at_once(tmp_path):
    # checked before the residue classes: no class is too small for
    # degree -1, so their scan would run through all 10^11 residues
    samples = tmp_path / "gm.samples"
    samples.write_text("base_q 2\n1 1\n2 3\n", encoding="utf-8")
    done = _run_cli(["purity-fit", "--samples", str(samples), "--period",
                     "100000000000", "--degree", "-1"],
                    timeout=5, preexec_fn=_limit_address_space)
    assert done.returncode == 1, done.stderr
    assert "degree bound must be nonnegative" in done.stderr


@pytest.mark.parametrize("period", [1, 2])
def test_purity_fit_huge_exponent_fails_at_once(tmp_path, period):
    # 2^10000000000 has 10^10 bits: the sample budget must fail before
    # any power of base_q is computed, on both fitting paths
    samples = tmp_path / "huge.samples"
    samples.write_text("base_q 2\n1 3\n10000000000 5\n", encoding="utf-8")
    done = _run_cli(["purity-fit", "--samples", str(samples), "--period",
                     str(period), "--degree", "1"],
                    timeout=5, preexec_fn=_limit_address_space)
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert ("2^10000000000 exceeds the sample budget of 65536 bits"
            in done.stderr)


def test_purity_fit_exponent_past_the_float_range_exits_3(tmp_path):
    # 2^1100 is past the largest float: the budget compares integers
    samples = tmp_path / "huge.samples"
    samples.write_text(f"base_q 2\n{2**1100} 1\n", encoding="utf-8")
    done = _run_cli(["purity-fit", "--samples", str(samples), "--period",
                     "1", "--degree", "0"], timeout=5)
    assert done.returncode == 3, done.stderr
    assert f"2^{2**1100} exceeds the sample budget of 65536 bits" in done.stderr
    assert "Traceback" not in done.stderr


def test_missing_file_is_an_error(capsys):
    assert main(["moduli-poly", "/nonexistent/file.problem"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind,text,message", [
    ("problem", "q 2\n", "missing 'vertices'"),
    ("problem", "vertices 2\ntheta 1 0\n", "missing 'dim'"),
    ("problem", K2_PROBLEM + "q\n", "line 7: expected at least one integer"),
    ("problem", "vertices two\n", "line 1: not an integer"),
    ("problem", K2_PROBLEM + "budget-reps 0\n", "line 7: value must be >= 1"),
    ("problem", "dim 1 1\nvertices 2\n", "line 1: 'vertices' must come first"),
    ("samples", "base_q 2\nbase_q 3\n1 3\n", "line 2: duplicate 'base_q'"),
    ("samples", "base_q 2\n1 x\n", "line 2: bad sample line: '1 x'"),
    ("samples", "base_q 2\n-1 3\n2 3\n", "sample exponents must be positive"),
], ids=["missing-vertices", "missing-dim", "empty-q", "not-an-integer",
        "budget-below-1", "dim-before-vertices", "duplicate-base-q",
        "bad-sample-line", "negative-exponent"])
def test_parse_errors_exit_2(tmp_path, capsys, kind, text, message):
    path = tmp_path / f"input.{kind}"
    path.write_text(text, encoding="utf-8")
    argv = (["moduli-poly", str(path)] if kind == "problem" else
            ["purity-fit", "--samples", str(path), "--period", "1",
             "--degree", "1"])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
