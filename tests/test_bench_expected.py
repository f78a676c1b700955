"""The command line prints, byte for byte, the stdout that the bench
harness records as correct in ``bench/expected``.  The argument lists
are those of ``workloads()`` in ``bench/run.py``; the test runs
``cli.main`` in this process and only reads ``bench/``."""

from pathlib import Path

import pytest

from conftest import cli_stdout

BENCH = Path(__file__).resolve().parent.parent / "bench"
K2_23 = str(BENCH / "problems" / "k2_23.problem")
K3_56 = str(BENCH / "problems" / "k3_56.problem")


@pytest.mark.parametrize("name,argv", [
    ("stratify-scan", ["stratify", K2_23, "--q", "4"]),
    ("verify-direct", ["verify", K2_23, "--qmax", "3", "--threads", "1"]),
    ("moduli-poly", ["moduli-poly", K3_56]),
], ids=["stratify-scan", "verify-direct", "moduli-poly"])
def test_stdout_matches_bench_expected(capsys, name, argv):
    assert cli_stdout(capsys, argv) == (
        0, (BENCH / "expected" / f"{name}.out").read_bytes())
