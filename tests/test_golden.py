"""Every subcommand prints, byte for byte, the stdout recorded in
``tests/golden`` and exits with the recorded code.  Between them the
cases build all ten fields and pin the element encoding of GF(4),
GF(5) and GF(9) in ``hn`` literals.  The inputs sit next to the
outputs; each case's stdout is ``tests/golden/<case>.out``."""

from pathlib import Path

import pytest

from conftest import cli_stdout

GOLDEN = Path(__file__).resolve().parent / "golden"
FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _path(name):
    return str(GOLDEN / name)


K2_11, K2_12 = _path("k2_11.problem"), _path("k2_12.problem")

CASES = [
    ("verify-qmax16", ["verify", K2_11, "--qmax", "16", "--threads", "1"], 0),
    ("verify-qmax16-json",
     ["verify", K2_11, "--qmax", "16", "--threads", "1", "--json"], 0),
    *[(f"stratify-q{q}", ["stratify", K2_11, "--q", str(q)], 0)
      for q in FIELD_SIZES],
    ("stratify-direct-q4", ["stratify", K2_12, "--q", "4", "--engine",
                            "direct", "--threads", "1"], 0),
    *[(f"hn-q{q}", ["hn", _path("k2_21.problem"), "--rep", _path(f"q{q}.rep"),
                    "--q", str(q)], 0)
      for q in (4, 5, 9)],
    ("count-reps-brute3", ["count-reps", K2_12, "--brute", "3"], 0),
    ("moduli-poly-coprime", ["moduli-poly", _path("k3_23.problem")], 0),
    ("moduli-poly-not-coprime", ["moduli-poly", _path("k2_22.problem")], 4),
    *[(f"purity-fit-{name}", ["purity-fit", "--samples",
                              _path(f"{name}.samples"), "--period", period,
                              "--degree", "1"], 0)
      for name, period in (("strong", "1"), ("periodic", "2"),
                           ("non_integer", "1"))],
    ("verify-qmax17", ["verify", K2_11, "--qmax", "17", "--threads", "1"], 1),
]


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(capsys, name, argv, code):
    assert cli_stdout(capsys, argv) == (
        code, (GOLDEN / f"{name}.out").read_bytes())
