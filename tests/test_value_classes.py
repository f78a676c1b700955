"""The package's value classes are namedtuple subclasses: immutable,
picklable (a Quiver travels to pool workers) and printed as before; and
the command line loads neither ``dataclasses`` nor ``inspect``."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from quivercount import (HNType, StratumTable, classify_scan, field_table,
                         kronecker, prime_power)

SRC = Path(__file__).resolve().parent.parent / "src"

K2_11 = classify_scan(kronecker(2), (1, 1), (1, 0), field_table(2))

VALUES = [
    (HNType((1, 0), ((2, 3),)), "theta",
     "HNType(theta=(1, 0), pieces=((2, 3),))"),
    (HNType((1, 0), ((1, 0), (1, 3))), "pieces",
     "HNType(theta=(1, 0), pieces=((1, 0), (1, 3)))"),
    (kronecker(2), "arrows", "Quiver(2, [(0, 1), (0, 1)])"),
    (prime_power(4), "q", "PrimePower(p=2, e=2, q=4)"),
    (K2_11, "counts",
     "StratumTable(quiver=Quiver(2, [(0, 1), (0, 1)]), dims=(1, 1), "
     "theta=(1, 0), q=2, counts={HNType(theta=(1, 0), pieces=((1, 1),)): 3, "
     "HNType(theta=(1, 0), pieces=((1, 0), (0, 1))): 1})"),
]
IDS = ["hn-type", "hn-type-2", "quiver", "prime-power", "stratum-table"]


@pytest.mark.parametrize("value,field,text", VALUES, ids=IDS)
def test_repr_is_unchanged(value, field, text):
    assert repr(value) == text


@pytest.mark.parametrize("value,field,text", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(value, field, text):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value,field,text", VALUES, ids=IDS)
def test_pickle_round_trips(value, field, text):
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value


def test_values_are_tuples_of_their_fields():
    beta = HNType((1, 0), ((2, 3),))
    assert beta == ((1, 0), ((2, 3),))
    assert hash(beta) == hash(((1, 0), ((2, 3),)))
    assert tuple(K2_11) == (K2_11.quiver, K2_11.dims, K2_11.theta, K2_11.q,
                            K2_11.counts)
    assert isinstance(K2_11, StratumTable)


def test_cli_imports_neither_dataclasses_nor_inspect():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import quivercount.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "quivercount.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)
