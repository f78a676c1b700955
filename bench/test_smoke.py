"""Smoke check of the benchmark harness on K2 (1,1); runs in seconds.

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import replay  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402

PROBLEM = "bench/problems/k2_11.problem"

SMOKE = [
    run.Workload("smoke-stratify", ("stratify", PROBLEM, "--q", "2"), PROBLEM,
                 (2,), b"stratum table (q=2):\n"
                       b"  1,1 3\n"
                       b"  1,0;0,1 1\n"
                       b"stratum formulas:\n"
                       b"  1,1: q^2 - 1 = 3\n"
                       b"  1,0;0,1: 1 = 1\n"
                       b"partition: 4 == q^2 ok\n"),
    run.Workload("smoke-verify",
                 ("verify", PROBLEM, "--qmax", "3", "--threads", "1"), PROBLEM,
                 (2, 3), b"".join(
                     f"q={q}: partition ok ({q * q} points in 2 strata)\n"
                     f"q={q}: engines ok (point-by-point table matches)\n"
                     f"q={q}: stratum formulas ok (2 types)\n"
                     f"q={q}: torsor and moduli ok ({q + 1} orbits)\n".encode()
                     for q in (2, 3)) + b"verify: all checks passed\n"),
    run.Workload("smoke-moduli", ("moduli-poly", PROBLEM), PROBLEM, (),
                 b"q + 1\ncoeffs: 1 1\n"),
]


def spec():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_spec_names_match_harness():
    data = spec()
    assert [w["name"] for w in data["workloads"]] == list(run.workloads())
    assert [m["name"] for m in data["per_layer"]] == list(replay.LAYER_METRICS)
    assert [m["unit"] for m in data["per_layer"]] == list(
        replay.LAYER_METRICS.values())
    for workload in run.workloads().values():
        assert workload.expected and workload.problem_path.is_file()


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_end_to_end(workload):
    result, record = run.end_to_end(workload, 0.5)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == record["samples"]["invocations"] >= 1
    names = [m["name"] for m in spec()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", SMOKE, ids=lambda w: w.name)
def test_traced_replay_matches_cli(workload):
    result, record, spans = run.traced(workload)
    assert result["correct"], record["mismatches"]
    assert list(result["metrics"]) == list(replay.LAYER_METRICS)
    assert spans[0][0] == "replay" and all(s[2] is not None for s in spans)


def test_speed_meter_runs_only_while_resumed_and_ends():
    with speed.SpeedMeter(min(os.sched_getaffinity(0))) as meter:
        meter.resume()
        time.sleep(0.2)
        loops, cpu_s = meter.pause()
        stopped = meter._read()
        time.sleep(0.1)
        assert meter._read() == stopped
        pid = meter.pid
    assert loops >= 1 and cpu_s > 0 and speed.scale((loops, cpu_s)) > 0
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_wrong_output_counts_as_failure():
    workload = SMOKE[2]
    wrong = run.Workload(workload.name, workload.args, workload.problem,
                         workload.fields, b"q\ncoeffs: 0 1\n")
    result, _ = run.end_to_end(wrong, 0.2)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_refuses_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "moduli-poly",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == b""
