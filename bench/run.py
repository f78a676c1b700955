"""Benchmark of the quivercount command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (fixed problem files under ``bench/problems``, theta = ``1 0``):

* ``stratify-scan``: ``stratify`` of K2 (2,3) at q=4, one cold scan of
  16,777,216 points (the default 2^24 budget).
* ``verify-direct``: ``verify`` of K2 (2,3) with ``--qmax 3 --threads 1``;
  the point-by-point route on the 4,096 points at q=2 plus many small
  scans that reuse the warm caches.
* ``moduli-poly``: ``moduli-poly`` of K3 (5,6); no enumeration, only the
  semistable recursion and polynomial arithmetic.

``--trace 0`` is a closed loop with one client: one CLI invocation at a
time, each in a fresh interpreter, for ``--seconds`` seconds.  A next
invocation starts only while the previous one's duration still fits in
the window, and at least one always runs.  It reports the median over
the invocations of

* ``wall_s``: spawn to exit of the invocation,
* ``cpu_s``: user + system CPU of that child (``os.wait4``),
* ``peak_rss_mb``: the child's ``ru_maxrss``,
* ``setup_s``: spawn to exit of a child that starts the interpreter,
  imports ``quivercount.cli``, parses the problem and builds
  ``field_table(q)`` for the workload's fields (median of several).

The times are those of an undisturbed machine of fixed speed.  A shared
host takes the CPU away from a guest now and then (steal time), and runs
the same code up to 1.6 times faster or slower from one second to the
next.  Every timed child runs pinned to one CPU, and the steal time of
that CPU while it ran (``speed.steal_s``) is subtracted from its wall
time.  Each invocation also runs together with a ``speed.SpeedMeter``,
a reference loop at the lowest priority that runs only while an
invocation does; the invocation's times are multiplied by
``speed.scale`` of the meter's progress during it, and the medians are
taken over the scaled times.  Set-up children are too short for the
meter to read a speed; their median is multiplied by the median factor
of the run's invocations.  The measured times, steal times, factors and
meter loop counts are kept in the record.

An invocation fails when it exits nonzero or its stdout differs from the
bytes recorded in ``bench/expected``.  The failure fraction is
``failed / attempted`` of the result line; it is not a metric because it
is 0 on a correct program.

``--trace 1`` runs the CLI once untraced, then replays the workload in
this process through the package's public functions while recording
spans (see ``replay.py``), checks that the replay's results equal the
CLI's, and reports the per-layer metrics.

The inputs are exhaustive and fixed, so the seed changes nothing; it is
recorded with the result.  The last line of stdout is the result JSON;
the line before it is a record with the samples, their count and the
machine (cores, Python version, CPU model), also appended to
``bench/out/results.jsonl``; a traced run appends its spans to
``bench/out/spans.jsonl``.  ``bench/test_smoke.py`` checks the harness
on K2 (1,1) in seconds: ``python3 -m pytest -q bench/test_smoke.py``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from speed import SpeedMeter, scale, steal_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 9  # set-up children per run, after one discarded warm-up

SETUP_CODE = """\
import sys
from quivercount.cli import parse_problem
from quivercount.ffield import field_table
with open(sys.argv[1], encoding="utf-8") as handle:
    parse_problem(handle.read())
for q in sys.argv[2:]:
    field_table(int(q))
"""


@dataclass(frozen=True)
class Workload:
    """One CLI invocation and what its output must be.

    ``args`` follow ``quivercount`` on the command line; ``problem`` is
    relative to the checkout root; ``fields`` are the field sizes the
    command builds tables for.
    """

    name: str
    args: tuple
    problem: str
    fields: tuple
    expected: bytes

    @property
    def command(self):
        return self.args[0]

    @property
    def problem_path(self):
        return ROOT / self.problem


def _workload(name, args, problem, fields):
    expected = (BENCH / "expected" / f"{name}.out").read_bytes()
    return Workload(name, args, problem, fields, expected)


def workloads():
    k2 = "bench/problems/k2_23.problem"
    k3 = "bench/problems/k3_56.problem"
    return {w.name: w for w in (
        _workload("stratify-scan", ("stratify", k2, "--q", "4"), k2, (4,)),
        _workload("verify-direct",
                  ("verify", k2, "--qmax", "3", "--threads", "1"), k2, (2, 3)),
        _workload("moduli-poly", ("moduli-poly", k3), k3, ()),
    )}


@dataclass(frozen=True)
class Invocation:
    """One child process: its timings, exit code and stdout; the steal
    time of its CPU while it ran (0 if not pinned) and the speed meter's
    ``(loops, cpu_s)`` over it (None without a meter)."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    steal_s: float = 0.0
    speed: tuple = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(argv, cpu=None, meter=None):
    """Run a Python child from the checkout root, timed from spawn to exit;
    CPU and peak memory come from ``wait4`` on that child alone.  With
    ``cpu`` the child runs on that CPU only; a ``meter`` runs from the
    child's start to its exit."""
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    steal = 0.0 if cpu is None else steal_s(cpu)
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, preexec_fn=pin)
    if meter is not None:
        meter.resume()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = perf_counter() - start
    steal = 0.0 if cpu is None else steal_s(cpu) - steal
    speed = None if meter is None else meter.pause()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Invocation(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, proc.returncode, out, err[0],
                      steal, speed)


def invoke(workload, meter=None):
    cpu = None if meter is None else meter.cpu
    return spawn(["-m", "quivercount.cli", *workload.args], cpu, meter)


def is_correct(workload, inv):
    return inv.returncode == 0 and inv.stdout == workload.expected


def setup_probe(workload, cpu=None):
    return spawn(["-c", SETUP_CODE, workload.problem,
                  *(str(q) for q in workload.fields)], cpu)


def closed_loop(workload, seconds, meter):
    """Invocations one after another while the last duration still fits
    in the window; always at least one."""
    runs = []
    start = perf_counter()
    while True:
        inv = invoke(workload, meter)
        runs.append(inv)
        if perf_counter() - start + inv.wall_s > seconds:
            return runs


def measure_setup(workload, cpu):
    setup_probe(workload)  # fills a fresh checkout's bytecode cache
    return [setup_probe(workload, cpu) for _ in range(SETUP_PROBES)]


def machine():
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds):
    """The ``--trace 0`` run: returns the result line and the record."""
    with SpeedMeter(min(os.sched_getaffinity(0))) as meter:
        setups = measure_setup(workload, meter.cpu)
        runs = closed_loop(workload, seconds, meter)
    scales = [scale(r.speed) for r in runs]
    failed = sum(not is_correct(workload, inv) for inv in runs)
    setup_failed = sum(inv.returncode != 0 for inv in setups)
    for inv in runs + setups:
        if inv.returncode != 0:
            sys.stderr.write(inv.stderr.decode(errors="replace"))
    median = statistics.median
    result = {
        "correct": failed == 0 and setup_failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {
            "wall_s": metric(median(
                (r.wall_s - r.steal_s) * k for r, k in zip(runs, scales)), "s"),
            "cpu_s": metric(median(
                r.cpu_s * k for r, k in zip(runs, scales)), "s"),
            "peak_rss_mb": metric(median(r.peak_rss_mb for r in runs), "MB"),
            "setup_s": metric(median(r.wall_s - r.steal_s for r in setups)
                              * median(scales), "s"),
        },
    }
    record = {
        "samples": {"invocations": len(runs), "setup": len(setups)},
        "measured_wall_s": [r.wall_s for r in runs],
        "measured_cpu_s": [r.cpu_s for r in runs],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "measured_setup_s": [r.wall_s for r in setups],
        "steal_s": [r.steal_s for r in runs],
        "setup_steal_s": [r.steal_s for r in setups],
        "scale": scales,
        "meter_loops": [r.speed[0] for r in runs],
    }
    return result, record


def traced(workload):
    """The ``--trace 1`` run: one untraced CLI invocation, then the
    in-process replay."""
    sys.path.insert(0, str(SRC))
    import quivercount
    import replay

    if Path(quivercount.__file__).resolve().parent != SRC / "quivercount":
        raise ImportError(f"quivercount imported from {quivercount.__file__}")

    inv = invoke(workload)
    ok = is_correct(workload, inv)
    if not ok:
        sys.stderr.write(inv.stderr.decode(errors="replace"))
    metrics, spans, errors = replay.run(workload, inv)
    for message in errors:
        print(f"replay mismatch: {message}", file=sys.stderr)
    result = {
        "correct": ok and not errors,
        "attempted": 1,
        "failed": int(not ok),
        "metrics": {name: metric(value, unit)
                    for name, (value, unit) in metrics.items()},
    }
    record = {"samples": {"invocations": 1}, "cli_wall_s": inv.wall_s,
              "mismatches": errors}
    return result, record, spans


def write_out(name, payload):
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stop request unwinds, so every child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "quivercount" / "cli.py").is_file():
        print(f"error: no quivercount sources under {SRC}", file=sys.stderr)
        return 2
    table = workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]

    spans = None
    if args.trace:
        result, record, spans = traced(workload)
    else:
        result, record = end_to_end(workload, args.seconds)
    record.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine=machine(),
                  correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"], metrics=result["metrics"])
    write_out("results.jsonl", record)
    if spans is not None:
        write_out("spans.jsonl", {"trace_id": f"{workload.name}-{args.seed}",
                                  "spans": spans})
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
