"""The speed of one CPU while a timed child runs on it.

A shared host runs the same code up to 1.6 times faster or slower from
one second to the next, depending on what its other tenants run on the
same physical core.  ``SpeedMeter`` forks a child that repeats
``reference_loop`` (no package code) at the lowest priority, pinned to
the CPU the timed children are pinned to, and publishes its loop count
and CPU time in shared memory.  The meter is stopped except while a
timed child runs (from ``resume()`` to ``pause()``); then it gets about
1.5% of that CPU, in slices spread over the child's whole run, so its
CPU time per loop follows the speed of that CPU over the same interval.

``scale`` turns a time measured while the meter ran into the time it
would have taken at ``NOMINAL_LOOP_S`` CPU seconds per loop.  A change
to the package moves scaled times as it moves measured ones, since the
reference loop does not use the package.  Two effects of the package
on the meter remain, both small: the meter's loops run slower on a
cache the child has filled, and a shorter child leaves a larger share
of the meter's loops to the moments just after its start and before
its exit is noticed.
"""

import ctypes
import mmap
import os
import signal
import struct
from fractions import Fraction
from time import process_time_ns, sleep

# CPU seconds per reference_loop while it shares a CPU with a timed child,
# typical of a 2-core Intel Xeon VM with Python 3.11.7
NOMINAL_LOOP_S = 0.00026

# seqlock: sequence (odd while a write is in progress), loops, CPU ns
_SEQ = struct.Struct("q")
_DATA = struct.Struct("qq")
_SIZE = _SEQ.size + _DATA.size

PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def reference_loop():
    """A fixed amount of pure-Python work in the package's mix: small
    integer table lookups and dict updates as in the scans, ``Fraction``
    polynomial products as in the counting recursion."""
    table = list(range(64))
    seen = {}
    acc = 0
    for i in range(100):
        word = (i * 2654435761) & 0xFFF
        acc += table[word & 63] ^ table[word >> 6]
        seen[word & 127] = seen.get(word & 127, 0) + 1
    poly = [Fraction(1)]
    for k in range(1, 4):
        poly = _poly_mul(poly, [Fraction(-1, k), Fraction(0),
                                Fraction(1, k + 1)])
    return acc, len(seen), poly


def _run_reference(shared, parent):
    try:  # killed with the harness, also while stopped
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    except (OSError, AttributeError):
        pass
    os.setpriority(os.PRIO_PROCESS, 0, 19)
    start = process_time_ns()
    loops = 0
    while os.getppid() == parent:  # the harness may end before prctl
        reference_loop()
        loops += 1
        _SEQ.pack_into(shared, 0, 2 * loops - 1)
        _DATA.pack_into(shared, _SEQ.size, loops, process_time_ns() - start)
        _SEQ.pack_into(shared, 0, 2 * loops)


class SpeedMeter:
    """Context manager around the reference child, which is stopped
    except between ``resume()`` and ``pause()``, so that it never runs
    alone on the CPU."""

    def __init__(self, cpu):
        self.cpu = cpu
        self.pid = None
        self._shared = mmap.mmap(-1, _SIZE)

    def __enter__(self):
        parent = os.getpid()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.sched_setaffinity(0, {self.cpu})
                _run_reference(self._shared, parent)
            finally:
                os._exit(0)
        while self._read()[0] < 1:  # started and published a first loop
            if os.waitpid(self.pid, os.WNOHANG)[0]:
                raise RuntimeError("the speed meter exited on start")
            sleep(0.001)
        os.kill(self.pid, signal.SIGSTOP)
        return self

    def resume(self):
        os.kill(self.pid, signal.SIGCONT)
        self._start = self._read()

    def pause(self):
        """Stops the meter; returns its ``(loops, cpu_s)`` since resume()."""
        loops, cpu_s = self._read()
        os.kill(self.pid, signal.SIGSTOP)
        return loops - self._start[0], cpu_s - self._start[1]

    def _read(self):
        while True:
            (seq,) = _SEQ.unpack_from(self._shared, 0)
            loops, cpu_ns = _DATA.unpack_from(self._shared, _SEQ.size)
            if seq % 2 == 0 and _SEQ.unpack_from(self._shared, 0) == (seq,):
                return loops, cpu_ns / 1e9

    def __exit__(self, *exc):
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self._shared.close()


def steal_s(cpu):
    """Seconds the hypervisor has kept ``cpu`` from running although it
    had work (the steal column of ``/proc/stat``); 0 where not reported."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            for line in handle:
                fields = line.split()
                if fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


def scale(speed):
    """Factor from a time measured while the meter ran to the time at the
    nominal speed; ``speed`` is a ``pause()`` result."""
    loops, cpu_s = speed
    if loops < 1:
        raise RuntimeError("the speed meter completed no loop")
    return NOMINAL_LOOP_S * loops / cpu_s
