"""CPU-speed meter: scales the benchmark's times to a reference CPU speed.

On a shared host the speed of one virtual CPU moves by up to half within
a minute or two, as other tenants' load comes and goes.  Measured alone, a
pass's wall time spread by 20-30% between runs of the same code.  A
reference loop timed between operations does not track this well enough,
and one timed on another CPU does not track it at all: the CPUs slow down
separately.

So the benchmark pins itself, and with it every process it starts, to
one CPU, and runs this meter on that CPU at the lowest priority (nice 19).
The meter spins a fixed pure-Python loop and publishes, in a 16-byte file,
how many loops it has finished and how much CPU time it has used.  While
the workload runs, the meter gets about 1.5% of the CPU, in short slices
spread over the whole interval, so its loops per CPU-second measure how
fast that CPU ran during exactly that interval.  A time scaled by
``speed / REFERENCE_SPEED`` is the time the same work would take on a CPU
that runs the loop ``REFERENCE_SPEED`` times per second.

In a 420 s test on a 2-core x86 host, ``oracle.time_scan`` calls and exact
``all_lafr_pairs`` calls alternated beside meters of three kinds.  Over
10 s windows the standard deviation of the log of their time was 13.7%
and 16.0% raw, 2.3% and 4.1% scaled by a small-int loop alone, and 1.9%
and 1.6% scaled by this loop of small ints and Fractions.

Usage (started by :class:`Meter`): python3 meter.py PATH PARENT_PID
"""

from __future__ import annotations

import mmap
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# Loops per CPU-second of the meter, about this loop's typical speed on a
# 2-core x86 host under Python 3.11; only the ratio to it matters.
REFERENCE_SPEED = 18_000.0
# Below this much meter CPU time an interval's speed is too coarse to use.
MIN_METER_CPU_S = 0.004
# The file holds two doubles: loops finished, meter CPU seconds.  They are
# written and read one at a time through a memoryview, each an aligned
# 8-byte store or load.  (``struct.pack_into`` zeroes the whole buffer
# before it packs, so a reader could see a CPU time of 0 while the meter
# is preempted mid-write.)
_SIZE = 16
_START_TIMEOUT_S = 30.0


def _loop():
    # Small-int bytecode and Fraction arithmetic, about equal in time: the
    # benchmark's workloads are pure-Python rational algebra (analyze,
    # campaigns) and numpy-call-bound floating point (scan).
    s = 0
    for i in range(300):
        s += (i * i) % 7
    f = Fraction(0)
    for i in range(1, 13):
        f += Fraction(i * 7919 % 101, i * i + 1)
    return s, f


class MeterReader:
    """Reads the meter's counters from its file."""

    def __init__(self, path: Path | str):
        self._counters = _map_counters(path)

    def sample(self) -> tuple[float, float]:
        return self._counters[0], self._counters[1]

    def speed_since(self, start: tuple[float, float]) -> float | None:
        """Meter loops per CPU-second since ``start``; ``None`` if too few."""
        loops, cpu = self.sample()
        if cpu - start[1] < MIN_METER_CPU_S:
            return None
        return (loops - start[0]) / (cpu - start[1])


class Meter(MeterReader):
    """Pins this process to one CPU and runs the meter there.

    Use as a context manager around the measurement; leaving it stops the
    meter process and waits for it.
    """

    def __init__(self, path: Path):
        self.cpu = min(os.sched_getaffinity(0))
        self.path = path
        self._proc = None

    def __enter__(self) -> Meter:
        os.sched_setaffinity(0, {self.cpu})
        self.path.write_bytes(bytes(_SIZE))
        super().__init__(self.path)
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.path), str(os.getpid())]
        )
        try:
            deadline = time.monotonic() + _START_TIMEOUT_S
            while self.sample()[0] < 1000:
                if self._proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("the CPU-speed meter did not start")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        self._proc.wait()


def _map_counters(path: Path | str) -> memoryview:
    with open(path, "r+b") as f:
        return memoryview(mmap.mmap(f.fileno(), _SIZE)).cast("d")


def scale(seconds: float, speed: float) -> float:
    """``seconds`` measured at meter ``speed``, at the reference speed."""
    return seconds * speed / REFERENCE_SPEED


def main(argv: list[str]) -> int:
    path, parent = argv[0], int(argv[1])
    os.setpriority(os.PRIO_PROCESS, 0, 19)
    counters = _map_counters(path)
    loops = 0
    while True:
        _loop()
        loops += 1
        counters[1] = time.process_time()
        counters[0] = loops
        if loops % 1000 == 0 and os.getppid() != parent:
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
