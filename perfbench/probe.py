"""A reference loop that shares the worker's core at low priority; started by run.py.

On a shared 2-core x86_64 VM the speed of each core changed by up to
about 1.8x, in phases from a fraction of a second to minutes, whatever
the program did (see README.md).  The probe runs a fixed loop pinned to
the worker's core at nice 10, so the scheduler interleaves its slices
with the worker's every few milliseconds, and both see the core in the
same state.  After each iteration it publishes its iteration count and its
own CPU seconds in a small shared file; the worker reads them around
each job and states the job's CPU time in probe iterations (worker.py).

The loop mixes object-heavy interpreted code (small objects, dicts,
modular powers, sha256) with a numpy sort, as the jobs do.  It does not
import hiddenpoly, so a change to the program cannot change the probe.
It exits when its parent goes away.

    python3 perfbench/probe.py --core N --file PATH
"""

from __future__ import annotations

import argparse
import os
import struct

RECORD = struct.Struct("<qdq")  # iterations, CPU seconds, iterations again
NICE = 10


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--core", type=int, required=True)
    ap.add_argument("--file", required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.core})
    os.nice(NICE)

    import hashlib
    import mmap
    import time

    import numpy

    parent = os.getppid()
    array = numpy.random.default_rng(0).random(2048)
    with open(args.file, "r+b") as f:
        shared = mmap.mmap(f.fileno(), RECORD.size)
    clock = time.process_time
    n = 0
    while True:
        table: dict[int, int] = {}
        for i in range(150):
            cell = _Cell(i & 15, pow(i, 5, 1000003))
            table[cell.key] = table.get(cell.key, 0) + cell.value
        hashlib.sha256(b"probe").digest()
        numpy.sort(array)
        n += 1
        shared[:] = RECORD.pack(n, clock(), n)
        if n % 256 == 0 and os.getppid() != parent:
            return 0


if __name__ == "__main__":
    raise SystemExit(main())
