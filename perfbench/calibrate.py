"""Host-speed sampler: times a fixed piece of pure-Python work, again and again.

Usage: ``python3 perfbench/calibrate.py CPU`` (``run.py`` starts one per
processor).

The host is shared: other tenants' load slows every process on it by up
to half, in periods lasting from a fraction of a second to minutes, and
not equally on every processor.  This sampler runs pinned to processor
``CPU`` beside the benchmark and, every :data:`INTERVAL_S`, times one
:func:`chunk` of fixed work that never changes with the program under
test.  The benchmark divides its timings by how slow the chunk ran where
and when they were taken (see ``run.py``), which takes most of the
host's drift out.

The chunk is timed in CPU time, which leaves out the time the sampler
waits for the processor, so the samples follow how fast the host runs
Python code at that moment, whatever else the benchmark runs beside it.
It prints ``ready`` once set up, stops when its standard input closes
and then prints its samples as one JSON list of ``[time, ns]``
(monotonic clock, CPU nanoseconds).
"""

from __future__ import annotations

import array
import json
import os
import select
import sys
import time

#: Seconds between samples; a chunk takes about a millisecond.
INTERVAL_S = 0.04

#: Slots of the memory cycle: 32 MiB, larger than the caches.
SLOTS = 1 << 22


def build_cycle() -> array.array:
    """A cycle through every slot: a full-period linear congruential step
    (multiplier 1 mod 4, odd increment), so consecutive loads land far apart."""
    mask = SLOTS - 1
    return array.array("q", ((1103515245 * i + 12345) & mask for i in range(SLOTS)))


def chunk(cycle: array.array, at: int) -> int:
    """Interpreter work in the first-level caches, then dependent loads
    that miss every cache: the two kinds of work the program does, whose
    speeds other tenants' load moves differently.  Returns where the
    next chunk's loads start."""
    table = {}
    acc = 0
    for i in range(4000):
        acc = (acc * 31 + i) & 0xFFFF
        if acc & 1:
            table[acc & 255] = i
    for _ in range(2000):
        at = cycle[at]
    return at


def main(cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    cycle = build_cycle()
    print("ready", flush=True)
    at = 0
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        when = time.monotonic()
        start = time.thread_time_ns()
        at = chunk(cycle, at)
        samples.append((when, time.thread_time_ns() - start))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(int(sys.argv[1])))
