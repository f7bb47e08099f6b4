"""The host-speed gauge: a process that samples how fast the host runs Python.

    python3 perfbench/gauge.py        # stops when its stdin is closed

The host this benchmark was tuned on changes speed by up to 1.7x within
seconds, and the units of a run see different mixes of fast and slow
stretches.  The gauge runs beside the units, pinned to the same vCPU: every
PERIOD_S it wakes, runs one short slice of a fixed pure-Python loop (Fraction
arithmetic and dict stores, the kind of work degsimsek does, but sharing no
code with it) and sleeps again.  A slice is timed in the gauge's own CPU
time, since the unit it shares the vCPU with may preempt it; the host's
slow stretches slow CPU time as much as wall time.  It stops when its stdin
is closed and prints one JSON line, the list of [start, end, cpu_s] per
slice, start and end on the system-wide monotonic clock, so the parent can
find the slices taken during each unit.
"""

from fractions import Fraction
import json
import select
import sys
import time

PERIOD_S = 0.1      # one slice per period; a slice takes 4-8 ms
ROUNDS = 1_000      # loop rounds in one slice


def probe(rounds: int = ROUNDS) -> None:
    """A fixed loop that only the host's speed can make faster or slower."""
    store = {}
    x = Fraction(1, 3)
    for i in range(rounds):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        if i % 16 == 0:
            x = Fraction(x.numerator % 10007, x.denominator % 10009 + 1)
        store[i % 97, i % 13] = x


def main() -> None:
    probe()                 # first-call effects out of the samples
    samples = []
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        start, cpu = time.monotonic(), time.thread_time()
        probe()
        samples.append([start, time.monotonic(), time.thread_time() - cpu])
    sys.stdout.write(json.dumps(samples) + "\n")


if __name__ == "__main__":
    main()
