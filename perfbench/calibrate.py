"""The benchmark's host-speed calibration, served from a process of its own.

``run.py`` starts this module once per run and asks it for a calibration
before and after every timed interval: it writes a line to its stdin and
reads back the seconds one ``calibrate()`` took.  The module exits when its
stdin closes.  The calibration runs here rather than in ``run.py`` because on
Linux a child inherits its parent's peak RSS, so the calibration's arrays
would show in the peak RSS of every timed operation.
"""

from __future__ import annotations

import sys
import time

import numpy

_WORD = "ptkbdgszmnlrwfvhxaeiou" * 2


def calibrate() -> float:
    """Seconds the host takes now for a fixed amount of work.

    The work uses no cognet code.  Half of it is an edit-distance DP over
    small lists, which stays in the CPU caches; the other half streams numpy
    arrays and a dict of 8-10 MB each through memory, so it also feels
    contention for caches and memory.
    """
    start = time.perf_counter()
    for _ in range(32):
        prev = list(range(len(_WORD) + 1))
        for i, x in enumerate(_WORD, 1):
            cur = [i]
            for j, y in enumerate(reversed(_WORD), 1):
                cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
            prev = cur
    a = numpy.arange(1_000_000, dtype=float)
    for _ in range(5):
        a = numpy.sqrt(a * 1.0001 + 1.0)
    keys = list(range(100_000))
    table = {k: 3 * k for k in keys}
    sum(table[k] for k in reversed(keys))
    return time.perf_counter() - start


def main() -> int:
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
