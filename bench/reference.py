"""A fixed pure-Python task that measures how fast the host runs Python right now.

On a shared host the same op can run up to twice as slowly for minutes at
a time, and its CPU time grows with its wall time: the slowdown is
contention for the core, not time taken from the process.  The benchmark
times this task between ops and reports each op's CPU time as a multiple
of the task's CPU time around it, so a host-wide slowdown cancels out.
The task does what the program's inner loops do (exact rational
arithmetic and dict updates keyed by small tuples), and it never changes
with the program, so a change to the program shows in full.

Wall time is not compared this way.  It also holds the bursts in which
the hypervisor runs another guest on the vCPU (steal), which took up to
40% of the task's wall time in a burst, and one run of the task does not
predict the burst for the op after it.
"""

from __future__ import annotations

import time
from fractions import Fraction

STEPS = 18_000
#: Digest of the task's result, so that a broken task cannot pass as a fast one.
RESULT = (493786, 768381, 161991000)


def _task() -> tuple[int, int, int]:
    total = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, STEPS):
        total += Fraction(i * 7919 % 1009 + 1, i % 97 + 1)
        key = (i % 211, i % 7)
        counts[key] = counts.get(key, 0) + i
    return total.numerator % 1_000_003, total.denominator % 1_000_003, sum(counts.values())


def reference() -> float:
    """CPU seconds of one run of the reference task."""
    start = time.process_time()
    result = _task()
    cpu = time.process_time() - start
    if result != RESULT:
        raise RuntimeError(f"reference task gave {result}, expected {RESULT}")
    return cpu
