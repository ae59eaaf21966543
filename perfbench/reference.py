"""A fixed pure-Python reference workload that measures the machine's speed.

On a shared machine the speed of a process drifts by tens of percent within
seconds.  Each child times this short workload before the first object it
decides and after every object.  The runner scales each object's time by
``NOMINAL_S`` over the mean of the two reference times around it, so the
reported verdict-phase times read as seconds on a machine where the
reference takes ``NOMINAL_S``.  The workload mirrors endolab's inner loops (exact integer row
reduction on Python lists) but shares no code with the library, so a change
to the library cannot move it.
"""

from __future__ import annotations

import time

# Median reference time on the 2-vCPU Intel Xeon machine (Python 3.11) where
# the baseline was recorded.  It only sets the scale: comparisons between two
# commits do not depend on it.
NOMINAL_S = 0.017


def _row_reduce(n: int, p: int) -> int:
    state = 12345
    a = []
    for _ in range(n):
        row = []
        for _ in range(n):
            state = (state * 1103515245 + 12345) % 2**31
            row.append(state % p)
        a.append(row)
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], p - 2, p)
        row = tuple(x * inv % p for x in a[rank])
        a[rank] = list(row)
        for r in range(n):
            f = a[r][c]
            if r != rank and f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], row)]
        rank += 1
    return rank


def reference_seconds() -> float:
    """Wall time of the fixed reference workload."""
    start = time.perf_counter()
    _row_reduce(48, 10007)
    return time.perf_counter() - start
