"""Host-speed correction: a fixed stdlib kernel timed beside every sample.

On a shared virtual machine the speed of one core swings by up to 2x
over seconds to minutes, as other tenants come and go; the slowdown
shows in CPU time as well as in wall time, and ``/proc/loadavg`` does
not see it.  The benchmark therefore times this kernel right before and
right after each case and scales the case's latency by
``REFERENCE_S / kernel time``: a corrected latency is the latency the
case would have on a host where the kernel takes ``REFERENCE_S``.

The kernel is the same kind of work as toricfol's hot paths (exact
rational elimination, tuple keys, dict look-ups) but uses only the
standard library, so no change to the program can alter its time.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0006  # about the kernel's time on an idle 2-vCPU x86-64 VM

_N = 6
_HILBERT = tuple(tuple(Fraction(1, i + j + 1) for j in range(_N)) for i in range(_N))


def _kernel() -> int:
    """Gauss-Jordan elimination of the 6x6 Hilbert matrix, pivots kept in a dict."""
    rows = [list(r) for r in _HILBERT]
    pivots = {}
    for c in range(_N):
        pivot = rows[c][c]
        for r in range(_N):
            if r != c and rows[r][c]:
                factor = rows[r][c] / pivot
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[c])]
        pivots[(c, pivot.denominator)] = pivot
    return len(pivots)


def kernel_s() -> float:
    """Seconds taken by one run of the kernel now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
