"""Host-speed calibration.

The host's speed swings by up to 2x within seconds and stays slow or fast for
minutes, and process CPU time follows wall time, so the slowdowns are the
processor's, not the scheduler's.  A run therefore times a fixed kernel of
pure-Python work right before and after each op and expresses the op in
kernel units; multiplied by ``KERNEL_REF_NS`` that reads as milliseconds at
the reference speed.  The kernel uses only the standard library, so no
change to ``deepconn`` can change it.  It mixes what the library spends its
time on: ``Fraction`` row operations and dict/set graph search over string
names.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Fastest kernel time on the reference host (2 CPUs, Python 3.11.7).
KERNEL_REF_NS = 1_600_000
REPS = 3


def kernel() -> int:
    """Fraction Gauss-Jordan on a fixed 7x8 matrix plus BFS from 12 sources."""
    n = 7
    rows = [
        [Fraction((i * 7 + j * 3) % 11 + (i == j) * 13, 1 + (i + j) % 4) for j in range(n + 1)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    adj = {
        f"v{i:02d}": sorted(f"v{(i * k) % 61:02d}" for k in (2, 3, 5, 7)) for i in range(61)
    }
    reached = 0
    for s in list(adj)[:12]:
        seen = {s}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen and (u, v) not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        reached += len(seen)
    return reached + rows[0][-1].denominator


def kernel_ns() -> int:
    """Fastest of ``REPS`` kernel runs, in nanoseconds."""
    best = None
    for _ in range(REPS):
        started = time.perf_counter_ns()
        kernel()
        elapsed = time.perf_counter_ns() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def scaled(elapsed_ns: int, before_ns: int, after_ns: int) -> float:
    """``elapsed_ns`` at the reference speed, in milliseconds."""
    return elapsed_ns * 2 / (before_ns + after_ns) * KERNEL_REF_NS / 1e6
