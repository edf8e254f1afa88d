"""Host speed, from a fixed reference kernel timed around every CLI call.

On a shared 2-CPU host the same solve runs up to 1.9x slower for seconds to
minutes at a time, so ten runs of identical work spread by 25 % and more.
The kernel is the benchmark's own frozen code: 150 steps of the inner loop
of a shortest-augmenting-path assignment (slack update, masked argmin,
potential update) on the rows of a fixed 500x500 matrix, the same Python
loop over numpy rows as the bound solve that takes most of every
workload's time. Its time right before and after a call tells how fast the
host ran meanwhile; ``slowdown`` is that time over REF_S.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on the reference host (2-CPU Intel Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4) in its fast periods.
REF_S = 0.0035
STEPS = 150
_COST = np.random.default_rng(0).random((500, 500))


def _kernel() -> None:
    cost = _COST
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n + 1)
    prev = np.zeros(n + 1, dtype=np.intp)
    for k in range(STEPS):
        if k % 50 == 0:
            slack = np.full(n + 1, np.inf)
            used = np.zeros(n + 1, dtype=bool)
            used[n] = True
        i0 = k % n
        cur = np.append(cost[i0] - u[i0] - v[:n], np.inf)
        better = ~used & (cur < slack)
        slack[better] = cur[better]
        prev[better] = k
        free = np.where(used, np.inf, slack)
        j1 = int(np.argmin(free))
        delta = free[j1]
        u[i0] += delta
        v[used] -= delta
        slack[~used] -= delta
        used[j1] = True


def probe() -> float:
    """Host slowdown now: the fastest of three kernel timings over REF_S."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best / REF_S
