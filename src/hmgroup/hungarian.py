"""Deterministic O(n^3) assignment solver.

Shortest-augmenting-path formulation with dual potentials: rows are inserted
one at a time and each insertion grows an alternating tree over columns until
it reaches a free column, updating the potentials by the minimum slack at
every step. Scan order is fixed (rows ascending, slack minima resolved to the
lowest column index), so identical inputs always produce identical outputs.

On a symmetric cost matrix the returned permutation is the unconstrained
optimum and therefore only a bound for grouping purposes: its cost can be
strictly below the cost of every self-inverse permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matching_core import CostMatrix, as_cost_array

__all__ = ["HungarianSolution", "hungarian_solve"]


@dataclass(frozen=True)
class HungarianSolution:
    """``permutation[i]`` is row i's column (0-based); ``is_symmetric`` marks an involution."""

    permutation: tuple[int, ...]
    cost: float
    is_symmetric: bool


def hungarian_solve(c) -> HungarianSolution:
    """Minimum-cost permutation of a square non-negative matrix.

    Accepts a CostMatrix or any array-like; symmetry is not assumed.
    """
    cost = c.values if isinstance(c, CostMatrix) else as_cost_array(c)
    n = cost.shape[0]
    # col_row[j] = row matched to column j; index n is the virtual root column
    # that hosts the row currently being inserted. A value of n means free.
    col_row = np.full(n + 1, n, dtype=np.intp)
    u = np.zeros(n)      # row potentials
    v = np.zeros(n + 1)  # column potentials (virtual root included)
    prev_col = np.zeros(n, dtype=np.intp)
    inf = np.inf
    for row in range(n):
        col_row[n] = row
        j0 = n
        min_slack = np.full(n, inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = col_row[j0]
            slack = cost[i0, :] - u[i0] - v[:n]
            better = ~used[:n] & (slack < min_slack)
            min_slack[better] = slack[better]
            prev_col[better] = j0
            reachable = np.where(used[:n], inf, min_slack)
            j1 = int(np.argmin(reachable))  # ties resolve to the lowest column
            delta = reachable[j1]
            u[col_row[used]] += delta
            v[used] -= delta
            min_slack[~used[:n]] -= delta
            j0 = j1
            if col_row[j0] == n:
                break
        while j0 != n:  # flip the alternating path
            j_prev = int(prev_col[j0])
            col_row[j0] = col_row[j_prev]
            j0 = j_prev
    row_col = np.empty(n, dtype=np.intp)
    row_col[col_row[:n]] = np.arange(n)
    total = float(cost[np.arange(n), row_col].sum())
    permutation = tuple(int(j) for j in row_col)
    is_symmetric = bool((row_col[row_col] == np.arange(n)).all())
    return HungarianSolution(permutation, total, is_symmetric)
