"""Deterministic assignment solver: certify a guess, else solve in O(n^3).

A guess is optimal exactly when its residual column graph (moving the row on
column k to column j costs ``w[k, j]``) has no negative cycle. A 2-exchange
test rejects most bad guesses at once. Otherwise min-plus prefix scans, O(n)
each, down the columns in potential order seed shortest-path potentials, and
a vectorized Bellman-Ford pass of at most n + 1 rounds proves them a fixpoint
to within ``REL_TOL`` of the guess's mean entry per arc, so a zero-cost cycle
that rounds to a tiny negative sum does not reject an optimal guess. Without
that proof, rows are inserted one at a time into a shortest-augmenting-path
solve (Jonker & Volgenant 1987): a Dijkstra search over columns keeps path
lengths on reduced costs; on reaching a free column at length d it recomputes
predecessors along the path alone and moves each scanned column's duals once,
by d less its own length. A ``start``, the solution of a nearby matrix,
warm-starts that loop: its column duals are kept, a row reduction makes them
feasible, rows whose start column is still tight keep it, and only the other
rows are inserted. Scan order is fixed (rows ascending, path length minima
resolved to the lowest column index), so identical inputs always produce
identical outputs. Both paths return duals with ``u[i] + v[j] <= c[i, j]``
(to within that tolerance on a certified guess), tight on the permutation.

On a symmetric cost matrix the returned permutation is the unconstrained
optimum and therefore only a bound for grouping purposes: its cost can be
strictly below the cost of every self-inverse permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matching_core import CostMatrix, as_cost_array

__all__ = ["HungarianSolution", "hungarian_solve", "REL_TOL"]

REL_TOL = 1e-12  # relative tolerance of every optimality test


@dataclass(frozen=True)
class HungarianSolution:
    """``permutation[i]`` is row i's column (0-based); ``is_symmetric`` marks an
    involution. The duals ``u`` and ``v`` prove optimality; ``==`` ignores them."""

    permutation: tuple[int, ...]
    cost: float
    is_symmetric: bool
    u: np.ndarray = field(compare=False, repr=False)
    v: np.ndarray = field(compare=False, repr=False)


def _solution(cost: np.ndarray, row_col: np.ndarray, v: np.ndarray) -> HungarianSolution:
    # Row duals follow from the column duals by tightness on the permutation.
    rows = np.arange(len(row_col))
    matched = cost[rows, row_col]
    is_symmetric = bool((row_col[row_col] == rows).all())
    u = matched - v[row_col]
    return HungarianSolution(tuple(row_col.tolist()), float(matched.sum()), is_symmetric, u, v)


def _certify(cost: np.ndarray, guess: np.ndarray) -> HungarianSolution | None:
    """``guess`` with its duals if it is optimal, else None."""
    n = cost.shape[0]
    row_of = np.argsort(guess)  # the inverse permutation
    if guess.shape != (n,) or not np.array_equal(guess[row_of], np.arange(n)):
        raise ValueError(f"guess must be a permutation of 0..{n - 1}")
    w = cost[row_of]
    w -= w.diagonal().copy()[:, None]  # less each row's guess entry: a zero diagonal
    tol = REL_TOL * float(cost[row_of, np.arange(n)].sum()) / n  # duals feasible to tol
    buf = np.empty((n, n))
    if (np.add(w, w.T, out=buf) < -tol).any():  # a 2-exchange improves the guess
        return None
    # Shortest-path potentials from a zero start are column duals: one Jacobi
    # round (w's diagonal is 0), then pairs of min-plus prefix scans down the
    # columns in descending and ascending potential order, where a sorted guess's
    # paths run (x = min(v, cummin(v - C) + C), C the arcs' prefix sums). In the
    # proof rounds after, only a column whose potential dropped can lower another.
    v = w.min(axis=0)
    for _ in range(n):
        before = v.copy()
        for sign in (-1.0, 1.0):
            seq = np.argsort(sign * v, kind="stable")
            chain = np.concatenate(([0.0], w[seq[:-1], seq[1:]].cumsum()))
            v[seq] = np.minimum(v[seq], np.minimum.accumulate(v[seq] - chain) + chain)
        if not (v < before - tol).any():
            break
    part = np.add(w, v[:, None], out=buf)  # the first round relaxes every row of w
    for _ in range(n + 1):
        best = part.min(axis=0)
        changed = np.flatnonzero(best < v - tol)
        if not changed.size:
            return _solution(cost, guess, v)
        v[changed] = best[changed]
        part = np.take(w, changed, axis=0, out=buf[: changed.size])
        part += v[changed, None]
    return None


def hungarian_solve(c, guess=None, start=None) -> HungarianSolution:
    """Minimum-cost permutation of a square non-negative matrix.

    Accepts a CostMatrix or any array-like; symmetry is not assumed. A
    ``guess`` (``guess[i]`` is row i's column) is returned if certified optimal.
    ``start``, a solution of a nearby matrix of the same size, warm-starts the loop.
    """
    cost = c.values if isinstance(c, CostMatrix) else as_cost_array(c)
    n = cost.shape[0]
    certified = None if guess is None else _certify(cost, np.asarray(guess, dtype=np.intp))
    if certified is not None:
        return certified
    # col_row[j] = row matched to column j; index n is the virtual root column
    # that hosts the row currently being inserted. A value of n means free.
    col_row = np.full(n + 1, n, dtype=np.intp)
    u, v = np.zeros(n), np.zeros(n)  # row and column potentials
    rows = range(n)  # rows still to insert
    if start is not None:
        keep = np.asarray(start.permutation, dtype=np.intp)
        if np.shape(start.v) != (n,) or not np.array_equal(np.sort(keep), np.arange(n)):
            raise ValueError(f"start must solve a {n}x{n} matrix: a permutation of 0..{n - 1}")
        v = np.array(start.v, dtype=float)
        u = (cost - v).min(axis=1)  # row reduction: feasible duals
        tight = cost[np.arange(n), keep] - u - v[keep] <= 0.0
        col_row[keep[tight]] = np.flatnonzero(tight)
        rows = np.flatnonzero(~tight).tolist()
    for row in rows:
        col_row[n] = row
        dist = np.full(n, np.inf)  # path lengths of the open columns
        v_open = v.copy()  # -inf on scanned columns keeps them out of path
        cols, lens = [n], [0.0]  # step t scans the row on column cols[t], reached at lens[t]
        while True:
            i0, d = col_row[cols[-1]], lens[-1]
            path = np.subtract(cost[i0], v_open)
            path += d - u[i0]
            np.minimum(dist, path, out=dist)
            j0 = int(dist.argmin())  # ties resolve to the lowest column
            if col_row[j0] == n:
                break
            cols.append(j0)
            lens.append(dist[j0])
            dist[j0], v_open[j0] = np.inf, -np.inf
        d, steps, lens = dist[j0], col_row[cols], np.array(lens)  # steps[t]: step t's row
        # Flip the path. A column's predecessor is the first step that reached it at its
        # final length, in the search's own float operations: what a strict < recorded.
        j, t, length = j0, len(cols), d
        while t > 1:
            reached = (cost[steps[:t], j] - v[j]) + (lens[:t] - u[steps[:t]]) == length
            t = int(reached.argmax())
            col_row[j] = steps[t]
            j, length = cols[t], lens[t]
        col_row[j] = row  # only the root's row reached j (or j is the root)
        gain = d - lens
        u[steps] += gain  # the inserted row, on the root at length 0, gains d
        v[cols[1:]] -= gain[1:]
    row_col = np.empty(n, dtype=np.intp)
    row_col[col_row[:n]] = np.arange(n)
    return _solution(cost, row_col, v)
