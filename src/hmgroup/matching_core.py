"""Groupings as involutions, cost matrices, and the exact brute-force oracles.

A grouping of n receivers into singles and pairs is a self-inverse
permutation (involution), i.e. a symmetric permutation matrix. Its cost on
the inverse-rate cost matrix is the reciprocal of the average spectrum
efficiency the grouping offers to every receiver.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from .rate_model import (
    HierRateModel, ModcodParseError, ModcodTable, _open_source, pair_rate_matrix, single_rate
)

__all__ = [
    "Receiver",
    "Assignment",
    "CostMatrix",
    "UnschedulableReceiverError",
    "build_cost_matrix",
    "assignment_cost",
    "count_strategies",
    "brute_force_optimal_symmetric",
    "brute_force_optimal_permutation",
    "load_cost_csv",
]

ENUMERATION_CAP = 12
PERMUTATION_BRUTE_FORCE_CAP = 9


class UnschedulableReceiverError(ValueError):
    """A receiver (or pair) has rate 0 and can never be served."""


@dataclass(frozen=True)
class Receiver:
    """A terminal, identified by a user-facing label, with its downlink SNR."""

    index: int
    snr_db: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.snr_db):
            bad = "NaN" if math.isnan(self.snr_db) else f"{self.snr_db} dB"
            raise ValueError(f"receiver {self.index}: snr_db must not be {bad}")


@dataclass(frozen=True)
class Assignment:
    """A grouping: ``partner[i] == i`` is a single, otherwise i pairs with partner[i].

    The partner array must be an involution (self-inverse permutation), which
    is exactly the condition for the corresponding 0/1 matrix to be a
    symmetric permutation matrix.
    """

    partner: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.partner)
        if n == 0:
            raise ValueError("assignment must cover at least one receiver")
        for i, j in enumerate(self.partner):
            if not 0 <= j < n:
                raise ValueError(f"partner[{i}] = {j} out of range")
            if self.partner[j] != i:
                raise ValueError(
                    f"not an involution: partner[{i}] = {j} but partner[{j}] = {self.partner[j]}"
                )

    @classmethod
    def identity(cls, n: int) -> "Assignment":
        return cls(tuple(range(n)))

    @property
    def n(self) -> int:
        return len(self.partner)

    def pairs(self) -> list[tuple[int, int]]:
        """Matched pairs as (i, j) with i < j."""
        return [(i, j) for i, j in enumerate(self.partner) if i < j]

    def singles(self) -> list[int]:
        return [i for i, j in enumerate(self.partner) if i == j]


def as_cost_array(values) -> np.ndarray:
    """``values`` as a float64 array, checked square, non-empty, finite and non-negative."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != values.shape[1] or values.shape[0] == 0:
        raise ValueError(f"cost matrix must be square and non-empty, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise ValueError("cost matrix entries must be finite")
    if (values < 0.0).any():
        raise ValueError("cost matrix entries must be non-negative")
    return values


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """Symmetric matrix of scheduling costs in symbol-time-per-bit units."""

    values: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        values = as_cost_array(self.values)
        if not np.array_equal(values, values.T):
            raise ValueError("cost matrix must be symmetric")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n", values.shape[0])


def build_cost_matrix(
    receivers: Sequence[Receiver], table: ModcodTable, model: HierRateModel
) -> CostMatrix:
    """Cost matrix for a receiver population.

    Diagonal entries are 1/R_i (inverse single rate); entry (i, j) for i != j
    is 1/(2 R_ij) where R_ij is the pair rate, so a matched pair contributes
    its two mirrored entries, i.e. exactly one inverse pair rate.
    """
    if not receivers:
        raise ValueError("at least one receiver required")
    n = len(receivers)
    diag = np.empty(n)
    for pos, receiver in enumerate(receivers):
        rate = single_rate(receiver.snr_db, table)
        if rate <= 0.0:
            raise UnschedulableReceiverError(
                f"receiver {receiver.index} (SNR {receiver.snr_db} dB) is below "
                "every MODCOD threshold and cannot be scheduled"
            )
        diag[pos] = 1.0 / rate
    rates = pair_rate_matrix(np.array([r.snr_db for r in receivers]), model)
    bad = (rates <= 0.0) | ~np.isfinite(rates)
    np.fill_diagonal(bad, False)  # the diagonal holds no pair
    if bad.any():
        # argwhere scans row-major, so the first hit is the first bad upper-triangle pair
        i, j = (receivers[int(k)] for k in np.argwhere(np.triu(bad, k=1))[0])
        raise UnschedulableReceiverError(
            f"pair (receiver {i.index}, receiver {j.index}) has non-positive rate"
        )
    rates *= 2.0  # in place: the rates become costs 1 / (2 R_ij)
    with np.errstate(divide="ignore"):  # the zero diagonal is overwritten below
        np.divide(1.0, rates, out=rates)
    np.fill_diagonal(rates, diag)
    return CostMatrix(rates)


def assignment_cost(c: CostMatrix, x: Assignment) -> float:
    """Sum of the n selected matrix entries, one per row and column."""
    if not isinstance(x, Assignment):
        raise TypeError(f"expected an Assignment, got {type(x)!r}")
    if x.n != c.n:
        raise ValueError(f"assignment covers {x.n} receivers, matrix has {c.n}")
    return float(c.values[np.arange(c.n), np.array(x.partner)].sum())


def count_strategies(n: int) -> int:
    """Number of groupings of n receivers into singles and pairs.

    Follows the recursion obtained by deciding the fate of the last receiver:
    it stays single, or pairs with one of the n-1 others. Exact integer
    arithmetic; the counts grow super-exponentially.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    prev, cur = 1, 1  # counts for 0 and 1 receivers
    for k in range(2, n + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur


def _involutions(slots: list[int], partner: list[int]) -> Iterator[tuple[int, ...]]:
    # Decide the largest unassigned slot first: single, then paired with each
    # smaller slot in ascending order.
    if not slots:
        yield tuple(partner)
        return
    k = slots[-1]
    rest = slots[:-1]
    partner[k] = k
    yield from _involutions(rest, partner)
    for pos, j in enumerate(rest):
        partner[k] = j
        partner[j] = k
        yield from _involutions(rest[:pos] + rest[pos + 1 :], partner)
        partner[j] = j


def _check_enumeration_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise ValueError(
            f"enumerating involutions for n = {n} exceeds the cap of {ENUMERATION_CAP} "
            f"({count_strategies(n)} assignments)"
        )


def brute_force_optimal_symmetric(c: CostMatrix) -> tuple[Assignment, float]:
    """Exact minimum-cost grouping by exhaustive scan of all involutions (n <= 12).

    Ties are broken toward the lexicographically smallest partner array.
    """
    _check_enumeration_cap(c.n)
    values, rows = c.values, np.arange(c.n)
    best_partner: tuple[int, ...] | None = None
    best_cost = math.inf
    for partner in _involutions(list(range(c.n)), list(range(c.n))):
        cost = float(values[rows, np.array(partner)].sum())
        if cost < best_cost or (cost == best_cost and partner < best_partner):
            best_cost, best_partner = cost, partner
    assert best_partner is not None
    return Assignment(best_partner), best_cost


def brute_force_optimal_permutation(c: CostMatrix) -> tuple[tuple[int, ...], float]:
    """Exact minimum-cost permutation over all n!, as a 0-based tuple, and its cost.

    Test oracle for the polynomial solver; refuses n > 9. Ties are broken
    toward the lexicographically smallest permutation.
    """
    n = c.n
    if n > PERMUTATION_BRUTE_FORCE_CAP:
        raise ValueError(
            f"permutation brute force is capped at n = {PERMUTATION_BRUTE_FORCE_CAP}, got {n}"
        )
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    costs = c.values[np.arange(n)[None, :], perms].sum(axis=1)
    best = int(np.argmin(costs))  # first minimum = lexicographically smallest
    return tuple(int(j) for j in perms[best]), float(costs[best])


def load_cost_csv(source) -> CostMatrix:
    """Read a square cost matrix from CSV (one row per line, no header, n rows)."""
    with _open_source(source) as fh:
        text = fh.read()
        # One C parse of the non-blank lines (csv ends a line at "\r", "\n" or "\r\n"),
        # its floats equal to float()'s bit for bit. It is skipped where it would warn
        # (no data) or strip "\x1c"-"\x1f" around a number, which float() rejects.
        lines = [line for line in text.replace("\r", "\n").split("\n") if line.strip()]
        if lines and not any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
            try:
                values = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, ndmin=2)
            except ValueError:
                values = None
            if np.shape(values) == (len(lines), len(lines)):
                return CostMatrix(values)
        # Any other file is walked as csv reads it, so errors name the same data row.
        fh.seek(0)
        rows = [(no, row) for no, row in enumerate(csv.reader(fh), 1) if any(map(str.strip, row))]
    if not rows:
        raise ModcodParseError("cost CSV contains no data rows")
    n = len(rows)
    values = np.empty((n, n))
    for i, (row_no, row) in enumerate(rows):
        if len(row) != n:
            raise ModcodParseError(f"expected {n} entries, got {len(row)}", row=row_no)
        try:
            values[i] = [float(cell) for cell in row]
        except ValueError as exc:
            raise ModcodParseError(str(exc), row=row_no) from None
    return CostMatrix(values)
