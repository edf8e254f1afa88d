"""Symmetric grouping strategies.

The quasi-optimal heuristic re-solves Gaussian-perturbed copies of the cost
matrix until the assignment solver happens to return a self-inverse
permutation, then keeps the best grouping found; plain time sharing and
extreme-SNR pairing serve both as baselines and as fallback candidates, so a
grouping is always returned even when every perturbation attempt fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hungarian import hungarian_solve
from .matching_core import Assignment, CostMatrix, Receiver, assignment_cost

__all__ = [
    "PerturbConfig",
    "Candidate",
    "MatchingReport",
    "perturb",
    "snr_sorted_order",
    "largest_diff_matching",
    "quasi_optimal_matching",
]


@dataclass(frozen=True)
class PerturbConfig:
    """Perturbation-loop knobs: noise scale, retry budget, RNG seed."""

    sigma: float = 1e-3
    max_retries: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be >= 1, got {self.max_retries}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class Candidate:
    """A grouping together with its cost on the matrix it was evaluated on."""

    assignment: Assignment
    cost: float


@dataclass(frozen=True)
class MatchingReport:
    """Outcome of the quasi-optimal search.

    ``upper_bound_cost`` is the unconstrained assignment optimum, which no
    grouping can undercut. ``success`` records whether a perturbation attempt
    (or the unperturbed solve itself) produced a self-inverse solution; the
    best grouping is reported either way, falling back to the baselines.
    ``baselines`` holds the ``time_sharing`` and ``largest_diff`` groupings
    with their costs, evaluated once here for every caller.
    """

    upper_bound_cost: float
    symmetric_assignment: Assignment
    symmetric_cost: float
    gap_fraction: float
    retries_used: int
    success: bool
    baselines: dict[str, Candidate]


def perturb(c: CostMatrix, sigma: float, seed: int | np.random.Generator) -> CostMatrix:
    """Symmetric Gaussian perturbation of a cost matrix.

    Upper-triangle entries (diagonal included) are drawn i.i.d. from
    N(0, sigma^2) and mirrored; entries pushed negative are clamped to zero so
    the result stays solvable. The input matrix is not modified. ``seed`` is
    an integer seed or a ``Generator``, which the draw advances.
    """
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be finite and positive, got {sigma}")
    n = c.n
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=n * (n + 1) // 2)
    eps = np.zeros((n, n))
    eps[np.triu(np.ones((n, n), dtype=bool))] = noise  # row-major, as triu_indices
    eps += np.triu(eps, 1).T  # mirror: the lower triangle was 0
    return CostMatrix(np.maximum(c.values + eps, 0.0))


def _pair_extremes(order: Sequence[int]) -> Assignment:
    # Pair the k-th entry of the given ordering with the k-th from the end;
    # for odd lengths the median entry stays single.
    partner = np.empty(len(order), dtype=np.intp)
    partner[order] = order[::-1]
    return Assignment(tuple(partner.tolist()))


def _ascending_order(keys) -> list[int]:
    # Positions sorted by ascending key; equal keys keep position order.
    return np.argsort(np.asarray(keys, dtype=np.float64), kind="stable").tolist()


def snr_sorted_order(receivers: Sequence[Receiver]) -> list[int]:
    """Positions sorted by ascending SNR, ties by original position."""
    return _ascending_order([r.snr_db for r in receivers])


def largest_diff_matching(receivers: Sequence[Receiver]) -> Assignment:
    """Pair the weakest receiver with the strongest, second weakest with
    second strongest, and so on; with an odd count the median stays single.

    The returned assignment is over positions in the input list. SNR ties
    keep the original list order.
    """
    if not receivers:
        raise ValueError("at least one receiver required")
    return _pair_extremes(snr_sorted_order(receivers))


def quasi_optimal_matching(
    c: CostMatrix, cfg: PerturbConfig, *, receivers: Sequence[Receiver] | None = None
) -> MatchingReport:
    """Best grouping found via the perturbation heuristic plus baselines.

    Solves the unperturbed matrix first, offering the SNR-order rotation as the
    guess: that cost is the upper bound, and if the solution is already
    self-inverse it is optimal among groupings and shipped. Otherwise up to
    ``cfg.max_retries`` perturbed copies (all drawn from one generator seeded
    ``cfg.seed``) are solved, each warm-started from the bound solve, until one
    yields a self-inverse permutation, evaluated on the original matrix; the
    cheapest of that hit and the two baselines is shipped, ties going to the
    smaller partner array. A bound above the shipped cost by at most 1e-12
    relative is rounding and is lowered to it; a larger excess raises.
    """
    # True SNR order when receivers are known. Otherwise descending diagonal:
    # diagonal entries are inverse single rates, so that is ascending rate,
    # the closest stand-in for SNR order; equal entries keep position order.
    if receivers is None:
        order = _ascending_order(-np.diag(c.values))
    elif len(receivers) != c.n:
        raise ValueError(f"got {len(receivers)} receivers for a {c.n}x{c.n} matrix")
    else:
        order = snr_sorted_order(receivers)
    groupings = {"time_sharing": Assignment.identity(c.n), "largest_diff": _pair_extremes(order)}
    baselines = {name: Candidate(g, assignment_cost(c, g)) for name, g in groupings.items()}
    # Sorted position k takes position (k + ceil(n/2)) mod n's column: the
    # certified optimum on beam populations, whose sorted costs are Monge.
    guess = np.empty(c.n, dtype=np.intp)
    guess[order] = np.roll(order, -((c.n + 1) // 2))
    base = hungarian_solve(c, guess=guess)
    if base.cost <= 0.0:
        raise ValueError("optimal assignment cost is zero; scheduling costs must be positive")
    candidates = [] if base.is_symmetric else list(baselines.values())
    solution = base
    retries_used = 0
    rng = np.random.default_rng(cfg.seed)
    while not solution.is_symmetric and retries_used < cfg.max_retries:
        retries_used += 1
        solution = hungarian_solve(perturb(c, cfg.sigma, rng), start=base)
    if solution.is_symmetric:
        grouping = Assignment(solution.permutation)
        candidates.append(Candidate(grouping, assignment_cost(c, grouping)))
    best = min(candidates, key=lambda pick: (pick.cost, pick.assignment.partner))
    if best.cost < base.cost * (1.0 - 1e-12):
        raise RuntimeError(
            f"grouping cost {best.cost!r} is below the assignment optimum {base.cost!r}"
        )
    bound = min(base.cost, best.cost)
    return MatchingReport(
        upper_bound_cost=bound,
        symmetric_assignment=best.assignment,
        symmetric_cost=best.cost,
        gap_fraction=best.cost / bound - 1.0,
        retries_used=retries_used,
        success=solution.is_symmetric,
        baselines=baselines,
    )
