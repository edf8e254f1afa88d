"""Symmetric grouping strategies.

The quasi-optimal search bounds the cost matrix with an assignment solve. A
self-inverse solution is already the best grouping. Otherwise each cycle of
three or more receivers is repaired into alternating pairs (plus one single
on an odd cycle), and a best-first branch-and-bound on the assignment
relaxation (Carpaneto & Toth 1980, with involutions in place of tours) closes
the remaining gap. Plain time sharing and extreme-SNR pairing serve both as
baselines and as candidates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count
from typing import Sequence

import numpy as np

from .hungarian import REL_TOL, HungarianSolution, hungarian_solve
from .matching_core import Assignment, CostMatrix, Receiver, assignment_cost

__all__ = [
    "NODE_CAP", "Candidate", "MatchingReport", "snr_sorted_order",
    "largest_diff_matching", "quasi_optimal_matching",
]

NODE_CAP = 1000  # branch-and-bound nodes solved before the incumbent ships unproved


@dataclass(frozen=True)
class Candidate:
    """A grouping together with its cost on the matrix it was evaluated on."""

    assignment: Assignment
    cost: float


@dataclass(frozen=True)
class MatchingReport:
    """Outcome of the quasi-optimal search.

    ``upper_bound_cost`` is the unconstrained assignment optimum; ``lower_bound``
    the best bound proved on the best grouping's cost. ``source`` names the
    shipped candidate: ``bound``, ``repair``, ``branch_and_bound``,
    ``time_sharing`` or ``largest_diff``. ``success`` means the shipped grouping
    is proved optimal, which fails only when ``nodes`` reached ``NODE_CAP``.
    ``baselines`` holds the ``time_sharing`` and ``largest_diff`` groupings.
    """

    upper_bound_cost: float
    lower_bound: float
    symmetric_assignment: Assignment
    symmetric_cost: float
    gap_fraction: float
    source: str
    nodes: int
    success: bool
    baselines: dict[str, Candidate]


def _long_cycles(perm: Sequence[int]) -> list[np.ndarray]:
    # Cycles of three or more, each from its lowest vertex, in order of that vertex.
    seen, cycles = [perm[perm[i]] == i for i in range(len(perm))], []
    for i in range(len(perm)):
        if not seen[i]:
            cycle = [i]
            while perm[cycle[-1]] != i:
                cycle.append(perm[cycle[-1]])
                seen[cycle[-1]] = True
            cycles.append(np.array(cycle))
    return cycles


def _repaired(m: np.ndarray, perm: Sequence[int], cycles: list[np.ndarray]) -> np.ndarray:
    """Partner array of an involution from ``perm``: 1- and 2-cycles kept, each of its
    long ``cycles`` split into its cheapest alternating pairs, one single if odd."""
    partner = np.array(perm, dtype=np.intp)
    for cycle in cycles:
        k, nxt = len(cycle), np.roll(cycle, -1)
        pair = m[cycle, nxt] + m[nxt, cycle]  # pair t joins cycle[t] and cycle[t + 1]
        if k % 2 == 0:
            first = int(pair[1::2].sum() < pair[0::2].sum())
        else:
            # Single cycle[t] plus pairs t+1, t+3, ..., t+k-2: stride-2 prefix sums
            # over the doubled cycle give all k options in O(k).
            prefix = np.concatenate([[0.0, 0.0], pair, pair])
            prefix[0::2], prefix[1::2] = prefix[0::2].cumsum(), prefix[1::2].cumsum()
            single = int(np.argmin(m[cycle, cycle] + prefix[k : 2 * k] - prefix[1 : k + 1]))
            first, k = single + 1, k - 1
            partner[cycle[single]] = cycle[single]
        ring = np.roll(cycle, -first)[:k]
        partner[ring[0::2]], partner[ring[1::2]] = ring[1::2], ring[0::2]
    return partner


def _repair(c: CostMatrix, perm: Sequence[int]) -> Candidate:
    """``_repaired`` on all of ``perm``'s long cycles, with its cost on ``c``."""
    grouping = Assignment(tuple(_repaired(c.values, perm, _long_cycles(perm)).tolist()))
    return Candidate(grouping, assignment_cost(c, grouping))


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


def _node_bound(diag: np.ndarray, solution: HungarianSolution) -> float:
    # At odd n every grouping leaves some s single, so the duals, feasible and
    # tight on the assignment, bound it by the cost plus the least reduced
    # diagonal entry c_ss - u_s - v_s (Edmonds' odd-set inequality on all n).
    slack = max(0.0, float((diag - solution.u - solution.v).min()))
    return solution.cost + slack * (len(diag) % 2)


def _branch_and_bound(
    c: CostMatrix, base: HungarianSolution, best: Candidate
) -> tuple[Candidate, float, int]:
    """Best grouping, a lower bound within ``REL_TOL`` of it unless ``NODE_CAP``
    nodes were solved, and the nodes solved.

    A node forbids some pairs and forces others. Its matrix is ``c`` with a
    finite ``big`` on the excluded entries (the diagonal is never forbidden, so
    every node has a grouping), solved warm from its parent. An involution
    settles a node; any other offers its repair and branches on the first arc
    {i, j} of its shortest long cycle. Equal bounds pop newest first.
    """
    big = 4.0 * c.n * float(c.values.max()) + 1.0
    heap, order = [], count(0, -1)

    def branch(solution, cycles, key, forbidden, forced):
        cycle = min(cycles, key=len)
        arc = (int(cycle[0]), int(cycle[1]))
        heapq.heappush(heap, (key, next(order), forbidden + (arc,), forced, solution))
        heapq.heappush(heap, (key, next(order), forbidden, forced + (arc,), solution))

    branch(base, _long_cycles(base.permutation), _node_bound(np.diag(c.values), base), (), ())
    nodes = 0
    while heap and best.cost > heap[0][0] * (1.0 + REL_TOL) and nodes < NODE_CAP:
        parent_key, _, forbidden, forced, parent = heapq.heappop(heap)
        nodes += 1
        m = c.values.copy()
        for i, j in forbidden:
            m[i, j] = m[j, i] = big
        for i, j in forced:
            m[[i, j]] = m[:, [i, j]] = big
            m[i, j] = m[j, i] = c.values[i, j]
        solution = hungarian_solve(m, start=parent)
        key = max(parent_key, _node_bound(np.diag(m), solution))
        if best.cost <= key * (1.0 + REL_TOL):
            continue
        cycles = _long_cycles(solution.permutation)  # none on an involution
        partner = _repaired(c.values, solution.permutation, cycles)
        if cycles:
            branch(solution, cycles, key, forbidden, forced)
        cost = float(c.values[np.arange(c.n), partner].sum())  # as assignment_cost
        if cost < best.cost:  # a tie keeps the incumbent
            best = Candidate(Assignment(tuple(partner.tolist())), cost)
    return best, min(best.cost, heap[0][0]) if heap else best.cost, nodes


def quasi_optimal_matching(
    c: CostMatrix, *, receivers: Sequence[Receiver] | None = None
) -> MatchingReport:
    """Best grouping by the bound solve, cycle repair and branch-and-bound.

    Solves the matrix first, offering the SNR-order rotation as the guess: that
    cost is the upper bound, and if the solution is already self-inverse it is
    optimal among groupings and shipped. Otherwise its repair is the incumbent,
    proved optimal when within ``REL_TOL`` of the single-out bound at odd n,
    and else improved and proved by ``_branch_and_bound``. The cheapest of the
    search's groupings and the two baselines is shipped, ties going to the
    smaller partner array. A bound above the shipped cost by at most
    ``REL_TOL`` relative is rounding and is lowered to it; a larger one raises.
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
    nodes = 0
    if base.is_symmetric:
        grouping = Assignment(base.permutation)
        found, lower = {"bound": Candidate(grouping, assignment_cost(c, grouping))}, base.cost
    else:
        found = {"repair": _repair(c, base.permutation), **baselines}
        lower = _node_bound(np.diag(c.values), base)
        start = min(found.values(), key=lambda pick: pick.cost)
        if start.cost > lower * (1.0 + REL_TOL):
            # An unimproved incumbent ties itself and keeps its earlier name.
            found["branch_and_bound"], lower, nodes = _branch_and_bound(c, base, start)
    source = min(found, key=lambda name: (found[name].cost, found[name].assignment.partner))
    best = found[source]
    if best.cost < base.cost * (1.0 - REL_TOL):
        raise RuntimeError(
            f"grouping cost {best.cost!r} is below the assignment optimum {base.cost!r}"
        )
    bound = min(base.cost, best.cost)
    return MatchingReport(
        upper_bound_cost=bound,
        lower_bound=min(max(lower, bound), best.cost),
        symmetric_assignment=best.assignment,
        symmetric_cost=best.cost,
        gap_fraction=best.cost / bound - 1.0,
        source=source,
        nodes=nodes,
        success=best.cost <= lower * (1.0 + REL_TOL),
        baselines=baselines,
    )
