"""Output checks and the exact-optimum reference; never run inside a timed region.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _involution(partner_1based, n: int) -> np.ndarray | None:
    """0-based partner array, or None unless it is an involution of 1..n."""
    partner = np.asarray(partner_1based)
    if partner.shape != (n,) or partner.dtype.kind not in "iu":
        return None
    partner = partner - 1
    if (partner < 0).any() or (partner >= n).any():
        return None
    if not (partner[partner] == np.arange(n)).all():
        return None
    return partner


def check_solve(
    cost: np.ndarray,
    report: dict,
    exit_code: int,
    bound: float | None = None,
    optimum: float | None = None,
) -> list[str]:
    """Check one ``hmgroup solve`` report against the matrix it was run on.

    ``bound`` is an independently computed assignment optimum and ``optimum``
    the exact minimum-cost involution, when the caller has them.
    """
    n = cost.shape[0]
    rows = np.arange(n)
    problems = []
    if exit_code != (0 if report["success"] else 1):
        problems.append(f"exit code {exit_code} with success={report['success']}")
    partner = _involution(report["assignment"]["partner"], n)
    if partner is None:
        return problems + ["partner array is not a 1-based involution"]
    shipped = report["symmetric_cost"]
    if not _close(float(cost[rows, partner].sum()), shipped):
        problems.append("symmetric_cost does not match the partner array")
    if not _close(report["spectrum_efficiency"], 1.0 / shipped):
        problems.append("spectrum_efficiency is not 1/symmetric_cost")
    upper = report["upper_bound_cost"]
    if bound is not None and not _close(upper, bound):
        problems.append(f"upper_bound_cost {upper} is not the assignment optimum {bound}")
    if shipped < upper and not _close(shipped, upper):
        problems.append("symmetric_cost is below the upper bound")
    if optimum is not None and shipped < optimum and not _close(shipped, optimum):
        problems.append(f"symmetric_cost {shipped} is below the exact optimum {optimum}")
    for name, entry in report["strategies"].items():
        grouping = _involution(entry["partner"], n)
        if grouping is None:
            problems.append(f"{name} partner array is not a 1-based involution")
        elif not _close(float(cost[rows, grouping].sum()), entry["cost"]):
            problems.append(f"{name} cost does not match its partner array")
        if shipped > entry["cost"] and not _close(shipped, entry["cost"]):
            problems.append(f"symmetric_cost is above the {name} baseline")
    return problems


def check_campaign(record: dict, pair_probability: np.ndarray, exit_code: int) -> list[str]:
    """Check one ``hmgroup simulate`` summary and its pair-probability CSV."""
    summary = record["summary"]
    n = summary["n_receivers"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if summary["completed"] + len(summary["skipped"]) != summary["trials"]:
        problems.append("completed + skipped != trials")
    if pair_probability.shape != (n, n):
        return problems + [f"pair-probability matrix has shape {pair_probability.shape}"]
    if not np.array_equal(pair_probability, pair_probability.T):
        problems.append("pair-probability matrix is not symmetric")
    if not np.allclose(pair_probability.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
        problems.append("pair-probability rows do not sum to 1")
    gains = summary["gains"]
    chain = [gains[k]["mean"] for k in ("upper_bound", "quasi_optimal", "largest_diff")] + [0.0]
    if any(a < b - 1e-12 for a, b in zip(chain, chain[1:])):
        problems.append(f"mean gains out of order (upper_bound, quasi, largest_diff, 0): {chain}")
    return problems


def assignment_bound(cost: np.ndarray) -> float:
    """Unconstrained assignment optimum, from scipy's solver."""
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum())


def exact_optimum(cost: np.ndarray) -> float:
    """Minimum-cost involution of a symmetric matrix whose entries are multiples of 0.01.

    An involution costs sum(c_ii) minus the savings w_ij = c_ii + c_jj - 2 c_ij
    of its pairs, so the optimum is a maximum-weight matching on the savings
    (Edmonds' blossom algorithm). Only positive savings can appear in a
    maximum-weight matching, and integer weights keep the search exact.
    """
    import networkx as nx

    units = np.rint(cost * 100).astype(np.int64)
    if not np.allclose(units / 100, cost, rtol=0.0, atol=1e-12):
        raise ValueError("matrix entries are not multiples of 0.01")
    diag = np.diag(units)
    savings = diag[:, None] + diag[None, :] - 2 * units
    iu, ju = np.triu_indices(len(units), k=1)
    keep = savings[iu, ju] > 0
    graph = nx.Graph()
    graph.add_nodes_from(range(len(units)))
    graph.add_weighted_edges_from(
        zip(iu[keep].tolist(), ju[keep].tolist(), savings[iu, ju][keep].tolist())
    )
    matching = nx.max_weight_matching(graph)
    best = int(diag.sum()) - sum(int(savings[i, j]) for i, j in matching)
    return best / 100
