"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from check import check_solve, exact_optimum  # noqa: E402
from spans import self_times  # noqa: E402
from workloads import Campaign, BeamSolve, TiesSolve, cost_csv, ties_matrix  # noqa: E402

from hmgroup.cli import main as cli_main  # noqa: E402
from hmgroup.matching_core import CostMatrix, brute_force_optimal_symmetric  # noqa: E402


def first_inputs(workload, batches: int) -> list[bytes]:
    gen = workload.batches()
    ops = [op for _ in range(batches) for op in next(gen)]
    return [" ".join(op.args).encode() for op in ops] + [
        Path(arg).read_bytes() for op in ops for arg in op.args if arg.endswith(".csv")
    ]


@pytest.mark.parametrize("workload", [BeamSolve, TiesSolve, Campaign])
def test_generators_are_byte_identical_for_a_seed(workload, tmp_path):
    runs = []
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        inputs = first_inputs(workload(seed, tmp_path / name), batches=2)
        runs.append([x.replace(str(tmp_path / name).encode(), b"") for x in inputs])
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]


@pytest.mark.parametrize("seed", range(5))
def test_exact_optimum_matches_brute_force(seed):
    hundredths = np.random.default_rng(seed).integers(50, 201, size=(9, 9))
    cost = (np.triu(hundredths) + np.triu(hundredths, 1).T) / 100
    _, brute = brute_force_optimal_symmetric(CostMatrix(cost))
    assert exact_optimum(cost) == pytest.approx(brute, abs=1e-9)


def test_ties_pool_is_symmetric_in_hundredths():
    matrix = ties_matrix(3)
    assert np.array_equal(matrix, matrix.T)
    assert cost_csv(matrix) == cost_csv(ties_matrix(3))
    assert set(np.unique(np.rint(matrix * 100))) <= set(range(50, 201))


@pytest.fixture
def solved(tmp_path):
    cost = np.array(
        [[1.0, 0.3, 0.9, 0.9], [0.3, 1.0, 0.9, 0.9], [0.9, 0.9, 1.0, 0.4], [0.9, 0.9, 0.4, 1.0]]
    )
    path = tmp_path / "cost.csv"
    path.write_text(cost_csv(cost))
    out = tmp_path / "report.json"
    code = cli_main(["solve", "--cost-csv", str(path), "--out", str(out)])
    return cost, json.loads(out.read_text()), code


def test_checker_accepts_a_real_report(solved):
    cost, report, code = solved
    assert check_solve(cost, report, code, bound=1.4, optimum=1.4) == []


def test_checker_rejects_a_non_involution(solved):
    cost, report, code = solved
    report["assignment"]["partner"] = [2, 3, 1, 4]
    assert "partner array is not a 1-based involution" in check_solve(cost, report, code)


def test_checker_rejects_a_cost_below_the_bound(solved):
    cost, report, code = solved
    report["upper_bound_cost"] = report["symmetric_cost"] + 0.5
    assert "symmetric_cost is below the upper bound" in check_solve(cost, report, code)


def test_checker_rejects_a_cost_below_the_optimum(solved):
    cost, report, code = solved
    problems = check_solve(cost, report, code, optimum=1.5)
    assert problems == [f"symmetric_cost {report['symmetric_cost']} is below the exact optimum 1.5"]


def test_checker_rejects_a_cost_above_a_baseline(solved):
    cost, report, code = solved
    report["assignment"]["partner"] = [1, 2, 3, 4]
    report["symmetric_cost"] = 4.0
    report["spectrum_efficiency"] = 0.25
    problems = check_solve(cost, report, code)
    assert "symmetric_cost is above the largest_diff baseline" in problems


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 8.0, 0],
        ["e", 7.0, 9.0, 0],  # overlaps d: the union counts once
        ["f", 9.5, 11.0, 0],  # ends after its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 3.0, 2.0, 1.5])
