"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the reported statistics.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from hmgroup.channel_sim import (
    BeamModel,
    pair_probability_matrix,
    run_campaign,
    sample_receivers,
)
from hmgroup.cli import main as cli_main
from hmgroup.hungarian import hungarian_solve
from hmgroup.matching_core import (
    Assignment,
    CostMatrix,
    UnschedulableReceiverError,
    assignment_cost,
    brute_force_optimal_permutation,
    brute_force_optimal_symmetric,
    build_cost_matrix,
    count_strategies,
)
from hmgroup.strategies import largest_diff_matching, quasi_optimal_matching

from conftest import COUNTEREXAMPLE_3X3, enumerate_involutions, random_symmetric_cost


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")


def random_involution(rng: np.random.Generator, n: int) -> Assignment:
    order = list(rng.permutation(n))
    partner = list(range(n))
    while len(order) > 1:
        i = order.pop()
        if rng.random() < 0.5:
            j = order.pop(int(rng.integers(0, len(order))))
            partner[i], partner[j] = j, i
    return Assignment(tuple(partner))


def test_criterion_01_golden_three_by_three(counterexample):
    solution = hungarian_solve(counterexample)  # warm-up, result reused
    grouping, sym_cost = brute_force_optimal_symmetric(counterexample)
    best_total = _timed(
        lambda: (hungarian_solve(counterexample), brute_force_optimal_symmetric(counterexample))
    )
    gap = sym_cost / solution.cost - 1.0
    ok = (
        solution.cost == 8.0
        and not solution.is_symmetric
        and sym_cost == 9.0
        and gap == 0.125
        and best_total < 1e-3
    )
    report("1 golden 3x3", ok, f"runtime {best_total * 1e6:.0f} us")
    assert solution.cost == 8.0
    assert not solution.is_symmetric
    assert sym_cost == 9.0
    assert gap == 0.125
    assert grouping.partner in {(0, 2, 1), (2, 1, 0)}
    assert best_total < 1e-3, f"golden test took {best_total:.6f}s"


def _timed(fn) -> float:
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_02_solver_matches_permutation_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    checked = 0
    for n in (5, 6, 7, 8):
        for _ in range(100):
            c = random_symmetric_cost(rng, n)
            solution = hungarian_solve(c)
            _, oracle_cost = brute_force_optimal_permutation(c)
            assert abs(solution.cost - oracle_cost) <= 1e-9, (n, solution.cost, oracle_cost)
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 400 and elapsed < 30.0
    report("2 solver-oracle equivalence", ok, f"{checked} instances in {elapsed:.1f}s")
    assert ok


def test_criterion_03a_involution_counting():
    expected = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 8: 764, 10: 9496}
    start = time.perf_counter()
    for n, value in expected.items():
        assert count_strategies(n) == value
    for n in range(1, 11):
        seen = set()
        for grouping in enumerate_involutions(n):
            assert grouping.partner not in seen
            seen.add(grouping.partner)
        assert len(seen) == count_strategies(n), n
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report("3a involution enumeration matches recursion", ok, f"{elapsed:.1f}s")
    assert ok


def involution_count_closed_form(k: int) -> int:
    # groupings with j pairs: k! / (j! (k - 2j)! 2^j), summed over j
    return sum(
        math.factorial(k) // (math.factorial(j) * math.factorial(k - 2 * j) * 2**j)
        for j in range(k // 2 + 1)
    )


def test_criterion_03b_strategy_count_exponential_bound():
    # s_k >= 2^k fails for k <= 5 (s_5 = 26 < 32) and holds from s_6 = 76 >= 64 on:
    # s_{k+1} = s_k + k s_{k-1} >= 2^k + k 2^{k-1} >= 2^{k+1}.
    counts = {k: count_strategies(k) for k in range(5, 31)}
    mismatches = [k for k, s in counts.items() if s != involution_count_closed_form(k)]
    violations = [k for k in range(6, 31) if counts[k] < 2**k]
    boundary_ok = counts[5] == 26 < 2**5
    problems = []
    if mismatches:
        problems.append(f"closed form differs at k={mismatches}")
    if violations:
        problems.append(
            "bound violated at "
            + ", ".join(f"s_{k}={counts[k]} < {2**k}" for k in violations)
        )
    if not boundary_ok:
        problems.append(f"expected s_5=26 < 32 at the threshold, got s_5={counts[5]}")
    ok = not problems
    report("3b strategy count >= 2^k for k=6..30, s_5=26 < 32", ok, "; ".join(problems))
    assert ok, "; ".join(problems)


def test_criterion_04_objective_identity():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        single = rng.uniform(0.2, 5.0, size=n)
        pair_upper = np.triu(rng.uniform(0.2, 5.0, size=(n, n)), 1)
        pair = pair_upper + pair_upper.T
        values = np.diag(1.0 / single)
        iu, ju = np.triu_indices(n, k=1)
        values[iu, ju] = 1.0 / (2.0 * pair[iu, ju])
        values[ju, iu] = values[iu, ju]
        c = CostMatrix(values)
        grouping = random_involution(rng, n)
        independent = sum(1.0 / single[k] for k in grouping.singles())
        independent += sum(1.0 / pair[i, j] for i, j in grouping.pairs())
        got = assignment_cost(c, grouping)
        assert got == pytest.approx(independent, rel=1e-9), (n, got, independent)
    report("4 objective identity over 1000 instances", True)


def test_criterion_05_per_trial_ordering_chain(table, capacity_model):
    start = time.perf_counter()
    completed = 0
    for snr_max in (7.0, 10.0, 13.0):
        model = BeamModel(snr_max_db=snr_max, n_receivers=50, seed=500)
        for t in range(20):
            receivers = sample_receivers(replace(model, seed=model.seed + t))
            try:
                cost = build_cost_matrix(receivers, table, capacity_model)
            except UnschedulableReceiverError:
                continue
            completed += 1
            matching = quasi_optimal_matching(cost, receivers=receivers)
            r_bound = 1.0 / matching.upper_bound_cost
            r_quasi = 1.0 / matching.symmetric_cost
            r_ld = 1.0 / assignment_cost(cost, largest_diff_matching(receivers))
            r_ts = 1.0 / assignment_cost(cost, Assignment.identity(50))
            assert r_bound >= r_quasi - 1e-9
            assert r_quasi >= r_ld - 1e-9
            assert r_ld >= r_ts - 1e-9
    elapsed = time.perf_counter() - start
    ok = completed > 0 and elapsed < 120.0
    report("5 per-trial efficiency ordering", ok, f"{completed} trials in {elapsed:.1f}s")
    assert ok


def test_criterion_06_heuristic_quality(table, capacity_model):
    # exact gap and success-rate statistics depend on the pair-rate and
    # channel models, so only the regime is asserted: sub-1% median gap to
    # the upper bound and a success rate above 80%.
    beam = replace(BeamModel(), n_receivers=100)  # default beam otherwise
    gaps = []
    successes = 0
    skipped = 0
    for t in range(50):
        receivers = sample_receivers(replace(beam, seed=beam.seed + t))
        try:
            cost = build_cost_matrix(receivers, table, capacity_model)
        except UnschedulableReceiverError:
            skipped += 1
            continue
        matching = quasi_optimal_matching(cost, receivers=receivers)
        gaps.append(matching.gap_fraction)
        successes += matching.success
    completed = 50 - skipped
    median_gap = float(np.median(gaps))
    success_rate = successes / completed
    ok = median_gap < 0.01 and success_rate > 0.8
    report(
        "6 heuristic quality",
        ok,
        f"median gap {median_gap:.6f}, success rate {success_rate:.2%}, "
        f"{completed}/50 trials completed",
    )
    assert completed > 0
    assert median_gap < 0.01
    assert success_rate > 0.8


def test_criterion_07_quasi_optimal_beats_extreme_pairing(table, capacity_model):
    improved_config = None
    for snr_max in (7.0, 9.0, 13.0):
        model = BeamModel(snr_max_db=snr_max, n_receivers=40, seed=700)
        quasi_gains, ld_gains, strict = [], [], 0
        for t in range(12):
            receivers = sample_receivers(replace(model, seed=model.seed + t))
            try:
                cost = build_cost_matrix(receivers, table, capacity_model)
            except UnschedulableReceiverError:
                continue
            matching = quasi_optimal_matching(cost, receivers=receivers)
            r_ts = 1.0 / assignment_cost(cost, Assignment.identity(40))
            r_ld = 1.0 / assignment_cost(cost, largest_diff_matching(receivers))
            r_quasi = 1.0 / matching.symmetric_cost
            quasi_gains.append(r_quasi / r_ts - 1.0)
            ld_gains.append(r_ld / r_ts - 1.0)
            strict += r_quasi > r_ld + 1e-12
        if quasi_gains and np.mean(quasi_gains) >= np.mean(ld_gains) and strict >= 1:
            improved_config = (snr_max, float(np.mean(quasi_gains)), float(np.mean(ld_gains)))
            break
    ok = improved_config is not None
    detail = (
        f"snr_max={improved_config[0]}: mean gain {improved_config[1]:.4f} "
        f"vs {improved_config[2]:.4f}" if ok else "no configuration improved"
    )
    report("7 quasi-optimal vs extreme pairing", ok, detail)
    assert ok


def test_criterion_08_assignment_structure_statistics(table, capacity_model):
    model = BeamModel(snr_max_db=12.0, n_receivers=10, seed=800)
    summary = run_campaign(model, 20, table, capacity_model)
    matrix = summary.pair_probability
    sym_ok = np.array_equal(matrix, matrix.T)
    rows_ok = bool(np.abs(matrix.sum(axis=1) - 1.0).max() <= 1e-9)

    ld_samples, ts_samples = [], []
    for t in range(20):
        receivers = sample_receivers(replace(model, seed=model.seed + t))
        ld_samples.append((receivers, largest_diff_matching(receivers)))
        ts_samples.append((receivers, Assignment.identity(10)))
    anti_diagonal_ok = np.array_equal(
        pair_probability_matrix(ld_samples), np.fliplr(np.eye(10))
    )
    identity_ok = np.array_equal(pair_probability_matrix(ts_samples), np.eye(10))
    ok = sym_ok and rows_ok and anti_diagonal_ok and identity_ok
    report(
        "8 structure statistics",
        ok,
        f"symmetric={sym_ok} rows={rows_ok} anti-diagonal={anti_diagonal_ok} "
        f"identity={identity_ok}",
    )
    assert ok


def test_criterion_09_scale_sanity():
    rng = np.random.default_rng(9)
    dense = rng.random((500, 500))
    start = time.perf_counter()
    solution = hungarian_solve(dense)
    solve_elapsed = time.perf_counter() - start
    assert solution.cost > 0.0

    # many repeated values force the branch-and-bound to engage at scale
    quantized = np.round(rng.uniform(0.5, 2.0, size=(500, 500)), 2)
    quantized = np.triu(quantized) + np.triu(quantized, 1).T
    c = CostMatrix(quantized)
    start = time.perf_counter()
    matching = quasi_optimal_matching(c)
    quasi_elapsed = time.perf_counter() - start
    ok = solve_elapsed < 5.0 and quasi_elapsed < 300.0
    report(
        "9 scale sanity",
        ok,
        f"solve 500x500 {solve_elapsed:.2f}s, heuristic {quasi_elapsed:.1f}s "
        f"({matching.nodes} nodes, success={matching.success})",
    )
    assert solve_elapsed < 5.0
    assert quasi_elapsed < 300.0
    assert matching.symmetric_cost >= matching.upper_bound_cost - 1e-9


def test_criterion_10_cli_determinism(tmp_path, capsys):
    cost_path = tmp_path / "cost.csv"
    cost_path.write_text(
        "\n".join(",".join(str(v) for v in row) for row in COUNTEREXAMPLE_3X3) + "\n"
    )

    def run_twice(args: list[str], out: str | None):
        if out is None:
            cli_main(args)
            first = capsys.readouterr().out
            cli_main(args)
            return first, capsys.readouterr().out
        path = tmp_path / out
        cli_main(args + ["--out", str(path)])
        first = path.read_bytes()
        cli_main(args + ["--out", str(path)])
        return first, path.read_bytes()

    checks = {
        "count": run_twice(["count", "12"], None),
        "solve": run_twice(["solve", "--cost-csv", str(cost_path)], "solve.json"),
        "oracle": run_twice(["oracle", "--cost-csv", str(cost_path)], "oracle.json"),
        "simulate": run_twice(
            ["simulate", "--snr-max", "11", "--receivers", "6", "--trials", "4", "--seed", "5"],
            "simulate.json",
        ),
    }
    same = {name: a == b for name, (a, b) in checks.items()}
    pair_csv = tmp_path / "simulate_pair_probability.csv"
    first_csv = pair_csv.read_bytes()
    cli_main(
        ["simulate", "--snr-max", "11", "--receivers", "6", "--trials", "4",
         "--seed", "5", "--out", str(tmp_path / "simulate.json")]
    )
    same["simulate_pair_csv"] = pair_csv.read_bytes() == first_csv
    ok = all(same.values())
    report("10 CLI determinism", ok, ", ".join(f"{k}={v}" for k, v in same.items()))
    assert ok

    record = json.loads((tmp_path / "solve.json").read_text())
    assert record["upper_bound_cost"] == 8.0
