"""Tests for the deterministic assignment solver."""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from hmgroup.hungarian import hungarian_solve
from hmgroup.matching_core import (
    CostMatrix,
    brute_force_optimal_permutation,
    brute_force_optimal_symmetric,
)

from conftest import random_symmetric_cost


class TestCounterexample:
    def test_cost_and_asymmetry(self, counterexample):
        solution = hungarian_solve(counterexample)
        assert solution.cost == 8.0
        assert not solution.is_symmetric
        # both unconstrained optima are 3-cycles; the fixed scan order selects
        # the same one every time
        assert solution.permutation in {(2, 0, 1), (1, 2, 0)}
        assert hungarian_solve(counterexample).permutation == solution.permutation


class TestSmallFixtures:
    def test_diagonally_dominant_two_by_two(self):
        solution = hungarian_solve(np.array([[1.0, 5.0], [5.0, 1.0]]))
        assert solution.permutation == (0, 1)
        assert solution.cost == 2.0
        assert solution.is_symmetric

    def test_single_entry(self):
        solution = hungarian_solve(np.array([[0.5]]))
        assert solution.cost == 0.5

    def test_asymmetric_input_allowed(self):
        m = np.array([[1.0, 0.5, 9.0], [9.0, 9.0, 1.0], [9.0, 1.0, 9.0]])
        solution = hungarian_solve(m)  # optimum keeps row 0 on its diagonal
        assert solution.cost == 3.0
        assert solution.permutation == (0, 2, 1)


class TestInputValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            hungarian_solve(np.array([[1.0, -0.1], [0.2, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hungarian_solve(np.array([[np.inf, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            hungarian_solve(np.array([[np.nan]]))

    def test_rejects_non_square_and_empty(self):
        with pytest.raises(ValueError, match="square"):
            hungarian_solve(np.ones((2, 3)))
        with pytest.raises(ValueError, match="square"):
            hungarian_solve(np.ones((0, 0)))


class TestOptimality:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(100)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            c = random_symmetric_cost(rng, n)
            solution = hungarian_solve(c)
            _, oracle_cost = brute_force_optimal_permutation(c)
            assert solution.cost == pytest.approx(oracle_cost, abs=1e-9)
            perm = solution.permutation
            assert sorted(perm) == list(range(n))
            assert float(c.values[np.arange(n), perm].sum()) == pytest.approx(
                solution.cost, abs=1e-9
            )
            assert solution.is_symmetric == all(perm[j] == i for i, j in enumerate(perm))

    def test_matches_brute_force_on_asymmetric_instances(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            m = rng.uniform(0.0, 3.0, size=(n, n))
            solution = hungarian_solve(m)
            perms_cost = min(
                float(m[np.arange(n), np.array(p)].sum())
                for p in __import__("itertools").permutations(range(n))
            )
            assert solution.cost == pytest.approx(perms_cost, abs=1e-9)

    def test_matches_scipy_at_scale(self):
        rng = np.random.default_rng(102)
        m = rng.random((120, 120))
        ours = hungarian_solve(m)
        rows, cols = linear_sum_assignment(m)
        assert ours.cost == pytest.approx(float(m[rows, cols].sum()), abs=1e-9)

    def test_bounds_every_grouping_from_above(self):
        rng = np.random.default_rng(103)
        for _ in range(15):
            c = random_symmetric_cost(rng, 6)
            bound = 1.0 / hungarian_solve(c).cost
            _, sym_cost = brute_force_optimal_symmetric(c)
            assert bound >= 1.0 / sym_cost - 1e-9


class TestCovariance:
    def test_scaling_by_power_of_two_preserves_permutation(self):
        rng = np.random.default_rng(104)
        c = rng.uniform(0.5, 4.0, size=(9, 9))
        base = hungarian_solve(c)
        for lam in (0.5, 2.0, 4.0):
            scaled = hungarian_solve(lam * c)
            assert scaled.permutation == base.permutation
            assert scaled.cost == pytest.approx(lam * base.cost, rel=1e-12)

    def test_scaling_preserves_optimality(self):
        rng = np.random.default_rng(105)
        c = random_symmetric_cost(rng, 6)
        scaled = CostMatrix(3.0 * c.values)
        solution = hungarian_solve(scaled)
        _, oracle_cost = brute_force_optimal_permutation(scaled)
        assert solution.cost == pytest.approx(oracle_cost, abs=1e-9)

    def test_row_shift_moves_cost_by_constant(self):
        rng = np.random.default_rng(106)
        m = rng.integers(0, 20, size=(7, 7)).astype(float)
        base = hungarian_solve(m)
        shifted = m.copy()
        shifted[3, :] += 5.0
        moved = hungarian_solve(shifted)
        assert moved.cost == base.cost + 5.0
        # the returned permutation must still be optimal for the original
        original_cost = float(m[np.arange(7), np.array(moved.permutation)].sum())
        assert original_cost == pytest.approx(base.cost, abs=1e-9)


def test_determinism_across_calls():
    rng = np.random.default_rng(107)
    m = rng.random((30, 30))
    first = hungarian_solve(m)
    second = hungarian_solve(m.copy())
    assert first == second
