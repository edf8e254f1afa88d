"""Tests for the deterministic assignment solver."""

import hashlib
import itertools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from hmgroup import BeamModel, HierRateModel, default_modcod_table, sample_receivers
from hmgroup.hungarian import REL_TOL, _certify, _solution, hungarian_solve
from hmgroup.matching_core import (
    CostMatrix,
    UnschedulableReceiverError,
    brute_force_optimal_permutation,
    brute_force_optimal_symmetric,
    build_cost_matrix,
)
from hmgroup.strategies import snr_sorted_order

from conftest import hundredths_cost, perturb, random_symmetric_cost


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


def beam_costs(n: int, seeds=range(12)):
    """Cost matrices of schedulable 12 dB beam populations, with their SNR rotations.

    The rotation sends sorted position k to position (k + ceil(n/2)) mod n.
    """
    table, model = default_modcod_table(), HierRateModel()
    for seed in seeds:
        receivers = sample_receivers(BeamModel(snr_max_db=12.0, n_receivers=n, seed=seed))
        try:
            c = build_cost_matrix(receivers, table, model)
        except UnschedulableReceiverError:
            continue
        order = np.array(snr_sorted_order(receivers))
        rotation = np.empty(n, dtype=np.intp)
        rotation[order] = order[(np.arange(n) + (n + 1) // 2) % n]
        yield c, rotation


def oracle_optimum(m: np.ndarray) -> tuple[tuple[int, ...], float]:
    """A minimum-cost permutation and its cost: brute force up to n = 7, scipy above."""
    if len(m) <= 7:
        # the oracle reads only ``values`` and ``n``, so it takes any square matrix
        return brute_force_optimal_permutation(SimpleNamespace(values=m, n=len(m)))
    rows, cols = linear_sum_assignment(m)
    return tuple(cols.tolist()), float(m[rows, cols].sum())


def cycle_length(perm) -> int:
    """Length of the permutation's cycle through 0."""
    j, length = perm[0], 1
    while j != 0:
        j, length = perm[j], length + 1
    return length


def assert_duals_prove(c: np.ndarray, solution) -> None:
    """Feasible duals, tight on the permutation, summing to the cost."""
    tol = 1e-12 * c.max()
    slack = c - solution.u[:, None] - solution.v[None, :]
    assert slack.min() >= -tol
    rows = np.arange(c.shape[0])
    assert np.abs(slack[rows, np.array(solution.permutation)]).max() <= tol
    assert solution.u.sum() + solution.v.sum() == pytest.approx(solution.cost, rel=1e-12)


def assert_bellman_ford_potentials(c: np.ndarray, guess: np.ndarray) -> None:
    """The certificate's column duals are the guess's shortest-path potentials:
    plain Jacobi rounds from a zero start over its residual column graph."""
    n = len(guess)
    row_of = np.argsort(guess)
    w = c[row_of] - c[row_of, np.arange(n)][:, None]
    tol = REL_TOL * float(c[row_of, np.arange(n)].sum()) / n
    v = np.zeros(n)
    for _ in range(n + 1):
        lowered = np.minimum(v, (v[:, None] + w).min(axis=0))
        if np.array_equal(lowered, v):
            break
        v = lowered
    solution = _certify(c, guess)
    assert solution is not None and solution.permutation == tuple(guess.tolist())
    assert np.abs(solution.v - v).max() <= tol


def certify_reference(cost: np.ndarray, guess: np.ndarray):
    """``_certify`` as it was before it reused its buffers: ``w`` built from a
    fresh difference, and every proof round, the first included, copying its
    rows of ``w`` into the buffer. The reference the certificate must match bit
    for bit."""
    n = cost.shape[0]
    row_of = np.argsort(guess)
    w = cost[row_of] - cost[row_of, np.arange(n)][:, None]
    tol = REL_TOL * float(cost[row_of, np.arange(n)].sum()) / n
    buf = np.empty((n, n))
    if (np.add(w, w.T, out=buf) < -tol).any():
        return None
    v = w.min(axis=0)
    for _ in range(n):
        before = v.copy()
        for sign in (-1.0, 1.0):
            seq = np.argsort(sign * v, kind="stable")
            chain = np.concatenate(([0.0], w[seq[:-1], seq[1:]].cumsum()))
            v[seq] = np.minimum(v[seq], np.minimum.accumulate(v[seq] - chain) + chain)
        if not (v < before - tol).any():
            break
    changed = np.arange(n)
    for _ in range(n + 1):
        part = buf[: changed.size]
        np.take(w, changed, axis=0, out=part)
        part += v[changed, None]
        best = part.min(axis=0)
        changed = np.flatnonzero(best < v - tol)
        if not changed.size:
            return _solution(cost, guess, v)
        v[changed] = best[changed]
    return None


class TestCertificate:
    @pytest.mark.parametrize("n", [2, 3, 40, 41])
    def test_beam_rotation_is_certified_optimal(self, n):
        checked = 0
        for c, rotation in beam_costs(n):
            assert _certify(c.values, rotation) is not None
            solution = hungarian_solve(c, guess=rotation)
            assert solution.permutation == tuple(rotation.tolist())
            assert solution.cost == pytest.approx(hungarian_solve(c).cost, rel=1e-12)
            assert_duals_prove(c.values, solution)
            if n % 2:
                assert cycle_length(solution.permutation) == n
            else:
                assert solution.is_symmetric
            checked += 1
        assert checked >= 4

    @pytest.mark.parametrize("n", [499, 500])
    def test_rotation_is_certified_at_benchmark_size(self, n):
        checked = 0
        for c, rotation in beam_costs(n, seeds=range(6)):
            solution = _certify(c.values, rotation)
            assert solution is not None
            assert solution.permutation == tuple(rotation.tolist())
            rows, cols = linear_sum_assignment(c.values)
            assert solution.cost == pytest.approx(float(c.values[rows, cols].sum()), rel=1e-12)
            assert_duals_prove(c.values, solution)
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("n", [121, 499, 500])
    def test_certificate_duals_are_the_shortest_path_potentials(self, n):
        checked = 0
        for c, rotation in beam_costs(n, seeds=range(6)):
            assert_bellman_ford_potentials(c.values, rotation)
            checked += 1
        assert checked >= 2

    @pytest.mark.parametrize("n", [121, 499, 500])
    def test_certificate_matches_the_reference(self, n):
        checked = 0
        for c, rotation in beam_costs(n, seeds=range(6)):
            got, want = _certify(c.values, rotation), certify_reference(c.values, rotation)
            assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
            checked += 1
        assert checked >= 2
        # Off the chain the proof rounds lower columns; a shuffled guess fails both.
        m = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, n))
        optimum = np.array(hungarian_solve(m).permutation)
        got, want = _certify(m, optimum), certify_reference(m, optimum)
        assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
        shuffled = np.random.default_rng(n).permutation(n)
        assert _certify(m, shuffled) is None and certify_reference(m, shuffled) is None

    def test_certificate_duals_off_the_chain(self):
        # The shortest-path tree of a random matrix's optimum is no chain in
        # potential order, so the Bellman-Ford proof does most of the work.
        m = np.random.default_rng(110).uniform(0.0, 1.0, size=(200, 200))
        assert_bellman_ford_potentials(m, np.array(hungarian_solve(m).permutation))

    def test_rotation_through_a_rounded_zero_cost_cycle_is_certified(self):
        # The rotation ties the optimum here, but a zero-cost cycle of its
        # residual graph sums to a tiny negative in floating point. The
        # relative tolerance accepts it instead of running the O(n^3) solve.
        ((c, rotation),) = beam_costs(499, seeds=[8])
        assert _certify(c.values, rotation) is not None
        solution = hungarian_solve(c, guess=rotation)
        assert solution.permutation == tuple(rotation.tolist())
        assert_duals_prove(c.values, solution)
        rows, cols = linear_sum_assignment(c.values)
        assert solution.cost == pytest.approx(float(c.values[rows, cols].sum()), rel=1e-12)

    @given(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(1, 200), min_size=n * n, max_size=n * n),
                st.permutations(range(n)),
                st.booleans(),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_guess_gives_the_optimum(self, drawn):
        entries, guess, offer_optimum = drawn
        n = len(guess)
        m = np.array(entries, dtype=float).reshape(n, n) / 100
        c = CostMatrix(np.triu(m) + np.triu(m, 1).T)
        optimum, oracle_cost = oracle_optimum(c.values)
        solution = hungarian_solve(c, guess=optimum if offer_optimum else guess)
        assert solution.cost == pytest.approx(oracle_cost, rel=1e-12)
        assert_duals_prove(c.values, solution)

    def test_wrong_guess_on_counterexample_is_the_plain_solve(self, counterexample):
        plain = hungarian_solve(counterexample)
        for guess in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:  # groupings, none optimal
            guessed = hungarian_solve(counterexample, guess=guess)
            assert guessed == plain
            assert np.array_equal(guessed.u, plain.u) and np.array_equal(guessed.v, plain.v)

    def test_wrong_guess_on_ties_is_the_plain_solve(self):
        m = np.random.default_rng(108).integers(50, 201, (60, 60)) / 100
        c = CostMatrix(np.triu(m) + np.triu(m, 1).T)
        order = np.argsort(-np.diag(c.values), kind="stable")
        rotation = np.empty(60, dtype=np.intp)
        rotation[order] = np.roll(order, -30)
        plain = hungarian_solve(c)
        assert float(c.values[np.arange(60), rotation].sum()) > plain.cost
        guessed = hungarian_solve(c, guess=rotation)
        assert guessed == plain
        assert np.array_equal(guessed.u, plain.u) and np.array_equal(guessed.v, plain.v)

    def test_guess_no_two_exchange_improves_is_the_plain_solve(self):
        # The guess passes the 2-exchange test, so the prefix scans and the
        # vectorized rounds run, but it is not optimal.
        m = np.random.default_rng(1).integers(1, 20, (6, 6)) / 10
        c = np.triu(m) + np.triu(m, 1).T
        guess, rows = np.array([4, 2, 1, 5, 0, 3]), np.arange(6)
        on_guess = c[rows, guess]
        swapped = c[rows[:, None], guess[None, :]] + c[rows[None, :], guess[:, None]]
        assert (swapped >= on_guess[:, None] + on_guess[None, :]).all()
        plain = hungarian_solve(c)
        assert on_guess.sum() > plain.cost
        guessed = hungarian_solve(c, guess=guess)
        assert guessed == plain
        assert np.array_equal(guessed.u, plain.u) and np.array_equal(guessed.v, plain.v)

    def test_guess_must_be_a_permutation(self, counterexample):
        for guess in [(0, 0, 1), (0, 1), (0, 1, 3)]:
            with pytest.raises(ValueError, match="permutation"):
                hungarian_solve(counterexample, guess=guess)


class TestDuals:
    def test_both_paths_return_proving_duals(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            m = rng.uniform(0.0, 3.0, size=(n, n))
            plain = hungarian_solve(m)
            assert_duals_prove(m, plain)
            certified = _certify(m, np.array(plain.permutation))
            assert certified is not None and certified == plain
            assert_duals_prove(m, certified)

    def test_duals_on_beam_populations(self):
        for c, rotation in beam_costs(41, seeds=range(3)):
            assert_duals_prove(c.values, hungarian_solve(c))
            assert_duals_prove(c.values, hungarian_solve(c, guess=rotation))

    @given(
        st.integers(min_value=1, max_value=40),
        st.lists(st.integers(1, 200), min_size=1, max_size=5, unique=True),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_duals_on_tie_heavy_matrices(self, n, hundredths, seed, symmetric):
        # A handful of distinct entries makes exact ties in the path lengths
        # common, which is where a lazily moved dual would go wrong.
        m, other = np.random.default_rng(seed).choice(hundredths, size=(2, n, n)) / 100
        if symmetric:
            m, other = (np.triu(x) + np.triu(x, 1).T for x in (m, other))
        rows, cols = linear_sum_assignment(m)
        for solution in [hungarian_solve(m), hungarian_solve(m, start=hungarian_solve(other))]:
            assert solution.cost == pytest.approx(float(m[rows, cols].sum()), rel=1e-12)
            assert_duals_prove(m, solution)

    def test_duals_do_not_take_part_in_equality(self):
        solution = hungarian_solve(np.array([[1.0, 5.0], [5.0, 1.0]]))
        assert solution == replace(solution, u=solution.u + 1.0, v=solution.v - 1.0)


class TestWarmStart:
    @given(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(1, 200), min_size=2 * n * n, max_size=2 * n * n),
                st.booleans(),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_any_start_gives_the_optimum(self, drawn):
        n, entries, symmetric = drawn
        m, other = np.array(entries, dtype=float).reshape(2, n, n) / 100
        if symmetric:
            m, other = (np.triu(x) + np.triu(x, 1).T for x in (m, other))
        solution = hungarian_solve(m, start=hungarian_solve(other))
        _, oracle_cost = oracle_optimum(m)
        assert solution.cost == pytest.approx(oracle_cost, rel=1e-12)
        assert_duals_prove(m, solution)

    def test_start_must_solve_a_matrix_of_the_same_size(self, counterexample):
        start = hungarian_solve(counterexample)
        for wrong in [
            hungarian_solve(np.eye(2)),
            replace(start, permutation=start.permutation[:2]),
            replace(start, v=start.v[:2]),
        ]:
            with pytest.raises(ValueError, match="3x3"):
                hungarian_solve(counterexample, start=wrong)
        for permutation in [(0, 0, 0), (0, 1, 5), (-1, 0, 1)]:  # right size, no permutation
            with pytest.raises(ValueError, match="3x3"):
                hungarian_solve(np.ones((3, 3)), start=replace(start, permutation=permutation))

    def test_warm_and_cold_agree_on_perturbed_copies(self):
        # A symmetric noisy copy without clamped entries has at most one optimal
        # involution, so an involutive optimum cannot depend on the start.
        (beam, rotation), = beam_costs(121, seeds=[0])
        m = np.random.default_rng(110).integers(50, 201, (200, 200)) / 100
        ties = CostMatrix(np.triu(m) + np.triu(m, 1).T)
        rng, hits = np.random.default_rng(111), 0
        bases = [hungarian_solve(beam, guess=rotation), hungarian_solve(ties)]
        for c, base in zip([beam, ties], bases):
            for _ in range(10):
                copy = perturb(c, 1e-3, rng)
                cold, warm = hungarian_solve(copy), hungarian_solve(copy, start=base)
                assert warm.is_symmetric == cold.is_symmetric
                assert warm.cost == pytest.approx(cold.cost, rel=1e-12)
                if cold.is_symmetric:
                    assert warm.permutation == cold.permutation
                hits += cold.is_symmetric
        assert hits > 0  # the permutations were compared at least once


def eager_solve(cost: np.ndarray, start=None):
    """The row-insertion loop as it was before predecessors became lazy: every
    strict improvement of a column's path length records the scanning column as
    its predecessor. The reference the solver must match bit for bit."""
    n = cost.shape[0]
    col_row = np.full(n + 1, n, dtype=np.intp)
    u, v = np.zeros(n), np.zeros(n)
    rows = range(n)
    if start is not None:
        keep = np.asarray(start.permutation, dtype=np.intp)
        v = np.array(start.v, dtype=float)
        u = (cost - v).min(axis=1)
        tight = cost[np.arange(n), keep] - u - v[keep] <= 0.0
        col_row[keep[tight]] = np.flatnonzero(tight)
        rows = np.flatnonzero(~tight).tolist()
    prev_col = np.zeros(n, dtype=np.intp)
    for row in rows:
        col_row[n] = row
        dist = np.full(n, np.inf)
        v_open = v.copy()
        scanned, reach = [], []
        i0, j0, d = row, n, 0.0
        while True:
            path = np.subtract(cost[i0], v_open)
            path += d - u[i0]
            better = path < dist
            prev_col[better] = j0
            np.minimum(dist, path, out=dist)
            j0 = int(dist.argmin())
            d = dist[j0]
            if col_row[j0] == n:
                break
            scanned.append(j0)
            reach.append(d)
            dist[j0], v_open[j0] = np.inf, -np.inf
            i0 = col_row[j0]
        u[row] += d
        gain = d - np.array(reach)
        u[col_row[scanned]] += gain
        v[scanned] -= gain
        while j0 != n:
            j_prev = int(prev_col[j0])
            col_row[j0] = col_row[j_prev]
            j0 = j_prev
    row_col = np.empty(n, dtype=np.intp)
    row_col[col_row[:n]] = np.arange(n)
    return _solution(cost, row_col, v)


class TestReferenceLoop:
    @staticmethod
    def node_matrices(m: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
        # A branch-and-bound node's edits: forbid one pair, or force it.
        n = m.shape[0]
        big = 4.0 * n * float(m.max()) + 1.0
        i, j = rng.choice(n, 2, replace=False)
        forbid, force = m.copy(), m.copy()
        forbid[i, j] = forbid[j, i] = big
        force[[i, j]] = force[:, [i, j]] = big
        force[i, j], force[j, i] = m[i, j], m[j, i]
        return [forbid, force]

    def assert_matches_reference(self, m: np.ndarray, rng: np.random.Generator) -> None:
        cold = hungarian_solve(m)
        pairs = [(cold, eager_solve(m))]
        if m.shape[0] > 1:
            pairs += [
                (hungarian_solve(node, start=cold), eager_solve(node, start=cold))
                for node in self.node_matrices(m, rng)
            ]
        for got, want in pairs:
            assert np.array_equal(got.permutation, want.permutation)
            assert np.array_equal(got.cost, want.cost)
            assert np.array_equal(got.u, want.u)
            assert np.array_equal(got.v, want.v)

    @pytest.mark.parametrize("kind", ["integers", "hundredths", "uniform"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_cold_and_warm_solves_match_the_eager_loop(self, kind, symmetric):
        rng = np.random.default_rng(["integers", "hundredths", "uniform"].index(kind))
        for n in range(1, 41):
            if kind == "integers":
                m = rng.integers(1, 4, (n, n)).astype(float)
            elif kind == "hundredths":
                m = rng.integers(50, 201, (n, n)) / 100
            else:
                m = rng.uniform(0.1, 2.0, (n, n))
            if symmetric:
                m = np.triu(m) + np.triu(m, 1).T
            self.assert_matches_reference(m, rng)

    @pytest.mark.parametrize("seed", [17, 22])
    def test_benchmark_size_matches_the_eager_loop(self, seed):
        self.assert_matches_reference(hundredths_cost(seed, 200).values, np.random.default_rng(seed))


class TestTieResolution:
    # SHA-256 of (permutation, repr(cost)) from cold solves: which of the tied
    # optima the scan order returns is part of the output contract.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (300, "385b2548f90f59e81e677214dcd6021d64bc863240bf491d7f8b5b0b097560e5"),
            (301, "e372755a0689e20b9b1836734ba8662c0246bc1c1f149e42a5093064ebe32a6a"),
            (302, "d5bd777e614c879dc923f7cedc142871ad85eb0222cc39bcf9104133a2259719"),
        ],
    )
    def test_hundredths_optimum_is_pinned(self, seed, digest):
        m = np.random.default_rng(seed).integers(50, 201, (200, 200)) / 100
        solution = hungarian_solve(np.triu(m) + np.triu(m, 1).T)
        payload = repr((solution.permutation, solution.cost)).encode()
        assert hashlib.sha256(payload).hexdigest() == digest

    def test_all_entries_equal(self):
        ones = np.ones((4, 4))
        assert hungarian_solve(ones).permutation == (0, 1, 2, 3)
        # Warm, every start edge that is still tight is kept, whatever it is.
        for p in itertools.permutations(range(4)):
            start = SimpleNamespace(permutation=p, v=np.zeros(4))
            assert hungarian_solve(ones, start=start).permutation == p
        # Only row 0's start edge is tight: rows 1-3 are inserted, ascending,
        # and each takes the lowest free column among the tied ones.
        start = SimpleNamespace(permutation=(3, 2, 1, 0), v=np.array([0.0, 0.0, 0.0, 1.0]))
        assert hungarian_solve(ones, start=start).permutation == (3, 0, 1, 2)

    def test_two_on_the_diagonal_one_elsewhere(self):
        m = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
        assert hungarian_solve(m).permutation == (1, 2, 0)
