"""Tests for the exact grouping search (repair, single-out bound, branch-and-bound),
the baseline groupings and the ``perturb`` noise helper."""

import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgroup.hungarian import hungarian_solve
from hmgroup.matching_core import (
    Assignment,
    CostMatrix,
    Receiver,
    assignment_cost,
    brute_force_optimal_symmetric,
    build_cost_matrix,
)
from hmgroup import strategies
from hmgroup.strategies import (
    Candidate,
    MatchingReport,
    _branch_and_bound,
    _node_bound,
    _repair,
    largest_diff_matching,
    quasi_optimal_matching,
)

from conftest import hundredths_cost, perturb, random_symmetric_cost


@st.composite
def hundredths_matrices(draw, max_n: int = 12, top: int = 200, unit: float = 0.01) -> CostMatrix:
    """Symmetric matrices of 1..top times ``unit`` (0.01): exact ties are common."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    size = n * (n + 1) // 2
    upper = draw(st.lists(st.integers(min_value=1, max_value=top), min_size=size, max_size=size))
    values = np.zeros((n, n))
    iu, ju = np.triu_indices(n)
    values[iu, ju] = upper
    values[ju, iu] = upper
    return CostMatrix(values * unit)


def grouping_optimum(c: CostMatrix) -> float:
    """Exact minimum grouping cost: brute force up to n = 9, else networkx
    blossom on matrices of hundredths when networkx is installed."""
    hundredths = np.allclose(c.values * 100, np.rint(c.values * 100), rtol=0, atol=1e-9)
    if c.n > 9 and hundredths and importlib.util.find_spec("networkx"):
        return blossom_optimum(c)
    return brute_force_optimal_symmetric(c)[1]


def assert_report_invariants(c: CostMatrix, report) -> None:
    """An involution, no cheaper than the bound or the best grouping, no dearer
    than either baseline, bounded below by ``lower_bound``, and proved to be
    the optimum (these small matrices never reach the node cap)."""
    partner = report.symmetric_assignment.partner
    assert all(partner[j] == i for i, j in enumerate(partner))
    assert report.symmetric_cost >= report.upper_bound_cost
    assert report.gap_fraction >= 0.0
    for baseline in report.baselines.values():
        assert report.symmetric_cost <= baseline.cost
    optimum = grouping_optimum(c)
    assert report.symmetric_cost >= optimum - 1e-9
    assert report.upper_bound_cost <= report.lower_bound <= report.symmetric_cost
    assert report.lower_bound <= optimum * (1.0 + 1e-12)
    assert report.success
    assert report.symmetric_cost == pytest.approx(optimum, rel=1e-12)


class TestPerturb:
    def test_deterministic(self, counterexample):
        first = perturb(counterexample, 1e-3, seed=1)
        second = perturb(counterexample, 1e-3, seed=1)
        assert np.array_equal(first.values, second.values)
        assert not np.array_equal(first.values, perturb(counterexample, 1e-3, seed=2).values)

    def test_output_symmetric_and_input_untouched(self, counterexample):
        before = counterexample.values.copy()
        out = perturb(counterexample, 1e-2, seed=3)
        assert np.array_equal(out.values, out.values.T)
        assert np.array_equal(counterexample.values, before)

    def test_vanishing_sigma_is_identity(self, counterexample):
        out = perturb(counterexample, 1e-300, seed=0)
        assert np.array_equal(out.values, counterexample.values)

    def test_negative_entries_clamped_to_zero(self):
        c = CostMatrix(np.full((6, 6), 1e-6))
        out = perturb(c, 1.0, seed=0)
        assert (out.values >= 0.0).all()
        assert (out.values == 0.0).any()

    def test_six_sigma_tail(self):
        # ~1.4e6 draws at sigma 1e-3: the largest deviation stays below 6e-3
        n = 1200
        sigma = 1e-3
        c = CostMatrix(np.ones((n, n)))
        out = perturb(c, sigma, seed=123)
        assert np.abs(out.values - c.values).max() < 6.0 * sigma

    @pytest.mark.parametrize("n", [1, 2, 7, 60])
    def test_matches_triu_indices_reference_bit_for_bit(self, n):
        c = random_symmetric_cost(np.random.default_rng(n), n)
        iu, ju = np.triu_indices(n)
        for seed in range(4):
            noise = np.random.default_rng(seed).normal(0.0, 0.5, size=iu.size)
            eps = np.zeros((n, n))
            eps[iu, ju] = noise
            eps[ju, iu] = noise
            expected = np.maximum(c.values + eps, 0.0)
            assert perturb(c, 0.5, seed).values.tobytes() == expected.tobytes()

    def test_sigma_must_be_positive(self, counterexample):
        with pytest.raises(ValueError):
            perturb(counterexample, 0.0, seed=0)

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_non_finite_sigma_is_named(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            perturb(CostMatrix(np.eye(2)), sigma, seed=0)


class TestTimeSharing:
    # The time-sharing grouping is Assignment.identity, every receiver single.
    def test_identity(self, counterexample):
        report = quasi_optimal_matching(counterexample)
        assert report.baselines["time_sharing"].assignment == Assignment((0, 1, 2))

    def test_efficiency_is_harmonic_composition(self):
        rates = np.array([1.0, 2.0, 4.0])
        c = CostMatrix(np.diag(1.0 / rates))
        assert 1.0 / assignment_cost(c, Assignment.identity(3)) == pytest.approx(
            1.0 / (1.0 / rates).sum()
        )

    def test_eight_equal_rate_receivers(self):
        values = np.full((8, 8), 0.25)
        np.fill_diagonal(values, 0.5)
        c = CostMatrix(values)
        assert 1.0 / assignment_cost(c, Assignment.identity(8)) == pytest.approx(0.25)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            Assignment.identity(0)


class TestLargestDiffMatching:
    def test_four_receivers_sorted_input(self):
        receivers = [Receiver(i + 1, float(i + 1)) for i in range(4)]
        a = largest_diff_matching(receivers)
        assert a.partner == (3, 2, 1, 0)  # anti-diagonal grouping

    def test_single_receiver(self):
        assert largest_diff_matching([Receiver(1, 5.0)]) == Assignment.identity(1)

    def test_five_receivers_unsorted(self):
        snrs = [5.0, 1.0, 3.0, 2.0, 4.0]
        receivers = [Receiver(i + 1, s) for i, s in enumerate(snrs)]
        a = largest_diff_matching(receivers)
        # ascending SNR order is positions [1, 3, 2, 4, 0]: weakest pairs with
        # strongest (1<->0), second weakest with second strongest (3<->4), the
        # median (position 2) stays single
        assert a.partner == (1, 0, 2, 4, 3)

    def test_snr_ties_keep_input_order(self):
        receivers = [Receiver(i + 1, 5.0) for i in range(3)]
        a = largest_diff_matching(receivers)
        assert a.partner == (2, 1, 0)

    @given(
        st.lists(st.floats(min_value=-30, max_value=30, allow_nan=False), min_size=1, max_size=25)
    )
    @settings(max_examples=60)
    def test_always_an_involution_with_max_pairs(self, snrs):
        receivers = [Receiver(i + 1, s) for i, s in enumerate(snrs)]
        a = largest_diff_matching(receivers)
        n = len(snrs)
        assert len(a.pairs()) == n // 2
        assert len(a.singles()) == n % 2

    def test_cost_only_variant_uses_diagonal_rate_order(self, counterexample):
        # diagonal costs (3, 7, 2) mean rates rank middle < first < last
        report = quasi_optimal_matching(counterexample)
        assert report.baselines["largest_diff"].assignment.partner == (0, 2, 1)


class TestQuasiOptimalMatching:
    def test_counterexample_report(self, counterexample):
        report = quasi_optimal_matching(counterexample)
        assert report.upper_bound_cost == 8.0
        assert report.symmetric_cost == 9.0
        assert report.gap_fraction == pytest.approx(0.125)
        # the bound solve is a 3-cycle; its repair is proved optimal by the
        # single-out bound 8 + min_s (c_ss - u_s - v_s) = 9, without a search
        assert report.success
        assert (report.source, report.nodes, report.lower_bound) == ("repair", 0, 9.0)
        assert report.symmetric_assignment.partner == (0, 2, 1)

    def test_already_symmetric_solution_short_circuits(self):
        c = CostMatrix(np.array([[1.0, 5.0], [5.0, 1.0]]))
        report = quasi_optimal_matching(c)
        assert report == MatchingReport(
            upper_bound_cost=2.0,
            lower_bound=2.0,
            symmetric_assignment=Assignment((0, 1)),
            symmetric_cost=2.0,
            gap_fraction=0.0,
            source="bound",
            nodes=0,
            success=True,
            baselines={
                "time_sharing": Candidate(Assignment((0, 1)), 2.0),
                "largest_diff": Candidate(Assignment((1, 0)), 10.0),
            },
        )

    def test_reproducible(self):
        rng = np.random.default_rng(55)
        c = random_symmetric_cost(rng, 12, quantized=True)
        assert quasi_optimal_matching(c) == quasi_optimal_matching(c)

    def test_never_beats_upper_bound_and_never_loses_to_baselines(self):
        rng = np.random.default_rng(56)
        for k in range(20):
            n = int(rng.integers(2, 11))
            c = random_symmetric_cost(rng, n, quantized=bool(k % 2))
            receivers = [Receiver(i + 1, float(rng.uniform(0, 20))) for i in range(n)]
            report = quasi_optimal_matching(c, receivers=receivers)
            assert report.symmetric_cost >= report.upper_bound_cost - 1e-9
            assert report.gap_fraction >= -1e-9
            ts_cost = assignment_cost(c, Assignment.identity(n))
            ld_cost = assignment_cost(c, largest_diff_matching(receivers))
            assert report.symmetric_cost <= min(ts_cost, ld_cost) + 1e-12
            assert report.baselines == {
                "time_sharing": Candidate(Assignment.identity(n), ts_cost),
                "largest_diff": Candidate(largest_diff_matching(receivers), ld_cost),
            }

    def test_never_beats_exhaustive_grouping_optimum(self):
        rng = np.random.default_rng(57)
        for k in range(15):
            c = random_symmetric_cost(rng, 7, quantized=True)
            report = quasi_optimal_matching(c)
            _, best = brute_force_optimal_symmetric(c)
            assert report.symmetric_cost >= best - 1e-9

    def test_search_is_exact_on_tie_heavy_matrices(self):
        rng = np.random.default_rng(58)
        searched = 0
        for _ in range(30):
            c = random_symmetric_cost(rng, 10, quantized=True)
            report = quasi_optimal_matching(c)
            optimum = grouping_optimum(c)
            assert report.success
            assert report.symmetric_cost == pytest.approx(optimum, rel=1e-12)
            assert report.lower_bound == pytest.approx(optimum, rel=1e-12)
            searched += report.nodes > 0
        assert searched > 0

    def test_bound_never_exceeds_the_shipped_cost(self):
        # the shipped grouping ties the assignment optimum, but its float sum
        # runs over other entries and lands one ulp below the solver's sum
        m = np.random.default_rng(44).integers(50, 201, (5, 5)) / 100
        c = CostMatrix(np.triu(m) + np.triu(m, 1).T)
        report = quasi_optimal_matching(c)
        assert report.symmetric_cost == 3.69
        assert report.upper_bound_cost == report.symmetric_cost
        assert report.gap_fraction == 0.0

    @pytest.mark.parametrize(
        ("scale", "absorbed"), [(1.0 + 1e-13, True), (1.0 + 1e-9, False)]
    )
    def test_bound_above_a_grouping_is_rounding_or_an_error(self, monkeypatch, scale, absorbed):
        # the bound solve is already the identity grouping, costing 2
        def inflated(c, guess=None, start=None):
            solution = hungarian_solve(c, guess, start)
            return replace(solution, cost=solution.cost * scale)

        monkeypatch.setattr("hmgroup.strategies.hungarian_solve", inflated)
        c = CostMatrix(np.array([[1.0, 5.0], [5.0, 1.0]]))
        if absorbed:
            report = quasi_optimal_matching(c)
            assert report.upper_bound_cost == report.symmetric_cost == 2.0
            assert report.gap_fraction == 0.0
        else:
            with pytest.raises(RuntimeError, match="below the assignment optimum"):
                quasi_optimal_matching(c)

    @pytest.mark.parametrize(
        ("snrs", "rotation"),
        [
            # SNR order 1, 3, 0, 4, 2: sorted position k takes position k + 3 mod 5
            ([5.0, 1.0, 9.0, 3.0, 7.0], (1, 4, 0, 2, 3)),
            # no receivers: the descending diagonal 7, 3, 2 orders 1, 0, 2
            (None, (1, 2, 0)),
        ],
    )
    def test_only_the_bound_solve_is_offered_the_rotation(
        self, monkeypatch, counterexample, table, capacity_model, snrs, rotation
    ):
        offered, starts = [], []

        def spy(c, guess=None, start=None):
            offered.append(None if guess is None else tuple(guess.tolist()))
            starts.append(start)
            return hungarian_solve(c, guess, start)

        monkeypatch.setattr("hmgroup.strategies.hungarian_solve", spy)
        receivers = None if snrs is None else [Receiver(i + 1, x) for i, x in enumerate(snrs)]
        c = counterexample if snrs is None else build_cost_matrix(receivers, table, capacity_model)
        report = quasi_optimal_matching(c, receivers=receivers)
        assert offered[0] == rotation
        assert offered[1:] == [None] * report.nodes
        assert starts[0] is None
        assert len(starts) == 1 + report.nodes

    def test_every_node_is_warm_started_from_its_parent(self, monkeypatch):
        guesses, starts, returned = [], [], []

        def spy(c, guess=None, start=None):
            guesses.append(guess)
            starts.append(start)
            returned.append(hungarian_solve(c, guess, start))
            return returned[-1]

        monkeypatch.setattr("hmgroup.strategies.hungarian_solve", spy)
        report = quasi_optimal_matching(hundredths_cost(205))
        assert report.source == "branch_and_bound" and report.nodes == len(starts) - 1 > 1
        # only the bound solve gets the rotation; a node's start is the bound
        # solve or an earlier node's solution
        assert guesses[0] is not None and guesses[1:] == [None] * report.nodes
        for k, start in enumerate(starts[1:], start=1):
            assert any(start is solution for solution in returned[:k])

    @given(hundredths_matrices())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_report_invariants_on_hundredths(self, c):
        assert_report_invariants(c, quasi_optimal_matching(c))

    @given(hundredths_matrices(max_n=9, top=4, unit=1e-3))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_report_invariants_on_tiny_entries(self, c):
        # Entries of 0.001 to 0.004: many exact ties at a scale where an
        # absolute tolerance would swallow whole entries.
        assert_report_invariants(c, quasi_optimal_matching(c))

    def test_receiver_count_mismatch_rejected(self, counterexample):
        with pytest.raises(ValueError, match="receivers"):
            quasi_optimal_matching(counterexample, receivers=[Receiver(1, 3.0)])

    def test_zero_cost_matrix_rejected(self):
        c = CostMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="positive"):
            quasi_optimal_matching(c)

    def test_success_invariant(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            c = random_symmetric_cost(rng, 8, quantized=True)
            report = quasi_optimal_matching(c)
            _, optimum = brute_force_optimal_symmetric(c)
            assert report.success
            assert report.symmetric_cost == pytest.approx(optimum, rel=1e-12)
            assert report == quasi_optimal_matching(c)

    def test_node_cap_ships_the_incumbent_unproved(self, monkeypatch):
        c = hundredths_cost(205)
        monkeypatch.setattr(strategies, "NODE_CAP", 1)
        report = quasi_optimal_matching(c)
        assert report.nodes == 1
        assert not report.success
        # the loop's fallback shipped 69.26 here; the incumbent is the repair
        # or an improvement, and the optimum 32.0 sits between the bounds
        assert report.upper_bound_cost <= report.lower_bound <= 32.0 < report.symmetric_cost
        assert report.symmetric_cost <= min(pick.cost for pick in report.baselines.values())


def three_families(rng: np.random.Generator, n: int) -> list[CostMatrix]:
    """Symmetric matrices: uniform, three-valued hundredths, and integers 1-3,
    plus uniform with a dear diagonal, whose best groupings leave no single
    at even n (where the single-out bound must not apply)."""
    raw = [
        rng.uniform(0.1, 2.0, (n, n)),
        rng.choice([0.50, 0.51, 0.52], (n, n)),
        rng.integers(1, 4, (n, n)).astype(float),
        rng.uniform(0.1, 2.0, (n, n)) + 4.0 * np.eye(n),
    ]
    return [CostMatrix(np.triu(m) + np.triu(m, 1).T) for m in raw]


def blossom_optimum(c: CostMatrix) -> float:
    """Minimum-cost grouping of an integer-hundredths matrix by networkx blossom.

    A grouping costs the trace minus the savings c_ii + c_jj - 2 c_ij of its
    pairs, so the optimum is a maximum-weight matching on positive savings.
    """
    nx = pytest.importorskip("networkx")
    units = np.rint(c.values * 100).astype(np.int64)
    diag = np.diag(units)
    savings = diag[:, None] + diag[None, :] - 2 * units
    iu, ju = np.triu_indices(c.n, k=1)
    keep = savings[iu, ju] > 0
    graph = nx.Graph()
    graph.add_weighted_edges_from(
        zip(iu[keep].tolist(), ju[keep].tolist(), savings[iu, ju][keep].tolist())
    )
    matching = nx.max_weight_matching(graph)
    return (int(diag.sum()) - sum(int(savings[i, j]) for i, j in matching)) / 100


def reference_repair_cost(m: np.ndarray, perm: list[int]) -> float:
    """Cost of the best per-cycle repair, trying every single or start in O(k^2)."""
    seen, total = [False] * len(perm), 0.0
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycle = [i]
        while perm[cycle[-1]] != i:
            cycle.append(perm[cycle[-1]])
        for j in cycle:
            seen[j] = True
        k, options = len(cycle), []
        for s in range(k) if k % 2 else range(min(k, 2)):
            ring = cycle[s:] + cycle[:s]
            rest = ring[1:] if k % 2 else ring
            pairs = sum(m[a, b] + m[b, a] for a, b in zip(rest[0::2], rest[1::2]))
            options.append(pairs + (m[ring[0], ring[0]] if k % 2 else 0.0))
        total += min(options)
    return total


class TestExactSearch:
    def test_repair_matches_the_quadratic_reference(self):
        rng = np.random.default_rng(63)
        for n in [1, 2, 3, 4, 5, 8, 13, 40, 101]:
            for c in three_families(rng, n):
                for _ in range(3):
                    perm = rng.permutation(n).tolist()
                    repair = _repair(c, perm)
                    partner = repair.assignment.partner
                    # every pair of the repair is an arc of the permutation
                    assert all(j == i or perm[i] == j or perm[j] == i for i, j in enumerate(partner))
                    expected = reference_repair_cost(c.values, perm)
                    assert repair.cost == pytest.approx(expected, rel=1e-12)

    def test_branch_and_bound_matches_brute_force(self):
        rng = np.random.default_rng(60)
        searched = 0
        for n in range(3, 11):
            for _ in range(8):
                for c in three_families(rng, n):
                    base = hungarian_solve(c)
                    if base.is_symmetric:
                        continue
                    best, lower, nodes = _branch_and_bound(c, base, _repair(c, base.permutation))
                    _, optimum = brute_force_optimal_symmetric(c)
                    assert best.cost == pytest.approx(optimum, rel=1e-12)
                    assert lower <= best.cost
                    assert lower == pytest.approx(optimum, rel=1e-12)
                    searched += nodes > 0
        assert searched >= 10

    def test_node_bound_never_exceeds_the_optimum(self):
        # the single-out term at odd n; at even n a grouping may have no
        # single, and the dear-diagonal family shows the term would overshoot
        rng = np.random.default_rng(61)
        for n in range(2, 12):
            for _ in range(2):
                for c in three_families(rng, n):
                    base = hungarian_solve(c)
                    optimum = grouping_optimum(c)
                    assert _node_bound(np.diag(c.values), base) <= optimum * (1.0 + 1e-12)

    @given(hundredths_matrices(max_n=14))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_repair_costs_at_most_time_sharing(self, c):
        # Over the k choices of single, an odd cycle's repairs average
        # (trace + (k - 1) * cycle) / k, and an even cycle's two alternating
        # pairings average the cycle's cost; the optimal assignment's cycle
        # costs at most its trace, so the cheapest repair does too. Against
        # largest_diff no such bound holds, so the baselines stay candidates.
        base = hungarian_solve(c)
        repair = _repair(c, base.permutation)
        assert repair.cost <= assignment_cost(c, Assignment.identity(c.n)) * (1.0 + 1e-12)
        report = quasi_optimal_matching(c)
        assert report.lower_bound <= report.symmetric_cost <= repair.cost

    @pytest.mark.parametrize("n", [13, 17, 30, 61, 200])
    def test_matches_networkx_blossom_past_the_brute_force_cap(self, n):
        rng = np.random.default_rng(62 + n)
        m = rng.integers(50, 201, (n, n)) / 100
        c = CostMatrix(np.triu(m) + np.triu(m, 1).T)
        report = quasi_optimal_matching(c)
        assert report.success
        assert report.symmetric_cost == pytest.approx(blossom_optimum(c), rel=1e-12)

    @pytest.mark.parametrize(("n", "seeds"), [(101, range(5)), (499, [3])])
    def test_odd_beam_populations_are_proved_by_the_repair(self, table, capacity_model, n, seeds):
        from hmgroup import BeamModel, sample_receivers

        for seed in seeds:
            receivers = sample_receivers(BeamModel(snr_max_db=12.0, n_receivers=n, seed=seed))
            c = build_cost_matrix(receivers, table, capacity_model)
            report = quasi_optimal_matching(c, receivers=receivers)
            assert (report.source, report.success, report.nodes) == ("repair", True, 0)
            assert report.symmetric_cost < report.baselines["largest_diff"].cost

    def test_search_never_imports_networkx(self, tmp_path):
        # Nor does a whole `solve --cost-csv` call load scipy or networkx.
        path = tmp_path / "ties.csv"
        path.write_text(
            "".join(",".join(str(v) for v in row) + "\n" for row in hundredths_cost(205).values)
        )
        code = (
            "import sys, numpy as np\n"
            "from hmgroup.matching_core import CostMatrix\n"
            "from hmgroup.strategies import quasi_optimal_matching\n"
            "m = np.random.default_rng(205).integers(50, 201, (60, 60)) / 100\n"
            "report = quasi_optimal_matching(CostMatrix(np.triu(m) + np.triu(m, 1).T))\n"
            "assert report.nodes > 0\n"
            "assert 'networkx' not in sys.modules\n"
            "from hmgroup.cli import main\n"
            "assert main(['solve', '--cost-csv', sys.argv[1]]) == 0\n"
            "assert 'networkx' not in sys.modules and 'scipy' not in sys.modules\n"
        )
        paths = [str(Path(strategies.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["nodes"] > 0
