"""Tests for the perturbation heuristic and the baseline groupings."""

from dataclasses import replace

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
from hmgroup.strategies import (
    Candidate,
    MatchingReport,
    PerturbConfig,
    largest_diff_matching,
    perturb,
    quasi_optimal_matching,
)

from conftest import random_symmetric_cost


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


def assert_report_invariants(c: CostMatrix, report) -> None:
    """An involution, no cheaper than the bound or the best grouping, and no
    dearer than either baseline."""
    partner = report.symmetric_assignment.partner
    assert all(partner[j] == i for i, j in enumerate(partner))
    assert report.symmetric_cost >= report.upper_bound_cost
    assert report.gap_fraction >= 0.0
    for baseline in report.baselines.values():
        assert report.symmetric_cost <= baseline.cost
    _, optimum = brute_force_optimal_symmetric(c)
    assert report.symmetric_cost >= optimum - 1e-9


class TestPerturbConfig:
    def test_defaults(self):
        cfg = PerturbConfig()
        assert cfg.sigma == 1e-3
        assert cfg.max_retries == 50

    def test_validation(self):
        for sigma in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma"):
                PerturbConfig(sigma=sigma)
        with pytest.raises(ValueError):
            PerturbConfig(max_retries=0)
        with pytest.raises(ValueError):
            PerturbConfig(seed=-1)


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
        report = quasi_optimal_matching(counterexample, PerturbConfig())
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
        report = quasi_optimal_matching(counterexample, PerturbConfig())
        assert report.baselines["largest_diff"].assignment.partner == (0, 2, 1)


class TestQuasiOptimalMatching:
    def test_counterexample_report(self, counterexample):
        cfg = PerturbConfig(seed=0)
        report = quasi_optimal_matching(counterexample, cfg)
        assert report.upper_bound_cost == 8.0
        assert report.symmetric_cost == 9.0
        assert report.gap_fraction == pytest.approx(0.125)
        # integer entries leave a full unit between the unconstrained optimum
        # and the best grouping, so tiny perturbations can never close it
        assert not report.success
        assert report.retries_used == cfg.max_retries
        assert report.symmetric_assignment.partner == (0, 2, 1)

    def test_different_seeds_share_no_perturbation(self, counterexample, monkeypatch):
        # every attempt of one search draws from one generator seeded once, so
        # two seeds never replay each other's perturbed matrices
        drawn: list[bytes] = []

        def spy(c, sigma, seed):
            out = perturb(c, sigma, seed)
            drawn.append(out.values.tobytes())
            return out

        monkeypatch.setattr("hmgroup.strategies.perturb", spy)
        for seed in (0, 1):
            report = quasi_optimal_matching(counterexample, PerturbConfig(seed=seed, max_retries=3))
            assert not report.success
        assert len(drawn) == 6
        assert not set(drawn[:3]) & set(drawn[3:])

    def test_already_symmetric_solution_short_circuits(self):
        c = CostMatrix(np.array([[1.0, 5.0], [5.0, 1.0]]))
        report = quasi_optimal_matching(c, PerturbConfig(seed=9))
        assert report == MatchingReport(
            upper_bound_cost=2.0,
            symmetric_assignment=Assignment((0, 1)),
            symmetric_cost=2.0,
            gap_fraction=0.0,
            retries_used=0,
            success=True,
            baselines={
                "time_sharing": Candidate(Assignment((0, 1)), 2.0),
                "largest_diff": Candidate(Assignment((1, 0)), 10.0),
            },
        )

    def test_reproducible(self):
        rng = np.random.default_rng(55)
        c = random_symmetric_cost(rng, 12, quantized=True)
        cfg = PerturbConfig(seed=11)
        assert quasi_optimal_matching(c, cfg) == quasi_optimal_matching(c, cfg)

    def test_never_beats_upper_bound_and_never_loses_to_baselines(self):
        rng = np.random.default_rng(56)
        for k in range(20):
            n = int(rng.integers(2, 11))
            c = random_symmetric_cost(rng, n, quantized=bool(k % 2))
            receivers = [Receiver(i + 1, float(rng.uniform(0, 20))) for i in range(n)]
            report = quasi_optimal_matching(c, PerturbConfig(seed=k), receivers=receivers)
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
            report = quasi_optimal_matching(c, PerturbConfig(seed=k))
            _, best = brute_force_optimal_symmetric(c)
            assert report.symmetric_cost >= best - 1e-9

    def test_perturbation_finds_symmetric_solutions_on_tie_heavy_matrices(self):
        rng = np.random.default_rng(58)
        engaged = succeeded = 0
        for k in range(30):
            c = random_symmetric_cost(rng, 10, quantized=True)
            report = quasi_optimal_matching(c, PerturbConfig(seed=k))
            if report.retries_used > 0:
                engaged += 1
                succeeded += report.success
                if report.success:
                    # a success must come from a perturbed solve, whose cost on
                    # the original matrix is a genuine grouping cost
                    assert report.symmetric_cost >= report.upper_bound_cost - 1e-9
        assert engaged > 5
        assert succeeded / engaged > 0.5

    def test_bound_never_exceeds_the_shipped_cost(self):
        # the shipped grouping ties the assignment optimum, but its float sum
        # runs over other entries and lands one ulp below the solver's sum
        m = np.random.default_rng(44).integers(50, 201, (5, 5)) / 100
        c = CostMatrix(np.triu(m) + np.triu(m, 1).T)
        report = quasi_optimal_matching(c, PerturbConfig())
        assert report.symmetric_cost == 3.69
        assert report.upper_bound_cost == report.symmetric_cost
        assert report.gap_fraction == 0.0

    @pytest.mark.parametrize(
        ("scale", "absorbed"), [(1.0 + 1e-13, True), (1.0 + 1e-9, False)]
    )
    def test_bound_above_a_grouping_is_rounding_or_an_error(self, monkeypatch, scale, absorbed):
        # the unperturbed solve is already the identity grouping, costing 2
        def inflated(c, guess=None, start=None):
            solution = hungarian_solve(c, guess, start)
            return replace(solution, cost=solution.cost * scale)

        monkeypatch.setattr("hmgroup.strategies.hungarian_solve", inflated)
        c = CostMatrix(np.array([[1.0, 5.0], [5.0, 1.0]]))
        if absorbed:
            report = quasi_optimal_matching(c, PerturbConfig())
            assert report.upper_bound_cost == report.symmetric_cost == 2.0
            assert report.gap_fraction == 0.0
        else:
            with pytest.raises(RuntimeError, match="below the assignment optimum"):
                quasi_optimal_matching(c, PerturbConfig())

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
        offered, starts, returned = [], [], []

        def spy(c, guess=None, start=None):
            offered.append(None if guess is None else tuple(guess.tolist()))
            starts.append(start)
            returned.append(hungarian_solve(c, guess, start))
            return returned[-1]

        monkeypatch.setattr("hmgroup.strategies.hungarian_solve", spy)
        receivers = None if snrs is None else [Receiver(i + 1, x) for i, x in enumerate(snrs)]
        c = counterexample if snrs is None else build_cost_matrix(receivers, table, capacity_model)
        report = quasi_optimal_matching(c, PerturbConfig(max_retries=3), receivers=receivers)
        assert offered[0] == rotation
        assert offered[1:] == [None] * report.retries_used
        # every perturbed re-solve warm-starts from the unperturbed bound solve
        assert starts[0] is None
        assert len(starts) == 1 + report.retries_used
        assert all(start is returned[0] for start in starts[1:])

    @given(hundredths_matrices(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_report_invariants_on_hundredths(self, c, seed):
        assert_report_invariants(c, quasi_optimal_matching(c, PerturbConfig(seed=seed)))

    @given(
        hundredths_matrices(max_n=9, top=4, unit=1e-3), st.integers(min_value=0, max_value=2**32)
    )
    @settings(max_examples=40, deadline=None)
    def test_report_invariants_where_perturbation_clamps(self, c, seed):
        # Entries of one to four sigma: perturb clamps some to zero, perturbed
        # optima can tie, and the warm-started re-solve may pick another of them.
        assert_report_invariants(c, quasi_optimal_matching(c, PerturbConfig(seed=seed)))

    def test_receiver_count_mismatch_rejected(self, counterexample):
        with pytest.raises(ValueError, match="receivers"):
            quasi_optimal_matching(
                counterexample, PerturbConfig(), receivers=[Receiver(1, 3.0)]
            )

    def test_zero_cost_matrix_rejected(self):
        c = CostMatrix(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="positive"):
            quasi_optimal_matching(c, PerturbConfig())

    def test_success_invariant(self):
        rng = np.random.default_rng(59)
        for k in range(10):
            c = random_symmetric_cost(rng, 8, quantized=True)
            report = quasi_optimal_matching(c, PerturbConfig(seed=k, max_retries=3))
            if report.success:
                assert report.symmetric_cost >= report.upper_bound_cost - 1e-9
            report_again = quasi_optimal_matching(c, PerturbConfig(seed=k, max_retries=3))
            assert report == report_again
