"""Tests for assignments, cost matrices, the objective, and the brute-force oracles."""

import io
import math
import re
import warnings

import numpy as np
import pytest

from hmgroup.hungarian import hungarian_solve
from hmgroup.matching_core import (
    Assignment,
    CostMatrix,
    Receiver,
    UnschedulableReceiverError,
    assignment_cost,
    brute_force_optimal_permutation,
    brute_force_optimal_symmetric,
    build_cost_matrix,
    count_strategies,
    load_cost_csv,
)
from hmgroup.channel_sim import write_pair_probability_csv
from hmgroup.rate_model import HierRateModel, ModcodParseError, pair_rate_matrix, single_rate

from conftest import enumerate_involutions, random_symmetric_cost


class TestAssignmentTypes:
    def test_identity(self):
        a = Assignment.identity(4)
        assert a.singles() == [0, 1, 2, 3]
        assert a.pairs() == []

    def test_pairs_and_singles(self):
        a = Assignment((1, 0, 2, 4, 3))
        assert a.pairs() == [(0, 1), (3, 4)]
        assert a.singles() == [2]

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="involution"):
            Assignment((1, 2, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Assignment((0, 3))

    def test_permutation_validation(self):
        # a repeated entry is not a permutation, so it cannot be self-inverse
        with pytest.raises(ValueError, match="involution"):
            Assignment((0, 0, 1))

    def test_involution_detection_and_conversion(self, counterexample):
        cycle = hungarian_solve(counterexample)
        assert not cycle.is_symmetric
        with pytest.raises(ValueError, match="involution"):
            Assignment(cycle.permutation)
        swap = hungarian_solve(np.array([[9.0, 1.0], [1.0, 9.0]]))
        assert swap.is_symmetric
        assert Assignment(swap.permutation) == Assignment((1, 0))


class TestCostMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CostMatrix(np.array([[1.0, 2.0], [3.0, 1.0]]))

    def test_rejects_negative_and_non_finite(self):
        with pytest.raises(ValueError, match="non-negative"):
            CostMatrix(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="finite"):
            CostMatrix(np.array([[math.inf]]))

    def test_values_immutable(self, counterexample):
        with pytest.raises(ValueError):
            counterexample.values[0, 0] = 9.0


class TestBuildCostMatrix:
    def test_diagonal_is_inverse_single_rate(self, table, capacity_model):
        # 7 dB sits in the efficiency-2.0 band of the bundled table
        receivers = [Receiver(1, 7.0)]
        cost = build_cost_matrix(receivers, table, capacity_model)
        assert single_rate(7.0, table) == 2.0
        assert cost.values[0, 0] == 0.5

    def test_off_diagonal_is_half_inverse_pair_rate(self, table):
        model = HierRateModel(pair_table={(5.0, 9.0): 2.0})
        receivers = [Receiver(1, 5.0), Receiver(2, 9.0)]
        cost = build_cost_matrix(receivers, table, model)
        assert cost.values[0, 1] == 0.25
        assert cost.values[1, 0] == 0.25

    def test_matches_elementwise_recomputation(self, table, capacity_model):
        receivers = [Receiver(i + 1, snr) for i, snr in enumerate((5.0, 10.0, 15.0))]
        cost = build_cost_matrix(receivers, table, capacity_model)
        for i, ri in enumerate(receivers):
            assert cost.values[i, i] == 1.0 / single_rate(ri.snr_db, table)
            for j, rj in enumerate(receivers):
                if i != j:
                    pair = pair_rate_matrix(np.array([ri.snr_db, rj.snr_db]), capacity_model)
                    expected = 1.0 / (2.0 * pair[0, 1])
                    assert cost.values[i, j] == pytest.approx(expected, abs=1e-9)

    def test_zero_rate_receiver_rejected_by_name(self, table, capacity_model):
        receivers = [Receiver(1, 10.0), Receiver(42, -30.0)]
        with pytest.raises(UnschedulableReceiverError, match="receiver 42"):
            build_cost_matrix(receivers, table, capacity_model)

    def test_empty_population_rejected(self, table, capacity_model):
        with pytest.raises(ValueError):
            build_cost_matrix([], table, capacity_model)

    def test_first_bad_pair_named_in_row_major_order(self, table):
        # (position 0, position 3) precedes (1, 2) in row-major upper-triangle
        # order but follows it column by column
        snrs = (5.0, 6.0, 7.0, 8.0)
        rates = {(a, b): 1.0 for a in snrs for b in snrs if a < b}
        rates[(5.0, 8.0)] = rates[(6.0, 7.0)] = 0.0
        receivers = [Receiver(10 * (k + 1), snr) for k, snr in enumerate(snrs)]
        with pytest.raises(
            UnschedulableReceiverError, match=r"pair \(receiver 10, receiver 40\)"
        ):
            build_cost_matrix(receivers, table, HierRateModel(pair_table=rates))


class TestAssignmentCost:
    def test_three_cycle_on_counterexample(self, counterexample):
        # groupings only: a bare 3-cycle (1->3, 2->1, 3->2 one-based) is refused
        with pytest.raises(TypeError, match="Assignment"):
            assignment_cost(counterexample, (2, 0, 1))

    def test_identity_on_counterexample(self, counterexample):
        assert assignment_cost(counterexample, Assignment.identity(3)) == 12.0

    def test_pair_contributes_twice_its_entry(self):
        rng = np.random.default_rng(3)
        c = random_symmetric_cost(rng, 6)
        a = Assignment((3, 2, 1, 0, 4, 5))
        expected = 2 * c.values[0, 3] + 2 * c.values[1, 2] + c.values[4, 4] + c.values[5, 5]
        assert assignment_cost(c, a) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self, counterexample):
        with pytest.raises(ValueError, match="covers"):
            assignment_cost(counterexample, Assignment.identity(4))


class TestSpectrumEfficiency:
    # The efficiency a grouping offers every receiver is 1 / assignment_cost.
    def test_two_unit_rate_singles(self):
        c = CostMatrix(np.diag([1.0, 1.0]))
        assert 1.0 / assignment_cost(c, Assignment.identity(2)) == 0.5

    def test_eight_receivers_three_pairs_two_singles(self):
        # pairs (0,1), (2,3), (6,7) and singles 4, 5; every term rate is 2
        n = 8
        values = np.full((n, n), 0.25)
        np.fill_diagonal(values, 0.5)
        c = CostMatrix(values)
        grouping = Assignment((1, 0, 3, 2, 4, 5, 7, 6))
        assert 1.0 / assignment_cost(c, grouping) == pytest.approx(0.4)

    def test_single_receiver(self):
        c = CostMatrix(np.array([[1.0 / 3.0]]))
        assert 1.0 / assignment_cost(c, Assignment.identity(1)) == pytest.approx(3.0)


class TestCountStrategies:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, 2), (3, 4), (4, 10), (5, 26), (8, 764), (10, 9496)]
    )
    def test_known_values(self, n, expected):
        assert count_strategies(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            count_strategies(0)

    def test_exponential_growth_from_six(self):
        # the 2^k bound holds from k = 6 on (it fails at k = 5: 26 < 32)
        for k in range(6, 31):
            assert count_strategies(k) >= 2**k

    def test_exact_integers_at_large_n(self):
        # arbitrary precision: value exceeds 2**63 well before n = 60
        assert count_strategies(60) == count_strategies(59) + 59 * count_strategies(58)
        assert count_strategies(60) > 2**63


class TestEnumerateInvolutions:
    def test_two_receivers(self):
        assert {a.partner for a in enumerate_involutions(2)} == {(0, 1), (1, 0)}

    def test_three_receivers(self):
        got = [a.partner for a in enumerate_involutions(3)]
        assert set(got) == {(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1)}
        assert len(got) == count_strategies(3)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_yields_exactly_the_count_distinct(self, n):
        seen = set()
        for a in enumerate_involutions(n):
            assert a.partner not in seen
            seen.add(a.partner)
        assert len(seen) == count_strategies(n)

    def test_cap_is_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            enumerate_involutions(13)


class TestBruteForceSymmetric:
    def test_counterexample_optimum(self, counterexample):
        a, cost = brute_force_optimal_symmetric(counterexample)
        assert cost == 9.0
        # two optima tie at 9: pairing (0,2) leaving 1 single, and pairing
        # (1,2) leaving 0 single; the lexicographically smallest partner
        # array wins
        assert assignment_cost(counterexample, Assignment((2, 1, 0))) == 9.0
        assert assignment_cost(counterexample, Assignment((0, 2, 1))) == 9.0
        assert a.partner == (0, 2, 1)

    def test_trivial_matrix(self):
        a, cost = brute_force_optimal_symmetric(CostMatrix(np.array([[0.75]])))
        assert a == Assignment.identity(1)
        assert cost == 0.75

    def test_never_beats_unconstrained_optimum(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            c = random_symmetric_cost(rng, 6)
            _, sym_cost = brute_force_optimal_symmetric(c)
            assert sym_cost >= hungarian_solve(c).cost - 1e-9

    def test_cap_propagates(self):
        c = CostMatrix(np.eye(13) + np.ones((13, 13)))
        with pytest.raises(ValueError, match="cap"):
            brute_force_optimal_symmetric(c)


class TestBruteForcePermutation:
    def test_counterexample_optimum(self, counterexample):
        p, cost = brute_force_optimal_permutation(counterexample)
        assert cost == 8.0
        assert p in {(2, 0, 1), (1, 2, 0)}

    def test_diagonally_dominant_picks_identity(self):
        values = np.full((5, 5), 9.0)
        np.fill_diagonal(values, 1.0)
        p, cost = brute_force_optimal_permutation(CostMatrix(values))
        assert p == tuple(range(5))
        assert cost == 5.0

    def test_refuses_large_n(self):
        c = CostMatrix(np.eye(10) + np.ones((10, 10)))
        with pytest.raises(ValueError, match="capped"):
            brute_force_optimal_permutation(c)

    def test_involution_optimum_never_below_permutation_optimum(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            c = random_symmetric_cost(rng, 6, quantized=True)
            _, perm_cost = brute_force_optimal_permutation(c)
            _, sym_cost = brute_force_optimal_symmetric(c)
            assert sym_cost >= perm_cost - 1e-12


class TestObjectiveIdentity:
    def test_cost_equals_rate_sum_recomputation(self):
        # independent route: sum inverse rates per grouping term directly
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            single = rng.uniform(0.2, 5.0, size=n)
            pair = np.triu(rng.uniform(0.2, 5.0, size=(n, n)), 1)
            pair = pair + pair.T
            values = np.diag(1.0 / single) + np.where(
                pair > 0, 1.0 / (2.0 * np.where(pair > 0, pair, 1.0)), 0.0
            )
            c = CostMatrix(values)
            groupings = list(enumerate_involutions(n))
            a = groupings[int(rng.integers(0, len(groupings)))]
            expected = sum(1.0 / single[k] for k in a.singles())
            expected += sum(1.0 / pair[i, j] for i, j in a.pairs())
            got = assignment_cost(c, a)
            assert got == pytest.approx(expected, rel=1e-9)


class TestSerialization:
    def test_cost_csv_round_trip(self, counterexample, tmp_path):
        path = tmp_path / "cost.csv"
        write_pair_probability_csv(counterexample.values, path)
        again = load_cost_csv(path)
        assert np.array_equal(again.values, counterexample.values)

    def test_cost_csv_from_stream(self):
        c = load_cost_csv(io.StringIO("1.0,2.0\n2.0,1.0\n"))
        assert c.n == 2

    def test_ragged_csv_reports_row(self):
        with pytest.raises(ValueError, match="row 2"):
            load_cost_csv(io.StringIO("1.0,2.0\n2.0\n"))

    def test_non_numeric_csv_reports_row(self):
        with pytest.raises(ValueError, match="row 1"):
            load_cost_csv(io.StringIO("a,2.0\n2.0,1.0\n"))

    def test_asymmetric_csv_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            load_cost_csv(io.StringIO("1.0,2.0\n3.0,1.0\n"))

    def test_repr_written_doubles_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        m = rng.uniform(0.0, 10.0, (60, 60)) * 10.0 ** rng.integers(-40, 40, (60, 60))
        m = np.triu(m) + np.triu(m, 1).T
        m[0, 0], m[1, 1], m[2, 2] = 5e-324, 1.7976931348623157e308, 0.0  # subnormal, max
        text = "".join(",".join(repr(float(x)) for x in row) + "\n" for row in m)
        assert "e-" in text and "e+" in text  # repr's exponent forms are parsed too
        path = tmp_path / "cost.csv"
        path.write_text(text)
        assert load_cost_csv(path).values.tobytes() == m.tobytes()

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_quoted_cells_and_line_endings(self, tmp_path, newline):
        path = tmp_path / "cost.csv"
        path.write_bytes(newline.join(['"1.5",2', "", '2.0," 1e0"', ""]).encode())
        assert load_cost_csv(path).values.tolist() == [[1.5, 2.0], [2.0, 1.0]]
        path.write_bytes(newline.join(["1.5,2", "", "2.0,x"]).encode())
        with pytest.raises(ModcodParseError, match="^row 3: "):
            load_cost_csv(path)

    @pytest.mark.parametrize("blank", ["", " , "])
    @pytest.mark.parametrize(
        ("rows", "error"),
        [
            ("1.0,2.0\n2.0\n", "row 3: expected 2 entries, got 1"),
            ("1.0,2.0\nx,1.0\n", "row 3: could not convert string to float: 'x'"),
            ("1.0,2.0,3.0\n2.0,1.0,3.0\n", "row 2: expected 2 entries, got 3"),
        ],
    )
    def test_bad_row_after_a_blank_row_reports_its_physical_row(self, blank, rows, error):
        with pytest.raises(ModcodParseError, match=f"^{re.escape(error)}$"):
            load_cost_csv(io.StringIO(blank + "\n" + rows))

    @pytest.mark.parametrize("text", ["", "\n \n", " , \r\n"])
    def test_no_data_rows_raises_without_a_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModcodParseError, match="no data rows"):
                load_cost_csv(io.StringIO(text))

    def test_cells_only_float_reads_are_still_read(self):
        # Digit-group underscores and a blank " , " row between data rows.
        c = load_cost_csv(io.StringIO("1_0,2\n , \n2,1\n"))
        assert c.values.tolist() == [[10.0, 2.0], [2.0, 1.0]]

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_information_separators_are_rejected_as_float_rejects_them(self, sep):
        with pytest.raises(ModcodParseError, match="^row 2: could not convert"):
            load_cost_csv(io.StringIO(f"1,2\n2,1{sep}\n"))
