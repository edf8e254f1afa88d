"""Tests for receiver sampling and the evaluation campaign."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from hmgroup import channel_sim
from hmgroup.channel_sim import (
    BeamModel,
    pair_probability_matrix,
    run_campaign,
    sample_receivers,
    summary_to_json_dict,
    write_pair_probability_csv,
)
from hmgroup.matching_core import (
    Assignment,
    Receiver,
    UnschedulableReceiverError,
    assignment_cost,
    build_cost_matrix,
)
from hmgroup.rate_model import HierRateModel, default_modcod_table
from hmgroup.strategies import largest_diff_matching, quasi_optimal_matching, snr_sorted_order


class TestBeamModel:
    def test_defaults(self):
        model = BeamModel()
        assert model.snr_max_db == 9.0
        assert model.edge_loss_db == 3.0
        assert model.weather_mean_db == 2.0
        assert model.n_receivers == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            BeamModel(edge_loss_db=-1.0)
        with pytest.raises(ValueError):
            BeamModel(weather_mean_db=-0.5)
        with pytest.raises(ValueError):
            BeamModel(n_receivers=0)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="edge_loss_db"):
                BeamModel(edge_loss_db=bad)
            with pytest.raises(ValueError, match="weather_mean_db"):
                BeamModel(weather_mean_db=bad)


class TestSampleReceivers:
    def test_degenerate_attenuation_gives_center_snr(self):
        model = BeamModel(snr_max_db=12.0, edge_loss_db=0.0, weather_mean_db=0.0,
                          n_receivers=50, seed=4)
        receivers = sample_receivers(model)
        assert all(r.snr_db == 12.0 for r in receivers)

    def test_never_exceeds_center_snr(self):
        model = BeamModel(snr_max_db=9.0, n_receivers=2000, seed=5)
        assert all(r.snr_db <= 9.0 for r in sample_receivers(model))

    def test_deterministic_and_labelled_from_one(self):
        model = BeamModel(n_receivers=10, seed=6)
        first = sample_receivers(model)
        second = sample_receivers(model)
        assert first == second
        assert [r.index for r in first] == list(range(1, 11))

    def test_mean_attenuation_matches_model(self):
        # E[edge * u^2] = edge/3; exponential mean adds directly
        model = BeamModel(
            snr_max_db=0.0, edge_loss_db=3.0, weather_mean_db=2.0,
            n_receivers=100_000, seed=7,
        )
        attenuation = np.array([-r.snr_db for r in sample_receivers(model)])
        expected = model.edge_loss_db / 3.0 + model.weather_mean_db
        assert attenuation.mean() == pytest.approx(expected, rel=0.02)


class TestPairProbability:
    def test_time_sharing_is_identity(self):
        model = BeamModel(snr_max_db=15.0, n_receivers=8, seed=8)
        samples = []
        for t in range(10):
            receivers = sample_receivers(replace(model, seed=model.seed + t))
            samples.append((receivers, Assignment.identity(8)))
        matrix = pair_probability_matrix(samples)
        assert np.array_equal(matrix, np.eye(8))

    def test_largest_diff_is_anti_diagonal_for_even_n(self):
        model = BeamModel(snr_max_db=15.0, n_receivers=8, seed=9)
        samples = []
        for t in range(10):
            receivers = sample_receivers(replace(model, seed=model.seed + t))
            samples.append((receivers, largest_diff_matching(receivers)))
        matrix = pair_probability_matrix(samples)
        assert np.array_equal(matrix, np.fliplr(np.eye(8)))

    def test_rows_sum_to_one_and_symmetric(self, table, capacity_model):
        model = BeamModel(snr_max_db=11.0, n_receivers=9, seed=10)
        samples = []
        for t in range(12):
            receivers = sample_receivers(replace(model, seed=model.seed + t))
            try:
                cost = build_cost_matrix(receivers, table, capacity_model)
            except UnschedulableReceiverError:
                continue
            report = quasi_optimal_matching(cost, receivers=receivers)
            samples.append((receivers, report.symmetric_assignment))
        matrix = pair_probability_matrix(samples)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(matrix, matrix.T)
        assert ((matrix >= 0.0) & (matrix <= 1.0)).all()

    def test_sorted_order_breaks_ties_by_position(self):
        receivers = [Receiver(1, 5.0), Receiver(2, 3.0), Receiver(3, 5.0)]
        assert snr_sorted_order(receivers) == [1, 0, 2]

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            pair_probability_matrix([])


class TestRunCampaign:
    def run_small(self, **overrides):
        params = dict(snr_max_db=10.0, n_receivers=12, seed=2)
        params.update(overrides)
        model = BeamModel(**params)
        return run_campaign(
            model, 12, table=default_modcod_table(), rate_model=HierRateModel()
        )

    def test_deterministic(self):
        first = self.run_small()
        second = self.run_small()
        assert summary_to_json_dict(first) == summary_to_json_dict(second)

    def test_bookkeeping_consistent(self):
        summary = self.run_small()
        assert summary.completed + len(summary.skipped) == summary.trials
        assert summary.success_count + summary.failure_count == summary.completed
        for skip in summary.skipped:
            assert "receiver" in skip.reason

    def test_time_sharing_gain_is_zero(self):
        summary = self.run_small()
        stats = summary.gains["time_sharing"]
        assert stats.mean == stats.min == stats.max == 0.0

    def test_gain_ordering(self):
        summary = self.run_small()
        gains = summary.gains
        assert gains["quasi_optimal"].mean >= gains["largest_diff"].mean - 1e-12
        assert gains["upper_bound"].mean >= gains["quasi_optimal"].mean - 1e-12
        assert gains["quasi_optimal"].min >= gains["largest_diff"].min - 1e-12

    def test_pair_probability_shape_and_invariants(self):
        summary = self.run_small()
        matrix = summary.pair_probability
        assert matrix.shape == (12, 12)
        assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9)
        assert np.array_equal(matrix, matrix.T)

    def test_trial_seeds_wrap_at_two_to_the_64(self, table, capacity_model, monkeypatch):
        drawn = []

        def recording_sample(model):
            receivers = sample_receivers(model)
            drawn.append(receivers)
            return receivers

        monkeypatch.setattr(channel_sim, "sample_receivers", recording_sample)
        top = 2**64 - 1
        model = BeamModel(snr_max_db=12.0, n_receivers=4, seed=top)
        summary = run_campaign(model, 2, table, capacity_model)
        assert summary.completed == 2
        assert drawn[1] == sample_receivers(replace(model, seed=0))

    def test_all_trials_skipped_raises(self, table, capacity_model):
        model = BeamModel(snr_max_db=-20.0, n_receivers=4, seed=0)
        with pytest.raises(UnschedulableReceiverError, match="every"):
            run_campaign(model, 3, table, capacity_model)

    def test_single_receiver_population_all_gains_zero(self, table, capacity_model):
        model = BeamModel(snr_max_db=15.0, n_receivers=1, seed=3)
        summary = run_campaign(model, 5, table, capacity_model)
        for stats in summary.gains.values():
            assert stats.mean == 0.0
        assert np.array_equal(summary.pair_probability, np.eye(1))

    def test_per_trial_efficiency_chain(self, table, capacity_model):
        # replicate the campaign's seed derivation and check the chain per trial
        model = BeamModel(snr_max_db=10.0, n_receivers=10, seed=30)
        for t in range(8):
            receivers = sample_receivers(replace(model, seed=model.seed + t))
            try:
                cost = build_cost_matrix(receivers, table, capacity_model)
            except UnschedulableReceiverError:
                continue
            report = quasi_optimal_matching(cost, receivers=receivers)
            r_ts = 1.0 / assignment_cost(cost, Assignment.identity(10))
            r_ld = 1.0 / assignment_cost(cost, largest_diff_matching(receivers))
            r_quasi = 1.0 / report.symmetric_cost
            r_bound = 1.0 / report.upper_bound_cost
            assert r_bound >= r_quasi - 1e-9
            assert r_quasi >= r_ld - 1e-9
            assert r_ld >= r_ts - 1e-9


def test_diagonal_mass_grows_where_pairing_gains_vanish():
    # two-point comparison with pinned pair rates: when pairing delivers less
    # than half the single rate the optimal grouping is all singles (identity
    # structure, zero gain); when it delivers nearly the single rate the
    # grouping pairs everyone (empty diagonal, positive gain)
    from hmgroup.rate_model import single_rate

    beam = BeamModel(snr_max_db=7.0, edge_loss_db=0.0, weather_mean_db=0.0,
                     n_receivers=6, seed=12)
    table = default_modcod_table()
    single = single_rate(7.0, table)
    summaries = {}
    for label, factor in (("vanishing", 0.4), ("strong", 0.9)):
        model = HierRateModel(pair_table={(7.0, 7.0): factor * single})
        summaries[label] = run_campaign(beam, 5, table, model)
    diag_mass = {k: float(np.trace(s.pair_probability)) for k, s in summaries.items()}
    assert diag_mass["vanishing"] == 6.0  # identity in every trial
    assert diag_mass["strong"] == 0.0  # fully paired in every trial
    assert summaries["vanishing"].gains["quasi_optimal"].mean == 0.0
    assert summaries["strong"].gains["quasi_optimal"].mean > 0.5


def test_summary_json_and_csv_serialization(tmp_path):
    model = BeamModel(snr_max_db=12.0, n_receivers=6, seed=11)
    summary = run_campaign(
        model, 4, table=default_modcod_table(), rate_model=HierRateModel()
    )
    body = summary_to_json_dict(summary)
    assert body["trials"] == 4
    # key order is part of the JSON output
    assert list(body["gains"]) == [
        "time_sharing", "largest_diff", "quasi_optimal", "upper_bound",
    ]
    path = tmp_path / "pp.csv"
    write_pair_probability_csv(summary.pair_probability, path)
    loaded = np.loadtxt(path, delimiter=",")
    assert np.array_equal(loaded, summary.pair_probability)


def test_pair_probability_csv_matches_per_entry_repr(tmp_path):
    # The writer formats each distinct bit pattern once; the bytes must equal
    # formatting every entry on its own.
    campaign = run_campaign(
        BeamModel(snr_max_db=12.0, n_receivers=40, seed=0), 3,
        table=default_modcod_table(), rate_model=HierRateModel(),
    )
    assert campaign.completed == 3
    matrices = [
        campaign.pair_probability,
        np.random.default_rng(5).random((300, 300)),
        np.array([[0.0, -0.0], [np.nan, 0.1]]),  # the two zeros print differently
    ]
    path = tmp_path / "pp.csv"
    for matrix in matrices:
        write_pair_probability_csv(matrix, path)
        rows = (",".join(repr(float(x)) for x in row) for row in matrix)
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def whole_matrix_csv(matrix: np.ndarray) -> bytes:
    """The pair-probability CSV as written before row blocks: one sort, lookup and
    cell array over the whole matrix. The reference the blocks must match byte
    for byte."""
    bits = np.ascontiguousarray(matrix, dtype=float).view(np.int64)
    ordered = np.sort(bits, axis=None)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    text = [repr(float(x)) for x in distinct.view(float)]
    at = np.searchsorted(distinct, bits)
    cells = np.array([t + "," for t in text], dtype="S")[at]
    cells[:, -1] = np.array([t + "\n" for t in text], dtype="S")[at[:, -1]]
    raw = cells.view(np.uint8)
    return raw[raw != 0].tobytes()


BLOCK = channel_sim._ROW_BLOCK


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 500, 501])
def test_pair_probability_csv_row_blocks_match_the_whole_matrix(tmp_path, n):
    rng = np.random.default_rng(n)
    frequencies = rng.integers(0, 7, (n, n)) / 6  # k / trials, as a campaign writes
    special = rng.random((n, n))
    for value in (0.0, -0.0, np.nan, -np.nan):  # equal or unordered as floats, not as bits
        special[rng.random((n, n)) < 0.1] = value
    special[-1, -1] = -0.0  # the last cell ends the file
    path = tmp_path / "pp.csv"
    for matrix in (frequencies, special, np.full((n, n), -0.0)):
        write_pair_probability_csv(matrix, path)
        assert path.read_bytes() == whole_matrix_csv(matrix)


def test_summary_json_dict_matches_asdict():
    # Built without asdict's deep copy of the matrix, the dict is the same.
    summary = run_campaign(
        BeamModel(snr_max_db=12.0, n_receivers=8, seed=4), 6,
        table=default_modcod_table(), rate_model=HierRateModel(),
    )
    assert summary.skipped and summary.completed
    reference = asdict(summary)
    matrix = reference.pop("pair_probability")
    assert summary_to_json_dict(summary, with_matrix=False) == reference
    with_matrix = summary_to_json_dict(summary)
    assert list(with_matrix) == [*reference, "pair_probability"]
    assert with_matrix == {**reference, "pair_probability": matrix.tolist()}
    assert type(with_matrix["skipped"]) is tuple and type(with_matrix["gains"]) is dict
