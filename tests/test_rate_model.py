"""Tests for MODCOD tables, the pair-rate models and the shared CSV reader."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmgroup.cli import load_snr_csv
from hmgroup.matching_core import load_cost_csv
from hmgroup import rate_model
from hmgroup.rate_model import (
    HierRateModel,
    ModcodEntry,
    ModcodParseError,
    ModcodTable,
    load_modcod_table,
    load_pair_rate_table,
    pair_rate_matrix,
    single_rate,
)

snr_values = st.floats(min_value=-15.0, max_value=35.0, allow_nan=False)


def pair_rate(snr_i_db: float, snr_j_db: float, model: HierRateModel) -> float:
    """The rate of one pair, read off a two-receiver ``pair_rate_matrix``."""
    return float(pair_rate_matrix(np.array([snr_i_db, snr_j_db]), model)[0, 1])


def make_csv(rows: list[str]) -> bytes:
    header = "modulation,bits_per_symbol,code_rate,snr_threshold_db"
    return ("\n".join([header] + rows) + "\n").encode()


class TestModcodEntry:
    def test_spectral_efficiency(self):
        entry = ModcodEntry("QPSK", 2, 1 / 3, -1.0)
        assert entry.spectral_efficiency == pytest.approx(2 / 3)

    @pytest.mark.parametrize("bits", [0, 1, 6, 7])
    def test_rejects_unsupported_modulation_order(self, bits):
        with pytest.raises(ValueError, match="bits_per_symbol"):
            ModcodEntry("X", bits, 0.5, 0.0)

    @pytest.mark.parametrize("rate", [0.0, -0.1, 1.5])
    def test_rejects_bad_code_rate(self, rate):
        with pytest.raises(ValueError, match="code_rate"):
            ModcodEntry("QPSK", 2, rate, 0.0)


class TestLoadModcodTable:
    def test_default_table_is_clean(self, table):
        thresholds = [e.snr_threshold_db for e in table.entries]
        efficiencies = [e.spectral_efficiency for e in table.entries]
        assert all(a < b for a, b in zip(thresholds, thresholds[1:]))
        assert all(a <= b for a, b in zip(efficiencies, efficiencies[1:]))
        assert efficiencies[-1] == pytest.approx(4.5)

    def test_default_table_covers_eleven_code_rates_per_modulation(self):
        # the raw bundled file carries the full grid; cleaning only drops
        # rows that another (modulation, rate) makes redundant
        from importlib import resources

        raw = resources.files("hmgroup.data").joinpath("default_modcod.csv").read_text()
        rows = [line for line in raw.strip().splitlines()[1:] if line]
        assert len(rows) == 44
        rates = {line.split(",")[2] for line in rows}
        assert len(rates) == 11
        mods = {line.split(",")[0] for line in rows}
        assert mods == {"QPSK", "8PSK", "16APSK", "32APSK"}

    def test_dominated_row_removed(self):
        # middle row has a higher threshold than the first but less efficiency
        table = load_modcod_table(
            make_csv(
                [
                    "QPSK,2,1/2,0.0",
                    "QPSK,2,2/5,5.0",
                    "8PSK,3,2/3,6.0",
                ]
            )
        )
        names = [(e.modulation_name, e.code_rate) for e in table.entries]
        assert names == [("QPSK", 0.5), ("8PSK", 2 / 3)]

    def test_empty_file_rejected(self):
        with pytest.raises(ModcodParseError):
            load_modcod_table(b"")
        with pytest.raises(ModcodParseError, match="no data rows"):
            load_modcod_table(make_csv([]))

    def test_malformed_row_reports_row_number(self):
        with pytest.raises(ModcodParseError, match="row 2"):
            load_modcod_table(make_csv(["QPSK,2,1/2,0.0", "QPSK,two,1/3,1.0"]))

    def test_duplicate_operating_point_rejected(self):
        with pytest.raises(ModcodParseError, match="duplicate"):
            load_modcod_table(make_csv(["QPSK,2,1/2,0.0", "QPSK,2,1/2,3.0"]))

    def test_code_rate_accepts_fraction_and_decimal(self):
        table = load_modcod_table(make_csv(["QPSK,2,3/4,0.0", "8PSK,3,0.9,9.0"]))
        assert table.entries[0].code_rate == pytest.approx(0.75)
        assert table.entries[1].code_rate == pytest.approx(0.9)

    def test_accepts_file_object_and_path(self, tmp_path):
        payload = make_csv(["QPSK,2,1/2,0.0"])
        path = tmp_path / "modcod.csv"
        path.write_bytes(payload)
        assert len(load_modcod_table(path)) == 1
        assert len(load_modcod_table(io.BytesIO(payload))) == 1


class TestSingleRate:
    def test_below_all_thresholds_is_zero(self, table):
        assert single_rate(float("-inf"), table) == 0.0
        assert single_rate(-10.0, table) == 0.0

    def test_unbounded_snr_gets_best_entry(self, table):
        # oracle: plain scan over all table rows
        best = max(e.spectral_efficiency for e in table.entries)
        assert single_rate(float("inf"), table) == best == pytest.approx(4.5)

    def test_low_snr_selects_one_third_rate_qpsk(self, table):
        assert single_rate(-1.0, table) == pytest.approx(2 * (1 / 3))

    def test_threshold_is_inclusive(self, table):
        entry = table.entries[3]
        assert single_rate(entry.snr_threshold_db, table) == entry.spectral_efficiency

    def test_nan_rejected(self, table):
        with pytest.raises(ValueError, match="NaN"):
            single_rate(float("nan"), table)

    @given(a=snr_values, b=snr_values)
    def test_monotone_in_snr(self, table, a, b):
        lo, hi = sorted((a, b))
        assert single_rate(lo, table) <= single_rate(hi, table)


class TestHierRate:
    def test_symmetric_exactly(self, capacity_model):
        assert pair_rate(3.0, 17.0, capacity_model) == pair_rate(17.0, 3.0, capacity_model)

    @given(a=snr_values, b=snr_values)
    @settings(max_examples=40)
    def test_symmetry_and_capacity_bound(self, capacity_model, a, b):
        rate = pair_rate(a, b, capacity_model)
        assert rate == pair_rate(b, a, capacity_model)
        strongest = 10 ** (max(a, b) / 10)
        assert 0.0 < rate < math.log2(1.0 + strongest)

    def test_equal_snrs_match_dense_grid_scan(self, capacity_model):
        snr_linear = 10.0
        rate = pair_rate(10.0, 10.0, capacity_model)
        alphas = np.linspace(0.0, 1.0, 10**6)
        base = np.log2(1.0 + alphas * snr_linear / ((1.0 - alphas) * snr_linear + 1.0))
        refinement = np.log2(1.0 + (1.0 - alphas) * snr_linear)
        grid_best = float(np.minimum(base, refinement).max())
        assert rate == pytest.approx(grid_best, abs=1e-4)

    def test_split_balances_both_layers(self, capacity_model):
        # Every pair from -20 to 40 dB in 5 dB steps, equal pairs included.
        # The rate fixes the refinement share x through R = log2(1 + x s_strong);
        # the base layer, log2(1 + s_weak) - log2(1 + x s_weak), must carry
        # the same rate at that split.
        snrs = np.repeat(np.arange(-20.0, 45.0, 5.0), 2)
        rates = pair_rate_matrix(snrs, capacity_model)
        linear = 10.0 ** (snrs / 10.0)
        for i in range(len(snrs)):
            for j in range(i + 1, len(snrs)):
                s_weak, s_strong = sorted((linear[i], linear[j]))
                rate = rates[i, j]
                x = math.expm1(rate * math.log(2.0)) / s_strong
                base = (math.log1p(s_weak) - math.log1p(x * s_weak)) / math.log(2.0)
                assert base == pytest.approx(rate, rel=1e-12, abs=0.0)

    def test_equal_snrs_lose_to_single_layer(self, capacity_model):
        for snr_db in (0.0, 5.0, 10.0, 20.0):
            capacity = math.log2(1.0 + 10 ** (snr_db / 10))
            assert pair_rate(snr_db, snr_db, capacity_model) < capacity

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_snr_rejected(self, capacity_model, bad):
        with pytest.raises(ValueError, match="finite"):
            pair_rate(bad, 10.0, capacity_model)
        with pytest.raises(ValueError, match="finite"):
            pair_rate(10.0, bad, capacity_model)

    def test_matrix_matches_scalar_recomputation(self, capacity_model):
        # every entry of a 7-receiver matrix equals its pair solved on its own
        rng = np.random.default_rng(11)
        snrs = rng.uniform(-5.0, 20.0, size=7)
        matrix = pair_rate_matrix(snrs, capacity_model)
        assert np.array_equal(matrix, matrix.T)
        for i in range(7):
            assert matrix[i, i] == 0.0
            for j in range(i + 1, 7):
                assert matrix[i, j] == pytest.approx(
                    pair_rate(snrs[i], snrs[j], capacity_model), rel=1e-12
                )


def packed_pair_rate_matrix(snrs_db: np.ndarray) -> np.ndarray:
    """The capacity model as it was before row blocks: the closed form on the packed
    upper triangle, scattered into both triangles. The reference the blocks must
    match bit for bit."""
    n = len(snrs_db)
    out = np.zeros((n, n))
    iu, ju = np.triu_indices(n, k=1)
    s = rate_model._db_to_linear(snrs_db)
    weak, strong = np.minimum(s[iu], s[ju]), np.maximum(s[iu], s[ju])
    out[iu, ju] = out[ju, iu] = rate_model._balanced_superposition_rate(weak, strong)
    return out


BLOCK = rate_model._ROW_BLOCK


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 500, 501])
def test_row_blocks_match_the_packed_triangle(capacity_model, n):
    rng = np.random.default_rng(n)
    beam = 12.0 - 3.0 * rng.random(n) ** 2 - rng.exponential(2.0, n)
    wide = rng.uniform(-15.0, 35.0, n)
    wide[: n // 3] = wide[0]  # equal SNRs: both orders of a pair give one rate
    for snrs in (beam, wide):
        got = pair_rate_matrix(snrs, capacity_model)
        assert got.tobytes() == packed_pair_rate_matrix(snrs).tobytes()


class TestTableDrivenModel:
    def make_model(self):
        pairs = {(3.0, 17.0): 1.5, (5.0, 5.0): 0.9}
        return HierRateModel(pair_table=pairs)

    def test_lookup_is_order_insensitive(self):
        model = self.make_model()
        assert pair_rate(17.0, 3.0, model) == 1.5
        assert pair_rate(3.0, 17.0, model) == 1.5
        assert pair_rate(5.0, 5.0, model) == 0.9

    def test_missing_pair_is_input_error(self):
        with pytest.raises(ValueError, match=r"no rate for SNR pair \(1.0, 2.0\)"):
            pair_rate(2.0, 1.0, self.make_model())

    def test_load_pair_rate_table(self):
        payload = b"snr_i_db,snr_j_db,rate_bits_per_symbol\n17.0,3.0,1.5\n5.0,5.0,0.9\n"
        table = load_pair_rate_table(io.BytesIO(payload))
        assert table[(3.0, 17.0)] == 1.5
        assert table[(5.0, 5.0)] == 0.9

    def test_load_pair_rate_rejects_bad_rate(self):
        payload = b"snr_i_db,snr_j_db,rate_bits_per_symbol\n1.0,2.0,0.0\n"
        with pytest.raises(ModcodParseError, match="row 1"):
            load_pair_rate_table(io.BytesIO(payload))


def test_direct_table_construction_validates_order():
    entries = (
        ModcodEntry("QPSK", 2, 0.5, 3.0),
        ModcodEntry("QPSK", 2, 1 / 3, 0.0),
    )
    with pytest.raises(ValueError, match="strictly increasing"):
        ModcodTable(entries)


# Every CSV input goes through one reader. Per loader: its header (None when
# the format has none), one valid data row, and a row it must reject.
LOADERS = [
    pytest.param(
        load_modcod_table,
        "modulation,bits_per_symbol,code_rate,snr_threshold_db",
        "QPSK,2,1/2,1.0",
        "QPSK,2,1/2",
        id="modcod",
    ),
    pytest.param(
        load_pair_rate_table,
        "snr_i_db,snr_j_db,rate_bits_per_symbol",
        "1.0,2.0,1.5",
        "1.0,x,1.5",
        id="pair-rate",
    ),
    pytest.param(load_snr_csv, "receiver_id,snr_db", "1,5.0", "2,x", id="snr"),
    pytest.param(load_cost_csv, None, "1.0,2.0", "2.0", id="cost"),
]


def _csv_text(header: str | None, rows: list[str]) -> io.StringIO:
    lines = ([] if header is None else [header]) + rows
    return io.StringIO("".join(line + "\n" for line in lines))


class TestSharedCsvReader:
    @pytest.mark.parametrize("loader, header, good, bad", LOADERS)
    def test_empty_or_blank_only_file_rejected(self, loader, header, good, bad):
        with pytest.raises(ModcodParseError, match="empty|no data rows"):
            loader(io.StringIO(""))
        with pytest.raises(ModcodParseError, match="no data rows"):
            loader(_csv_text(header, ["", " , ", ""]))

    @pytest.mark.parametrize("loader, header, good, bad", LOADERS[:3])
    def test_wrong_header_rejected(self, loader, header, good, bad):
        with pytest.raises(ModcodParseError, match="expected header"):
            loader(_csv_text(header.replace("_", "-"), [good]))

    @pytest.mark.parametrize("loader, header, good, bad", LOADERS)
    def test_bad_row_after_blank_reports_physical_row(self, loader, header, good, bad):
        with pytest.raises(ModcodParseError, match="^row 3: ") as info:
            loader(_csv_text(header, [good, "", bad]))
        assert info.value.row == 3

    @pytest.mark.parametrize("loader, header, good, bad", LOADERS)
    def test_byte_sources_are_decoded(self, loader, header, good, bad):
        payload = _csv_text(header, [good, "", bad]).getvalue().encode("utf-8")
        for source in (bytearray(payload), io.BytesIO(payload)):
            with pytest.raises(ModcodParseError, match="^row 3: "):
                loader(source)

    def test_byte_sources_match_text(self):
        text = "modulation,bits_per_symbol,code_rate,snr_threshold_db\nQPSK\u00b7,2,1/2,1.0\n"
        expected = load_modcod_table(io.StringIO(text))
        assert expected.entries[0].modulation_name == "QPSK\u00b7"
        for source in (bytearray(text.encode()), io.BytesIO(text.encode())):
            assert load_modcod_table(source) == expected

    @pytest.mark.parametrize("loader, header, good, bad", LOADERS)
    def test_unsupported_source_type_rejected(self, loader, header, good, bad):
        with pytest.raises(TypeError, match="unsupported source type"):
            loader(42)

    def test_lone_carriage_returns_end_rows_in_streams(self):
        # csv reads "\r" as a line end in a stream as it does in a file
        receivers = load_snr_csv(io.StringIO("receiver_id,snr_db\r1,2.0\r2,3.0\r"))
        assert [(r.index, r.snr_db) for r in receivers] == [(1, 2.0), (2, 3.0)]
        with pytest.raises(ModcodParseError, match="^row 2: ") as info:
            load_snr_csv(io.StringIO("receiver_id,snr_db\r1,2.0\r2,x\r"))
        assert info.value.row == 2

    def test_bad_byte_reported_at_its_file_offset(self, tmp_path):
        rows = "".join(f"{k},{k / 7!r}\n" for k in range(1, 1000))
        payload = bytearray(("receiver_id,snr_db\n" + rows).encode())
        assert len(payload) > 16904
        payload[16903] = 0xFF
        path = tmp_path / "snr.csv"
        path.write_bytes(payload)
        for source in (path, str(path), io.BytesIO(payload), bytes(payload)):
            with pytest.raises(UnicodeDecodeError, match="in position 16903:"):
                load_snr_csv(source)
