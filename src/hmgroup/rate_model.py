"""SNR-to-rate models.

Maps receiver SNRs to achievable spectral efficiencies, both for a single
receiver served with its best MODCOD and for a pair of receivers sharing one
transmission through two-layer superposition.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import IO, Iterator, Mapping

import numpy as np

__all__ = [
    "ModcodEntry",
    "ModcodTable",
    "ModcodParseError",
    "HierRateModel",
    "single_rate",
    "pair_rate_matrix",
    "load_modcod_table",
    "load_pair_rate_table",
    "default_modcod_table",
]

# Modulations supported by the bundled table family (QPSK through 32-APSK).
ALLOWED_BITS_PER_SYMBOL = (2, 3, 4, 5)

_MODCOD_HEADER = ["modulation", "bits_per_symbol", "code_rate", "snr_threshold_db"]
_PAIR_TABLE_HEADER = ["snr_i_db", "snr_j_db", "rate_bits_per_symbol"]
_ROW_BLOCK = 64  # pair-rate rows computed at a time


class ModcodParseError(ValueError):
    """An input CSV (MODCOD, pair-rate, SNR list or cost matrix) could not be parsed.

    ``row`` is the 1-based data row number when the failure is row-specific.
    """

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ModcodEntry:
    """One (modulation, code rate) operating point with its usability threshold."""

    modulation_name: str
    bits_per_symbol: int
    code_rate: float
    snr_threshold_db: float

    def __post_init__(self) -> None:
        if self.bits_per_symbol not in ALLOWED_BITS_PER_SYMBOL:
            raise ValueError(
                f"bits_per_symbol must be one of {ALLOWED_BITS_PER_SYMBOL}, "
                f"got {self.bits_per_symbol}"
            )
        if not 0.0 < self.code_rate <= 1.0:
            raise ValueError(f"code_rate must be in (0, 1], got {self.code_rate}")
        if not math.isfinite(self.snr_threshold_db):
            raise ValueError("snr_threshold_db must be finite")

    @property
    def spectral_efficiency(self) -> float:
        """Delivered bits per channel symbol when this entry is selected."""
        return self.bits_per_symbol * self.code_rate


@dataclass(frozen=True)
class ModcodTable:
    """Cleaned MODCOD entries, sorted by threshold.

    Construction requires entries already cleaned: thresholds strictly
    increasing and efficiencies non-decreasing. ``load_modcod_table`` performs
    the cleaning (sort, dedup, dominated-row removal).
    """

    entries: tuple[ModcodEntry, ...]
    _thresholds: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("ModcodTable must contain at least one entry")
        thresholds = tuple(e.snr_threshold_db for e in self.entries)
        for a, b in zip(thresholds, thresholds[1:]):
            if not a < b:
                raise ValueError("thresholds must be strictly increasing")
        effs = [e.spectral_efficiency for e in self.entries]
        for a, b in zip(effs, effs[1:]):
            if b < a:
                raise ValueError("spectral efficiency must be non-decreasing in threshold")
        object.__setattr__(self, "_thresholds", thresholds)

    def __len__(self) -> int:
        return len(self.entries)

    def best_entry(self, snr_db: float) -> ModcodEntry | None:
        """Highest-efficiency entry usable at ``snr_db``, or None if none qualifies."""
        if math.isnan(snr_db):
            raise ValueError("snr_db must not be NaN")
        pos = bisect_right(self._thresholds, snr_db)
        return self.entries[pos - 1] if pos else None


def single_rate(snr_db: float, table: ModcodTable) -> float:
    """Best single-receiver spectral efficiency at ``snr_db``.

    Returns 0.0 when the SNR is below every threshold; callers decide whether
    an unreachable receiver is fatal.
    """
    entry = table.best_entry(snr_db)
    return 0.0 if entry is None else entry.spectral_efficiency


@dataclass(frozen=True)
class HierRateModel:
    """How the shared rate of a receiver pair is computed.

    Without a ``pair_table`` (the default) this is the balanced two-layer
    superposition rate: split unit transmit power between a base layer decoded
    by the weaker receiver (treating the refinement layer as noise) and a
    refinement layer decoded by the stronger receiver after cancelling the
    base layer, then pick the split where both layers carry the same rate.
    With a ``pair_table`` the pair rate is instead looked up from externally
    supplied values keyed by the SNR pair, weaker first.
    """

    pair_table: Mapping[tuple[float, float], float] | None = None


def _db_to_linear(snr_db):
    return 10.0 ** (np.asarray(snr_db, dtype=np.float64) / 10.0)


def _balanced_superposition_rate(s_weak: np.ndarray, s_strong: np.ndarray) -> np.ndarray:
    """Balanced two-layer rate for linear-SNR arrays (elementwise), in closed form.

    With refinement power share x = 1 - alpha, the base layer carries
    log2(1 + (1 - x) s_w / (x s_w + 1)) and the refinement layer
    log2(1 + x s_s). The first falls and the second rises with x, so the
    max-min split is where they meet: the positive root of
    s_w s_s x^2 + (s_w + s_s) x - s_w = 0, taken in its cancellation-free form.
    """
    total = s_weak + s_strong
    x = 2.0 * s_weak / (total + np.sqrt(total * total + 4.0 * s_weak * s_weak * s_strong))
    return np.log1p(x * s_strong) / math.log(2.0)


def pair_rate_matrix(snrs_db: np.ndarray, model: HierRateModel) -> np.ndarray:
    """Symmetric n x n matrix of pair rates for every receiver pair.

    The diagonal is left at 0 (a receiver is never paired with itself). A
    model's ``pair_table`` must hold a rate for every SNR pair present.
    """
    snrs = np.asarray(snrs_db, dtype=np.float64)
    if snrs.ndim != 1:
        raise ValueError("snrs_db must be one-dimensional")
    if not np.isfinite(snrs).all():
        raise ValueError("pair SNRs must be finite")
    n = snrs.shape[0]
    out = np.zeros((n, n))
    if model.pair_table is None:  # whole rows, both triangles, a block at a time
        s = _db_to_linear(snrs)
        for lo in range(0, n, _ROW_BLOCK):
            r = s[lo : lo + _ROW_BLOCK, None]
            out[lo : lo + len(r)] = _balanced_superposition_rate(np.minimum(r, s), np.maximum(r, s))
        np.fill_diagonal(out, 0.0)
        return out
    iu, ju = np.triu_indices(n, k=1)
    weak, strong = np.minimum(snrs[iu], snrs[ju]), np.maximum(snrs[iu], snrs[ju])
    try:
        rates = np.array(
            [model.pair_table[pair] for pair in zip(weak.tolist(), strong.tolist())],
            dtype=np.float64,
        )
    except KeyError as exc:
        raise ValueError(f"pair table has no rate for SNR pair {exc.args[0]}") from None
    out[iu, ju] = out[ju, iu] = rates
    return out


def _parse_code_rate(text: str) -> float:
    text = text.strip()
    return float(Fraction(text)) if "/" in text else float(text)


def _open_source(source) -> IO[str]:
    # Decoded whole, so errors give file offsets; newline="" lets csv end rows at "\r".
    if isinstance(source, (str, Path)):
        source = Path(source).read_bytes()
    data = source.read() if hasattr(source, "read") else source
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if not isinstance(data, str):
        raise TypeError(f"unsupported source type: {type(source)!r}")
    return io.StringIO(data, newline="")


def _csv_rows(
    source, what: str, header: list[str], n_fields: int
) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(data-row number, fields)`` for each non-blank row of a CSV source.

    Checks ``header`` and ``n_fields``. Rows are numbered from 1 after the
    header, blank rows included; ``what`` names the source in errors. A source
    without data rows is rejected only once it is exhausted.
    """
    with _open_source(source) as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader)
        except StopIteration:
            raise ModcodParseError(f"empty {what}") from None
        if [h.strip() for h in got] != header:
            raise ModcodParseError(f"expected header {','.join(header)!r}, got {','.join(got)!r}")
        any_rows = False
        for row_no, row in enumerate(reader, start=1):
            if not any(cell.strip() for cell in row):
                continue
            if len(row) != n_fields:
                raise ModcodParseError(f"expected {n_fields} fields, got {len(row)}", row=row_no)
            any_rows = True
            yield row_no, row
    if not any_rows:
        raise ModcodParseError(f"{what} contains no data rows")


def load_modcod_table(source) -> ModcodTable:
    """Parse, validate and clean a MODCOD CSV.

    Expected header: ``modulation,bits_per_symbol,code_rate,snr_threshold_db``.
    Code rates are accepted as ``p/q`` or decimal. Rows are sorted by
    threshold; duplicate operating points are rejected, rows made redundant by
    a cheaper-or-equal threshold with at least the same efficiency are dropped.
    """
    entries: list[ModcodEntry] = []
    seen: set[tuple[str, float]] = set()
    for row_no, row in _csv_rows(source, "MODCOD file", _MODCOD_HEADER, 4):
        name = row[0].strip()
        try:
            bits = int(row[1])
            rate = _parse_code_rate(row[2])
            threshold = float(row[3])
            entry = ModcodEntry(name, bits, rate, threshold)
        except (ValueError, ZeroDivisionError) as exc:
            raise ModcodParseError(str(exc), row=row_no) from None
        key = (name, rate)
        if key in seen:
            raise ModcodParseError(
                f"duplicate (modulation, code_rate) = ({name}, {row[2].strip()})", row=row_no
            )
        seen.add(key)
        entries.append(entry)
    # remove dominated rows: scan by ascending threshold (best efficiency
    # first among equal thresholds) and keep only strict efficiency gains
    entries.sort(key=lambda e: (e.snr_threshold_db, -e.spectral_efficiency))
    cleaned: list[ModcodEntry] = []
    best_eff = 0.0
    for entry in entries:
        if entry.spectral_efficiency > best_eff:
            cleaned.append(entry)
            best_eff = entry.spectral_efficiency
    return ModcodTable(tuple(cleaned))


def load_pair_rate_table(source) -> dict[tuple[float, float], float]:
    """Parse a pair-rate CSV into the ``HierRateModel.pair_table`` lookup.

    Expected header: ``snr_i_db,snr_j_db,rate_bits_per_symbol``. Keys are
    stored with the SNR pair sorted, so lookups are order-insensitive; rates
    must be strictly positive.
    """
    table: dict[tuple[float, float], float] = {}
    for row_no, row in _csv_rows(source, "pair-rate file", _PAIR_TABLE_HEADER, 3):
        try:
            snr_i, snr_j, rate = (float(cell) for cell in row)
        except ValueError as exc:
            raise ModcodParseError(str(exc), row=row_no) from None
        if not (math.isfinite(snr_i) and math.isfinite(snr_j)):
            raise ModcodParseError("pair SNRs must be finite", row=row_no)
        if not rate > 0.0:
            raise ModcodParseError(f"pair rate must be positive, got {rate}", row=row_no)
        key = (min(snr_i, snr_j), max(snr_i, snr_j))
        if key in table:
            raise ModcodParseError(f"duplicate SNR pair {key}", row=row_no)
        table[key] = rate
    return table


@lru_cache(maxsize=1)
def default_modcod_table() -> ModcodTable:
    """The bundled table: QPSK through 32-APSK at the eleven standard code rates.

    Thresholds are synthetic: each operating point is assumed usable where
    AWGN capacity reaches 1.25x its spectral efficiency. Replace with measured
    thresholds via ``load_modcod_table`` for any real link analysis.
    """
    data = resources.files("hmgroup.data").joinpath("default_modcod.csv").read_bytes()
    return load_modcod_table(data)
