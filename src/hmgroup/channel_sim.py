"""Spot-beam receiver populations and the evaluation campaign.

Receiver SNRs degrade from the beam-center value through two attenuation
terms: a quadratic positional loss toward the beam edge and an exponentially
distributed weather loss. This parametric channel is a stand-in calibrated by
its two knobs, not a validated link budget; gain figures therefore depend on
it and only orderings and structural statistics are contractual.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .matching_core import Assignment, Receiver, UnschedulableReceiverError, build_cost_matrix
from .rate_model import HierRateModel, ModcodTable
from .strategies import quasi_optimal_matching, snr_sorted_order

__all__ = [
    "BeamModel",
    "GainStats",
    "SkippedTrial",
    "SimulationSummary",
    "sample_receivers",
    "pair_probability_matrix",
    "run_campaign",
    "summary_to_json_dict",
    "write_pair_probability_csv",
]

_ROW_BLOCK = 64  # matrix rows formatted per write

@dataclass(frozen=True)
class BeamModel:
    """Spot-beam population parameters; all SNRs are bounded by the center value."""

    snr_max_db: float = 9.0
    edge_loss_db: float = 3.0
    weather_mean_db: float = 2.0
    n_receivers: int = 500
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.snr_max_db):
            raise ValueError("snr_max_db must be finite")
        if not 0.0 <= self.edge_loss_db < math.inf:
            raise ValueError("edge_loss_db must be finite and >= 0")
        if not 0.0 <= self.weather_mean_db < math.inf:
            raise ValueError("weather_mean_db must be finite and >= 0")
        if self.n_receivers < 1:
            raise ValueError("n_receivers must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class GainStats:
    """Gain vs. time sharing over completed trials, as fractions."""

    mean: float
    min: float
    max: float


@dataclass(frozen=True)
class SkippedTrial:
    trial: int
    reason: str


@dataclass(frozen=True)
class SimulationSummary:
    n_receivers: int
    trials: int
    completed: int
    skipped: tuple[SkippedTrial, ...]
    gains: dict[str, GainStats]
    success_count: int
    failure_count: int
    pair_probability: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        matrix = np.asarray(self.pair_probability, dtype=np.float64).copy()
        matrix.setflags(write=False)
        object.__setattr__(self, "pair_probability", matrix)


def sample_receivers(model: BeamModel) -> list[Receiver]:
    """Draw one receiver population; deterministic for a fixed seed.

    Positional loss is ``edge_loss_db * u^2`` for u uniform on (0, 1), weather
    loss is exponential with the configured mean, so the expected total
    attenuation is ``edge_loss_db / 3 + weather_mean_db``.
    """
    rng = np.random.default_rng(model.seed)
    u = rng.random(model.n_receivers)
    weather = rng.exponential(scale=model.weather_mean_db, size=model.n_receivers)
    snrs = model.snr_max_db - model.edge_loss_db * u**2 - weather
    return [Receiver(index=i + 1, snr_db=float(s)) for i, s in enumerate(snrs)]


def pair_probability_matrix(samples: Iterable[tuple[Sequence[Receiver], Assignment]]) -> np.ndarray:
    """Per-entry frequency of assignment-matrix ones, on SNR-sorted positions.

    Every trial contributes a full symmetric permutation matrix, so each row
    of the result sums to one and the matrix stays symmetric.
    """
    counts: np.ndarray | None = None
    trials = 0
    for receivers, grouping in samples:
        n = len(receivers)
        if grouping.n != n:
            raise ValueError("assignment size does not match receiver count")
        if counts is None:
            counts = np.zeros((n, n))
        elif counts.shape[0] != n:
            raise ValueError("all samples must have the same receiver count")
        rank = np.empty(n, dtype=np.intp)
        rank[np.array(snr_sorted_order(receivers))] = np.arange(n)
        # one entry per row, so the indexed add never repeats an index pair
        counts[rank, rank[np.array(grouping.partner)]] += 1.0
        trials += 1
    if counts is None:
        raise ValueError("at least one sample required")
    return np.divide(counts, trials, out=counts)


def run_campaign(
    model: BeamModel, trials: int, table: ModcodTable, rate_model: HierRateModel
) -> SimulationSummary:
    """Evaluate every strategy over ``trials`` independent populations.

    Trial t samples receivers with seed ``model.seed + t`` modulo 2**64;
    trials containing an unschedulable receiver are recorded as skipped, not
    silently dropped. ``success_count`` counts trials proved optimal.
    Gains are fractions relative to time sharing; the pair-probability matrix
    accumulates the quasi-optimal groupings on SNR-sorted positions.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    skipped: list[SkippedTrial] = []
    gain_samples: dict[str, list[float]] = {}
    success_count = 0
    quasi_samples: list[tuple[list[Receiver], Assignment]] = []
    for t in range(trials):
        receivers = sample_receivers(replace(model, seed=(model.seed + t) % 2**64))
        try:
            cost = build_cost_matrix(receivers, table, rate_model)
        except UnschedulableReceiverError as exc:
            skipped.append(SkippedTrial(trial=t, reason=str(exc)))
            continue
        report = quasi_optimal_matching(cost, receivers=receivers)
        efficiency = {name: 1.0 / pick.cost for name, pick in report.baselines.items()}
        efficiency["quasi_optimal"] = 1.0 / report.symmetric_cost
        efficiency["upper_bound"] = 1.0 / report.upper_bound_cost
        for name, value in efficiency.items():
            gain = value / efficiency["time_sharing"] - 1.0
            gain_samples.setdefault(name, []).append(gain)
        success_count += report.success
        quasi_samples.append((receivers, report.symmetric_assignment))
    completed = len(quasi_samples)
    if completed == 0:
        raise UnschedulableReceiverError(
            f"every one of the {trials} trials contained an unschedulable receiver; "
            "raise snr_max_db or extend the MODCOD table"
        )
    gains = {
        name: GainStats(
            mean=float(np.mean(values)), min=float(np.min(values)), max=float(np.max(values))
        )
        for name, values in gain_samples.items()
    }
    return SimulationSummary(
        n_receivers=model.n_receivers,
        trials=trials,
        completed=completed,
        skipped=tuple(skipped),
        gains=gains,
        success_count=success_count,
        failure_count=completed - success_count,
        pair_probability=pair_probability_matrix(quasi_samples),
    )


def summary_to_json_dict(summary: SimulationSummary, with_matrix: bool = True) -> dict:
    """JSON-ready dict of every field; the pair-probability matrix becomes nested
    lists, or is left out without ``with_matrix``."""
    body = {**vars(summary), "skipped": tuple(map(asdict, summary.skipped))}  # no matrix copy
    body["gains"] = {name: asdict(stats) for name, stats in summary.gains.items()}
    matrix = body.pop("pair_probability")
    return {**body, "pair_probability": matrix.tolist()} if with_matrix else body


def write_pair_probability_csv(matrix: np.ndarray, dest) -> None:
    """Square CSV of the pair-probability matrix, for external heatmap plotting."""
    bits = np.ascontiguousarray(matrix, dtype=float).view(np.int64)
    # Entries are k / trials: per block of rows, format each bit pattern (so -0.0
    # stays -0.0) once, into NUL-padded cells ending in "," or, last in a row, "\n".
    with open(dest, "wb") as fh:
        for block in np.split(bits, range(_ROW_BLOCK, len(bits), _ROW_BLOCK)):
            ordered = np.sort(block, axis=None)
            distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
            text = [repr(float(x)) for x in distinct.view(float)]
            at = np.searchsorted(distinct, block)
            cells = np.array([t + "," for t in text], dtype="S")[at]
            cells[:, -1] = np.array([t + "\n" for t in text], dtype="S")[at[:, -1]]
            raw = cells.view(np.uint8)
            fh.write(raw[raw != 0].tobytes())
