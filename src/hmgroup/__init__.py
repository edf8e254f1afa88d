"""Quasi-optimal receiver grouping for broadcast systems that combine time
sharing with two-layer hierarchical modulation."""

from .channel_sim import (
    BeamModel, GainStats, SimulationSummary, SkippedTrial, pair_probability_matrix, run_campaign,
    sample_receivers,
)
from .hungarian import HungarianSolution, hungarian_solve
from .matching_core import (
    Assignment, CostMatrix, Receiver, UnschedulableReceiverError, assignment_cost,
    brute_force_optimal_permutation, brute_force_optimal_symmetric, build_cost_matrix,
    count_strategies, load_cost_csv,
)
from .rate_model import (
    HierRateModel, ModcodEntry, ModcodParseError, ModcodTable, default_modcod_table,
    load_modcod_table, load_pair_rate_table, single_rate,
)
from .strategies import Candidate, MatchingReport, largest_diff_matching, quasi_optimal_matching

__version__ = "0.1.0"

__all__ = [
    "__version__", "Assignment", "BeamModel", "Candidate", "CostMatrix", "GainStats",
    "HierRateModel", "HungarianSolution", "MatchingReport", "ModcodEntry", "ModcodParseError",
    "ModcodTable", "Receiver", "SimulationSummary", "SkippedTrial", "UnschedulableReceiverError",
    "assignment_cost", "brute_force_optimal_permutation", "brute_force_optimal_symmetric",
    "build_cost_matrix", "count_strategies", "default_modcod_table",
    "hungarian_solve", "largest_diff_matching", "load_cost_csv", "load_modcod_table",
    "load_pair_rate_table", "pair_probability_matrix", "quasi_optimal_matching", "run_campaign",
    "sample_receivers", "single_rate",
]
