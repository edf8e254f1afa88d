"""Span tracing from outside the library, for the benchmark's traced run.

Each wrapped name is replaced in the namespace where its caller looks it up
(``strategies.hungarian_solve``, ``channel_sim.build_cost_matrix``, ...), so
the library itself is untouched and the untraced run pays nothing. Spans are
kept in memory as ``[name, start, end, parent]`` and written out at exit; a
layer is the part of a span name before the first dot.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("rate_model", "matching_core", "hungarian", "strategies", "channel_sim", "cli")

# (module whose global is patched, attribute, span name). Span names use the
# layer that owns the work; the pair-probability CSV write is the CLI's output
# stage even though the writer lives in channel_sim.
WRAPS = (
    ("cli", "load_snr_csv", "cli.load_snr_csv"),
    ("cli", "write_pair_probability_csv", "cli.write_pair_probability_csv"),
    ("cli", "load_cost_csv", "matching_core.load_cost_csv"),
    ("cli", "build_cost_matrix", "matching_core.build_cost_matrix"),
    ("cli", "assignment_cost", "matching_core.assignment_cost"),
    ("cli", "spectrum_efficiency", "matching_core.spectrum_efficiency"),
    ("cli", "quasi_optimal_matching", "strategies.quasi_optimal_matching"),
    ("cli", "time_sharing", "strategies.time_sharing"),
    ("cli", "largest_diff_matching", "strategies.largest_diff_matching"),
    ("cli", "largest_diff_from_costs", "strategies.largest_diff_from_costs"),
    ("cli", "run_campaign", "channel_sim.run_campaign"),
    ("cli", "summary_to_json_dict", "channel_sim.summary_to_json_dict"),
    ("channel_sim", "sample_receivers", "channel_sim.sample_receivers"),
    ("channel_sim", "pair_probability_matrix", "channel_sim.pair_probability_matrix"),
    ("channel_sim", "build_cost_matrix", "matching_core.build_cost_matrix"),
    ("channel_sim", "spectrum_efficiency", "matching_core.spectrum_efficiency"),
    ("channel_sim", "quasi_optimal_matching", "strategies.quasi_optimal_matching"),
    ("channel_sim", "time_sharing", "strategies.time_sharing"),
    ("channel_sim", "largest_diff_matching", "strategies.largest_diff_matching"),
    ("strategies", "hungarian_solve", "hungarian.hungarian_solve"),
    ("strategies", "perturb", "strategies.perturb"),
    ("strategies", "assignment_cost", "matching_core.assignment_cost"),
    ("matching_core", "single_rate", "rate_model.single_rate"),
    ("matching_core", "pair_rate_matrix", "rate_model.pair_rate_matrix"),
)


def _count_result(counts: Counter, name: str, args: tuple, result) -> None:
    # Counts taken at the same boundary as the span.
    if name == "hungarian.hungarian_solve":
        counts["hungarian.symmetric"] += bool(result.is_symmetric)
    elif name == "rate_model.pair_rate_matrix":
        n = len(args[0])
        counts["rate_model.pairs"] += n * (n - 1) // 2
    elif name == "channel_sim.run_campaign":
        counts["channel_sim.trials"] += result.trials
        counts["channel_sim.completed"] += result.completed


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            _count_result(counts, name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every WRAPS entry for the duration of the block.

        Names a later version of the library no longer has are skipped; their
        metrics then read 0.
        """
        saved = []
        try:
            for module_name, attr, span_name in WRAPS:
                module = importlib.import_module(f"hmgroup.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": self.spans}),
            encoding="utf-8",
        )


def ratio(part: float, whole: float) -> float:
    """part / whole, or 0 when nothing was counted."""
    return part / whole if whole else 0.0


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers as (value, unit); seconds and counts are per traced invocation."""
    spans = tracer.spans
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for (name, start, end, _), self_s in zip(spans, self_times(spans)):
        total[name] += end - start
        own[name] += self_s
        own[name.split(".", 1)[0]] += self_s
        calls[name] += 1
    c = tracer.counts
    seconds = {f"{layer}.self_s": own[layer] for layer in LAYERS}
    seconds.update({
        "rate_model.pair_rate_matrix.s": total["rate_model.pair_rate_matrix"],
        "matching_core.build_cost_matrix.self_s": own["matching_core.build_cost_matrix"],
        "matching_core.load_cost_csv.s": total["matching_core.load_cost_csv"],
        "hungarian.hungarian_solve.s": total["hungarian.hungarian_solve"],
        "strategies.quasi_optimal_matching.self_s": own["strategies.quasi_optimal_matching"],
        "strategies.perturb.s": total["strategies.perturb"],
        "channel_sim.sample_receivers.s": total["channel_sim.sample_receivers"],
        "channel_sim.pair_probability_matrix.s": total["channel_sim.pair_probability_matrix"],
        "channel_sim.run_campaign.self_s": own["channel_sim.run_campaign"],
        "cli.load_snr_csv.s": total["cli.load_snr_csv"],
        "cli.write_pair_probability_csv.s": total["cli.write_pair_probability_csv"],
    })
    counts = {
        "rate_model.pairs": c["rate_model.pairs"],
        "hungarian.calls": calls["hungarian.hungarian_solve"],
        "strategies.retries": calls["strategies.perturb"],
    }
    out = {name: (value / ops, "s") for name, value in seconds.items()}
    out.update({name: (value / ops, "count") for name, value in counts.items()})
    solves = calls["hungarian.hungarian_solve"]
    trials = c["channel_sim.trials"]
    out["hungarian.s_per_call"] = (ratio(total["hungarian.hungarian_solve"], solves), "s")
    out["strategies.symmetric_hit_ratio"] = (ratio(c["hungarian.symmetric"], solves), "share")
    out["channel_sim.completed_share"] = (ratio(c["channel_sim.completed"], trials), "share")
    return out
