"""Command-line front end: solve, simulate, oracle and count workflows.

All commands are deterministic under fixed flags and emit machine-readable
output (JSON by default). Exit codes: 0 on success, 1 when ``solve`` ships a
grouping it could not prove optimal (the branch-and-bound hit its node cap),
2 on any input error, including a flag this version no longer has.

Schema 2 (exact search, replacing schema 1's perturbation loop): ``success``
now means proved optimal; ``retries_used`` became ``nodes``; ``source`` and
``lower_bound`` are new; ``--sigma``, ``--max-retries``, the ``solve`` and
``oracle`` ``--seed`` and the ``simulate`` record's ``perturb`` block are gone.
``simulate --seed`` still seeds the receiver populations.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .channel_sim import BeamModel, run_campaign, summary_to_json_dict, write_pair_probability_csv
from .matching_core import (
    Assignment, Receiver, brute_force_optimal_permutation, brute_force_optimal_symmetric,
    build_cost_matrix, count_strategies, load_cost_csv,
)
from .rate_model import (
    HierRateModel, ModcodParseError, _csv_rows, default_modcod_table, load_modcod_table,
    load_pair_rate_table,
)
from .strategies import Candidate, quasi_optimal_matching

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_NOT_PROVED = 1
EXIT_INPUT_ERROR = 2


def load_snr_csv(path) -> list[Receiver]:
    """Read receivers from CSV with header ``receiver_id,snr_db``."""
    receivers: list[Receiver] = []
    seen: set[int] = set()
    for row_no, row in _csv_rows(path, "SNR file", ["receiver_id", "snr_db"], 2):
        try:
            receiver = Receiver(index=int(row[0]), snr_db=float(row[1]))
        except ValueError as exc:
            raise ModcodParseError(str(exc), row=row_no) from None
        if receiver.index in seen:
            raise ModcodParseError(f"duplicate receiver_id {receiver.index}", row=row_no)
        seen.add(receiver.index)
        receivers.append(receiver)
    return receivers


def _build_rate_model(args) -> HierRateModel:
    if args.pair_model == "table":
        if args.pair_table is None:
            raise ValueError("--pair-model table requires --pair-table")
        return HierRateModel(pair_table=load_pair_rate_table(args.pair_table))
    if args.pair_table is not None:
        raise ValueError("--pair-table is only valid with --pair-model table")
    return HierRateModel()


def _load_table(args):
    return default_modcod_table() if args.modcod is None else load_modcod_table(args.modcod)


def _flatten(record: dict, prefix: str = "") -> list[tuple[str, str]]:
    rows: list[tuple[str, str]] = []
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}_"))
        elif isinstance(value, list):
            rows.append((name, " ".join(str(v) for v in value)))
        else:
            rows.append((name, json.dumps(value)))
    return rows


def _emit(record: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(record, indent=2) + "\n"
    else:
        lines = ["key,value"]
        lines.extend(f"{key},{value}" for key, value in _flatten(record))
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _one_based(assignment: Assignment) -> list[int]:
    return [j + 1 for j in assignment.partner]


def cmd_solve(args) -> int:
    if args.cost_csv is not None:
        cost, receivers = load_cost_csv(args.cost_csv), None
    else:
        receivers = load_snr_csv(args.snr_csv)
        cost = build_cost_matrix(receivers, _load_table(args), _build_rate_model(args))
    report = quasi_optimal_matching(cost, receivers=receivers)
    shipped = Candidate(report.symmetric_assignment, report.symmetric_cost)
    strategies = {
        name: {
            "cost": pick.cost,
            "efficiency": 1.0 / pick.cost,
            "partner": _one_based(pick.assignment),
        }
        for name, pick in {**report.baselines, "quasi_optimal": shipped}.items()
    }
    record = {
        "schema": SCHEMA_VERSION,
        "command": "solve",
        "n": cost.n,
        "upper_bound_cost": report.upper_bound_cost,
        "upper_bound_efficiency": 1.0 / report.upper_bound_cost,
        "lower_bound": report.lower_bound,
        "success": report.success,
        "source": report.source,
        "nodes": report.nodes,
        "assignment": {"partner": _one_based(report.symmetric_assignment)},
        "symmetric_cost": report.symmetric_cost,
        "spectrum_efficiency": 1.0 / report.symmetric_cost,
        "gap_fraction": report.gap_fraction,
        "strategies": strategies,
    }
    _emit(record, args.out, args.format)
    return EXIT_OK if report.success else EXIT_NOT_PROVED


def cmd_simulate(args) -> int:
    model = BeamModel(
        snr_max_db=args.snr_max,
        edge_loss_db=args.edge_loss,
        weather_mean_db=args.weather_mean,
        n_receivers=args.receivers,
        seed=args.seed,
    )
    summary = run_campaign(model, args.trials, _load_table(args), _build_rate_model(args))
    record = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "model": asdict(model),
        "summary": summary_to_json_dict(summary, with_matrix=args.out is None),
    }
    if args.out is None:
        _emit(record, None, "json")
    else:
        out = Path(args.out)
        csv_path = out.with_name(out.stem + "_pair_probability.csv")
        record["pair_probability_csv"] = csv_path.name
        _emit(record, args.out, "json")
        write_pair_probability_csv(summary.pair_probability, csv_path)
    return EXIT_OK


def cmd_oracle(args) -> int:
    cost = load_cost_csv(args.cost_csv)
    _, brute_perm_cost = brute_force_optimal_permutation(cost)
    _, brute_inv_cost = brute_force_optimal_symmetric(cost)
    report = quasi_optimal_matching(cost)
    bound = report.upper_bound_cost
    tol = 1e-9
    checks = {
        "hungarian_matches_brute_permutation": abs(bound - brute_perm_cost) <= tol,
        "involution_cost_at_least_permutation": brute_inv_cost >= brute_perm_cost - tol,
        "heuristic_at_least_involution_optimum": report.symmetric_cost >= brute_inv_cost - tol,
        "heuristic_at_least_upper_bound": report.symmetric_cost >= bound - tol,
    }
    record = {
        "schema": SCHEMA_VERSION,
        "command": "oracle",
        "n": cost.n,
        "hungarian_cost": bound,
        "brute_permutation_cost": brute_perm_cost,
        "brute_involution_cost": brute_inv_cost,
        "heuristic_cost": report.symmetric_cost,
        "upper_bound_efficiency": 1.0 / bound,
        "checks": checks,
        "all_checks_pass": all(checks.values()),
    }
    _emit(record, args.out, args.format)
    return EXIT_OK


def cmd_count(args) -> int:
    sys.stdout.write(f"{count_strategies(args.n)}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmgroup",
        description=(
            "Receiver grouping for broadcast time sharing with two-layer "
            "hierarchical modulation."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_rate_flags(p):
        p.add_argument("--modcod", metavar="PATH", help="MODCOD CSV (default: bundled table)")
        p.add_argument(
            "--pair-model", choices=("capacity", "table"), default="capacity",
            help="pair-rate model (default: balanced superposition capacity)",
        )
        p.add_argument("--pair-table", metavar="PATH", help="pair-rate CSV for --pair-model table")

    def add_output_flags(p):
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    solve = sub.add_parser("solve", help="compute the quasi-optimal grouping")
    group = solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--cost-csv", metavar="PATH", help="square cost matrix CSV")
    group.add_argument("--snr-csv", metavar="PATH", help="receiver list CSV (receiver_id,snr_db)")
    add_rate_flags(solve)
    add_output_flags(solve)
    solve.set_defaults(func=cmd_solve)

    simulate = sub.add_parser("simulate", help="run a spot-beam evaluation campaign")
    simulate.add_argument("--snr-max", type=float, default=9.0, help="SNR at beam center (dB)")
    simulate.add_argument("--receivers", type=int, default=500)
    simulate.add_argument("--trials", type=int, default=100)
    simulate.add_argument("--edge-loss", type=float, default=3.0, help="max positional loss (dB)")
    simulate.add_argument("--weather-mean", type=float, default=2.0, help="mean weather loss (dB)")
    simulate.add_argument("--seed", type=int, default=0, help="seed of trial 0's population")
    add_rate_flags(simulate)
    simulate.add_argument("--out", metavar="PATH", help="summary JSON path (default: stdout)")
    simulate.set_defaults(func=cmd_simulate)

    oracle = sub.add_parser("oracle", help="cross-check solvers on a small matrix")
    oracle.add_argument("--cost-csv", metavar="PATH", required=True)
    add_output_flags(oracle)
    oracle.set_defaults(func=cmd_oracle)

    count = sub.add_parser("count", help="number of possible groupings of n receivers")
    count.add_argument("n", type=int)
    count.set_defaults(func=cmd_count)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
