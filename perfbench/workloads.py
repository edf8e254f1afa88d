"""The benchmark's workloads: input generators, CLI arguments, output checks.

Each workload yields batches of CLI invocations; the run loop only stops at
a batch boundary. The program sees nothing but the generated files and flags.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from itertools import count
from pathlib import Path

import numpy as np

from check import assignment_bound, check_campaign, check_solve, exact_optimum

POOL_SEED = 14064491
# The paper workload W1: hmgroup's BeamModel at a 12 dB beam centre.
BEAM = {
    "snr_max_db": 12.0,
    "edge_loss_db": 3.0,
    "weather_mean_db": 2.0,
    "n_receivers": 500,
    "pool": 5,
    "pool_seed": POOL_SEED,
}
# The tie-heavy W2 matrices: entries uniform on {0.50, 0.51, ..., 2.00}.
TIES = {"n": 200, "low_hundredths": 50, "high_hundredths": 200, "pool": 16, "pool_seed": POOL_SEED}
CAMPAIGN = {"snr_max_db": 12.0, "receivers": 500, "trials": 2, "per_batch": 8}

OPTIMA_PATH = Path(__file__).with_name("ties_optima.json")


@dataclass
class Op:
    name: str  # output file stem, unique within a run
    args: list[str]  # CLI arguments, without --out
    key: int = 0  # which generated input the op reads


@dataclass
class Outcome:
    problems: list[str]
    solves: int = 0
    fallbacks: int = 0
    gap_to_bound_pct: list[float] = field(default_factory=list)
    gap_to_optimum_pct: list[float] = field(default_factory=list)


def modcod_floor_db() -> float:
    """Lowest SNR threshold of the bundled MODCOD table."""
    from hmgroup.rate_model import default_modcod_table

    return min(entry.snr_threshold_db for entry in default_modcod_table().entries)


def beam_population(rng: np.random.Generator, floor_db: float) -> tuple[np.ndarray, int]:
    """SNRs of ``BEAM['n_receivers']`` receivers that can lock onto the carrier.

    Draws the beam model (quadratic positional loss plus exponential weather
    loss) until enough draws reach ``floor_db``; returns them with the number
    of draws dropped below it.
    """
    n = BEAM["n_receivers"]
    kept: list[float] = []
    dropped = 0
    while len(kept) < n:
        u = rng.random(n)
        weather = rng.exponential(BEAM["weather_mean_db"], n)
        snr = BEAM["snr_max_db"] - BEAM["edge_loss_db"] * u**2 - weather
        usable = snr >= floor_db
        take = np.flatnonzero(usable)[: n - len(kept)]
        consumed = take[-1] + 1 if len(kept) + len(take) == n else n
        dropped += int((~usable[:consumed]).sum())
        kept.extend(snr[take].tolist())
    return np.array(kept), dropped


def snr_csv(snrs: np.ndarray) -> str:
    return "receiver_id,snr_db\n" + "".join(
        f"{i},{s!r}\n" for i, s in enumerate(snrs.tolist(), start=1)
    )


def ties_matrix(k: int) -> np.ndarray:
    """Instance ``k`` of the pinned tie-heavy pool: symmetric, multiples of 0.01."""
    rng = np.random.default_rng([TIES["pool_seed"], k])
    n = TIES["n"]
    hundredths = rng.integers(TIES["low_hundredths"], TIES["high_hundredths"] + 1, size=(n, n))
    upper = np.triu(hundredths)
    return (upper + np.triu(upper, 1).T) / 100


def cost_csv(matrix: np.ndarray) -> str:
    return "".join(",".join(repr(v) for v in row) + "\n" for row in matrix.tolist())


def _solve_outcome(report: dict, problems: list[str], optimum: float | None) -> Outcome:
    shipped = report["symmetric_cost"]
    reference = optimum if optimum is not None else report["upper_bound_cost"]
    return Outcome(
        problems,
        solves=1,
        fallbacks=int(not report["success"]),
        gap_to_bound_pct=[(shipped / report["upper_bound_cost"] - 1.0) * 100.0],
        gap_to_optimum_pct=[(shipped / reference - 1.0) * 100.0],
    )


class PinnedPool:
    """A fixed pool of inputs, solved once per batch in an order the seed shuffles.

    Solve times on these workloads differ by 15 % and more between inputs (the
    W1 bound solve's augmenting paths, the W2 perturbation loop's 0 to 50
    retries), and a run holds only a few solves. Seed-drawn inputs would make
    a run's time metrics depend more on which inputs were drawn than on the
    code, so every run solves the same pool.
    """

    prefix = flag = ""

    def __init__(self, seed: int, work: Path, texts: list[str]) -> None:
        self.order = np.random.default_rng(seed).permutation(len(texts)).tolist()
        self.inputs = []
        for k, text in enumerate(texts):
            path = work / f"{self.prefix}{k}.csv"
            path.write_text(text, encoding="utf-8")
            self.inputs.append(path)

    def batches(self):
        for p in count():
            yield [
                Op(f"{self.prefix}{k}-pass{p}", ["solve", self.flag, str(self.inputs[k])], key=k)
                for k in self.order
            ]


class BeamSolve(PinnedPool):
    """``solve --snr-csv`` on a pinned pool of W1 populations."""

    prefix, flag = "beam", "--snr-csv"

    def __init__(self, seed: int, work: Path) -> None:
        rng = np.random.default_rng([BEAM["pool_seed"], 1])
        self.floor_db = modcod_floor_db()
        self.dropped = 0
        texts = []
        for _ in range(BEAM["pool"]):
            snrs, dropped = beam_population(rng, self.floor_db)
            self.dropped += dropped
            texts.append(snr_csv(snrs))
        super().__init__(seed, work, texts)

    def info(self) -> dict:
        return {"generator": BEAM, "floor_db": self.floor_db, "dropped_draws": self.dropped}

    def check(self, op: Op, exit_code: int, out: Path) -> Outcome:
        from hmgroup.cli import load_snr_csv
        from hmgroup.matching_core import build_cost_matrix
        from hmgroup.rate_model import HierRateModel, default_modcod_table

        receivers = load_snr_csv(self.inputs[op.key])
        cost = build_cost_matrix(receivers, default_modcod_table(), HierRateModel()).values
        report = json.loads(out.read_text(encoding="utf-8"))
        problems = check_solve(cost, report, exit_code, bound=assignment_bound(cost))
        return _solve_outcome(report, problems, optimum=None)


class TiesSolve(PinnedPool):
    """``solve --cost-csv`` on the pinned pool of W2 matrices, checked against their optima."""

    prefix, flag = "ties", "--cost-csv"

    def __init__(self, seed: int, work: Path) -> None:
        self.matrices = [ties_matrix(k) for k in range(TIES["pool"])]
        texts = [cost_csv(matrix) for matrix in self.matrices]
        super().__init__(seed, work, texts)
        self.digests = [hashlib.sha256(text.encode()).hexdigest() for text in texts]
        self.optima: dict[str, float] = (
            json.loads(OPTIMA_PATH.read_text(encoding="utf-8")) if OPTIMA_PATH.exists() else {}
        )

    def info(self) -> dict:
        return {"generator": TIES}

    def optimum(self, k: int) -> float:
        digest = self.digests[k]
        if digest not in self.optima:
            print(f"perfbench: computing the optimum of uncached ties{k}", file=sys.stderr)
            self.optima[digest] = exact_optimum(self.matrices[k])
        return self.optima[digest]

    def check(self, op: Op, exit_code: int, out: Path) -> Outcome:
        cost = self.matrices[op.key]
        optimum = self.optimum(op.key)
        report = json.loads(out.read_text(encoding="utf-8"))
        problems = check_solve(
            cost, report, exit_code, bound=assignment_bound(cost), optimum=optimum
        )
        return _solve_outcome(report, problems, optimum)


class Campaign:
    """``simulate`` campaigns on raw W1 populations; the seed picks each campaign's seed.

    At 12 dB about half of the raw populations hold a receiver below every
    MODCOD threshold, and a trial with one is skipped. Campaign seeds are
    drawn until one whose populations are schedulable in exactly half of the
    trials, so every campaign solves the same number of trials and the skip
    path runs at its natural rate. The passed-over seeds are counted.

    Campaigns are short (two trials, one solved) so that host.py's probes
    around each call stay a few seconds apart; a batch of eight still solves
    eight trials.
    """

    def __init__(self, seed: int, work: Path) -> None:
        self.rng = np.random.default_rng([seed, 3])
        self.floor_db = modcod_floor_db()
        self.passed_over = 0

    def info(self) -> dict:
        return {"generator": CAMPAIGN, "seeds_passed_over": self.passed_over}

    def schedulable_trials(self, seed: int) -> int:
        """Trials of ``simulate --seed seed`` whose population can all be scheduled."""
        from hmgroup.channel_sim import BeamModel, sample_receivers

        return sum(
            min(r.snr_db for r in sample_receivers(BeamModel(
                snr_max_db=CAMPAIGN["snr_max_db"], n_receivers=CAMPAIGN["receivers"], seed=seed + t
            ))) >= self.floor_db
            for t in range(CAMPAIGN["trials"])
        )

    def _campaign_seed(self) -> int:
        while True:
            seed = int(self.rng.integers(0, 2**32))
            if self.schedulable_trials(seed) == CAMPAIGN["trials"] // 2:
                return seed
            self.passed_over += 1

    def batches(self):
        for b in count():
            yield [self._op(CAMPAIGN["per_batch"] * b + i) for i in range(CAMPAIGN["per_batch"])]

    def _op(self, k: int) -> Op:
        args = [
            "simulate",
            "--snr-max", str(CAMPAIGN["snr_max_db"]),
            "--receivers", str(CAMPAIGN["receivers"]),
            "--trials", str(CAMPAIGN["trials"]),
            "--seed", str(self._campaign_seed()),
        ]  # fmt: skip
        return Op(f"campaign{k}", args, key=k)

    def check(self, op: Op, exit_code: int, out: Path) -> Outcome:
        record = json.loads(out.read_text(encoding="utf-8"))
        csv_path = out.with_name(out.stem + "_pair_probability.csv")
        pair_probability = np.loadtxt(csv_path, delimiter=",", ndmin=2)
        problems = check_campaign(record, pair_probability, exit_code)
        summary = record["summary"]
        gains = summary["gains"]
        # Mean gains only: the gap of the mean efficiencies, not a mean of gaps.
        gap = ((1.0 + gains["upper_bound"]["mean"]) / (1.0 + gains["quasi_optimal"]["mean"]) - 1.0)
        return Outcome(
            problems,
            solves=summary["completed"],
            fallbacks=summary["failure_count"],
            gap_to_bound_pct=[gap * 100.0],
            gap_to_optimum_pct=[gap * 100.0],
        )


WORKLOADS = {"beam-solve": BeamSolve, "ties-solve": TiesSolve, "campaign": Campaign}


def write_optima() -> None:
    """Recompute the exact optimum of every pinned ties-solve instance into OPTIMA_PATH."""
    optima = {}
    for k in range(TIES["pool"]):
        matrix = ties_matrix(k)
        optima[hashlib.sha256(cost_csv(matrix).encode()).hexdigest()] = exact_optimum(matrix)
    OPTIMA_PATH.write_text(json.dumps(optima, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_optima()
