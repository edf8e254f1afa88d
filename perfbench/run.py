"""hmgroup benchmark: one workload per run, a closed loop of in-process CLI calls.

    python3 perfbench/run.py --workload {beam-solve,ties-solve,campaign} \
        --seed N --seconds S --trace {0,1}

One caller, no threads: ``hmgroup.cli.main(argv)`` runs on the generated
inputs, one invocation after another, and the run stops at the first batch
boundary after ``--seconds`` of CLI wall time.
Every output is checked after the loop.

Times are host-normalised: each call's wall time is divided by the host
slowdown that host.py's reference kernel measures right before and after it
(the mean of the two). On the shared host this was tuned on, that cut the
spread of identical runs from 25-35 % to 10-16 % per call. Raw wall-time
figures are printed on the ``#`` lines. The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics. ``solves_per_s`` counts CLI solves,
  or completed campaign trials (one solve each), per second of CLI time.
  ``solve_s.p50`` is the median time of one solve; for a campaign, of
  one invocation divided by its completed trials. ``peak_rss_mb`` is this
  process's peak plus its largest child's, read before the checks and the
  set-up timing. ``setup_s`` is the median time a fresh interpreter takes to
  import ``hmgroup.cli`` and load the bundled MODCOD table.
- ``--trace 1``: every invocation runs untraced and then traced on the same
  input. Per-layer numbers come from the traced calls (see spans.py),
  ``trace.overhead_pct`` compares the two, and ``quality.*`` summarises the
  checked outputs. ``quality.gap_to_optimum_pct`` measures against the exact
  optimum on ties-solve and against the bound elsewhere, where it is then
  an upper limit of the true gap.

Spans of a traced run are written to ``.perfbench/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import host
from spans import Tracer, layer_metrics, ratio
from workloads import WORKLOADS, Op, Outcome

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_CODE = "import hmgroup.cli as cli; cli.default_modcod_table()"


@dataclass
class Run:
    op: Op
    code: int | None
    wall: float
    out: Path
    traced_code: int | None = None
    traced_wall: float = 0.0
    traced_out: Path | None = None
    slowdown: float = 1.0  # host slowdown while the untraced call ran
    traced_slowdown: float = 1.0


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        import hmgroup.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hmgroup from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: hmgroup was imported from {cli.__file__}, not from {SRC}")
    return cli


def call_cli(main, argv: list[str]) -> tuple[int | None, float]:
    """Exit code (None if the call raised) and wall seconds of one invocation."""
    start = time.perf_counter()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an operation that raised counts as failed
        print(f"perfbench: {argv[0]} raised {exc!r}", file=sys.stderr)
        code = None
    return code, time.perf_counter() - start


def output_bytes(out: Path) -> list[bytes]:
    """The report plus the campaign's pair-probability CSV, if written."""
    paths = (out, out.with_name(out.stem + "_pair_probability.csv"))
    return [p.read_bytes() for p in paths if p.exists()]


def measure_setup() -> float:
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills the bytecode cache
    times = []
    before = host.probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        wall = time.perf_counter() - start
        after = host.probe()
        times.append(wall * 2 / (before + after))
        before = after
    return statistics.median(times)


def peak_rss_mb() -> float:
    who = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    return sum(resource.getrusage(w).ru_maxrss for w in who) / 1024.0


def quality(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    solves = sum(o.solves for o in outcomes)
    failed = sum(bool(o.problems) for o in outcomes)
    to_bound = [g for o in outcomes for g in o.gap_to_bound_pct]
    to_optimum = [g for o in outcomes for g in o.gap_to_optimum_pct]
    return {
        "quality.gap_to_bound_pct": (ratio(sum(to_bound), len(to_bound)), "%"),
        "quality.gap_to_optimum_pct": (ratio(sum(to_optimum), len(to_optimum)), "%"),
        "quality.fallback_share": (ratio(sum(o.fallbacks for o in outcomes), solves), "share"),
        "quality.failed_share": (ratio(failed, len(outcomes)), "share"),
    }


def measure(cli, workload, seconds: float, out_dir: Path, tracer: Tracer | None) -> list[Run]:
    runs = []
    spent = 0.0
    before = host.probe()
    for batch in workload.batches():
        if spent >= seconds:
            break
        for op in batch:
            out = out_dir / f"{op.name}.json"
            run = Run(op, *call_cli(cli.main, op.args + ["--out", str(out)]), out)
            after = host.probe()
            run.slowdown, before = (before + after) / 2, after
            if tracer is not None:
                run.traced_out = out_dir / "traced" / out.name
                with tracer.installed():
                    traced_main = tracer.wrap("cli.main", cli.main)
                    argv = op.args + ["--out", str(run.traced_out)]
                    run.traced_code, run.traced_wall = call_cli(traced_main, argv)
                after = host.probe()
                run.traced_slowdown, before = (before + after) / 2, after
            spent += run.wall + run.traced_wall
            runs.append(run)
    return runs


def check(workload, run: Run) -> Outcome:
    code, out = run.code, run.out
    if run.traced_out is not None:
        code, out = run.traced_code, run.traced_out
    if code not in (0, 1):
        outcome = Outcome([f"exit code {code}"])
    else:
        outcome = workload.check(run.op, code, out)
        if run.traced_out is not None and output_bytes(run.out) != output_bytes(out):
            outcome.problems.append("tracing changed the output")
    for problem in outcome.problems:
        print(f"perfbench: {run.op.name}: {problem}", file=sys.stderr)
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = import_cli()
    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out" / "traced").mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None

    runs = measure(cli, workload, args.seconds, work / "out", tracer)
    rss = peak_rss_mb()
    outcomes = [check(workload, run) for run in runs]

    if tracer is None:
        solves = sum(o.solves for o in outcomes)
        wall = sum(run.wall / run.slowdown for run in runs)
        done = [(run, o.solves) for run, o in zip(runs, outcomes) if o.solves]
        per_solve = [run.wall / run.slowdown / n for run, n in done]
        metrics = {
            "solves_per_s": (solves / wall, "1/s"),
            "solve_s.p50": (statistics.median(per_solve) if per_solve else wall, "s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (measure_setup(), "s"),
        }
        raw_per_solve = [run.wall / n for run, n in done]
        notes = {
            "raw.solves_per_s": (solves / sum(run.wall for run in runs), "1/s"),
            "raw.solve_s.p50": (statistics.median(raw_per_solve) if raw_per_solve else 0.0, "s"),
            "host.slowdown": (statistics.fmean(run.slowdown for run in runs), "x"),
            **quality(outcomes),
        }
    else:
        metrics = layer_metrics(tracer, len(runs))
        metrics.update(quality(outcomes))
        traced = sum(run.traced_wall / run.traced_slowdown for run in runs)
        overhead = traced / sum(run.wall / run.slowdown for run in runs) - 1.0
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        written = sum(len(data) for run in runs for data in output_bytes(run.traced_out))
        metrics["cli.output_bytes"] = (written / len(runs), "bytes")
        tracer.dump(base / f"spans-{args.workload}-{args.seed}.json")
        notes = {}
    shutil.rmtree(work, ignore_errors=True)

    info = json.dumps(workload.info())
    print(f"# {args.workload} seed {args.seed}: {len(runs)} invocations; {info}")
    for name, (value, unit) in {**metrics, **notes}.items():
        print(f"# {name} = {value:.6g} {unit}")
    failed = sum(bool(o.problems) for o in outcomes)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
