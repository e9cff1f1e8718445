"""stiefel-dec benchmark: one workload and seed in, one JSON result line out.

    python3 perfbench/run.py --workload gta-ring8 --seed 3 --seconds 20 --trace 0

Runs from the root of a checkout of the repository, importing the package
from src/. With --trace 0 it starts one worker process (worker.py, mode
plain) and prints the end-to-end metrics; with --trace 1 it starts a worker
that times only the step calls and then one that alternates executions
with every layer wrapped and untraced ones, and prints the per-layer
metrics. Workers get BLAS pinned to one thread. Human
readable lines come first; the last line of standard output is the JSON
result {"correct", "attempted", "failed", "metrics"}. See NOTES.md for the
metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import WORKLOADS  # noqa: E402

# Byte-identical CSV bodies hold only at a fixed BLAS thread count (NOTES.md).
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LIMIT_S = 170.0  # the whole benchmark run ends within this many seconds
IDENTITY_RTOL = 1e-9  # self times must add up to algorithms.run_s this closely


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def run_worker(args, mode: str, seconds: float, t_start: float) -> dict:
    remaining = LIMIT_S - (time.perf_counter() - t_start)
    if remaining < 10.0:
        raise BenchError(f"no time left for the {mode} worker")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", repr(seconds),
        "--limit", repr(max(1.0, remaining - 40.0)),
    ]
    if args.max_rounds is not None:
        cmd += ["--max-rounds", str(args.max_rounds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_PINS)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining - 2.0
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in {remaining - 2.0:.0f} s") from None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        raise BenchError(f"{mode} worker printed no result: {e}") from None


def check_csv_pairs(executions) -> None:
    """Executions of the same instance must write byte-identical CSV bodies."""
    first = {}
    for e in executions:
        ref = first.setdefault(e["seed"], e["csv_digest"])
        if e["csv_digest"] != ref:
            e["failures"].append(f"CSV body of seed {e['seed']} differs between two runs")


def by_instance(executions) -> list:
    groups = {}
    for e in executions:
        groups.setdefault(e["seed"], []).append(e)
    return list(groups.values())


def end_to_end(data: dict) -> tuple:
    """(metrics, notes) of a plain run.

    Times are fastest-repeat figures, as timeit takes them, so that
    interference from other tenants of the host, which slows whole
    executions for minutes, stays out of them (NOTES.md): per instance the
    fastest resolve, round, CSV write and remainder of the solve phase. Every
    round of a workload does the same work whatever the instance, so round_ms
    is the median over instances of their fastest round, and wall_s puts an
    execution back together from the pieces: resolve + remainder + CSV write
    + rounds x round_ms.
    """
    fastest_setup = {}
    for seed, seconds in data["resolves"]:
        fastest_setup[seed] = min(seconds, fastest_setup.get(seed, math.inf))
    per = []
    for runs in by_instance(data["executions"]):
        e0 = runs[0]
        per.append(
            {
                "fixed_s": fastest_setup[e0["seed"]]
                + min(e["outside_rounds_s"] for e in runs)
                + min(e["csv_s"] for e in runs),
                "measured_wall_s": statistics.median(e["wall_s"] for e in runs),
                "round_s": min(e["round_min_s"] for e in runs),
                "median_round_s": statistics.median(e["round_median_s"] for e in runs),
                "rounds": e0["rounds"],
                "messages": e0["messages"],
                "final_ds": e0["final_ds"],
                "runs": len(runs),
            }
        )
    k = len(per)
    runs = "/".join(str(p["runs"]) for p in per)
    rounds = sum(p["rounds"] for p in per)
    round_s = statistics.median(p["round_s"] for p in per)
    metrics = {
        "wall_s": (statistics.fmean(p["fixed_s"] + p["rounds"] * round_s for p in per), "s"),
        "setup_s": (statistics.median(fastest_setup.values()), "s"),
        "round_ms": (1000.0 * round_s, "ms"),
        "rounds": (statistics.fmean(p["rounds"] for p in per), "count"),
        "messages": (statistics.fmean(p["messages"] for p in per), "count"),
        "final_ds": (statistics.fmean(p["final_ds"] for p in per), "1"),
        "peak_rss_mb": (data["peak_rss_mb"], "MB"),
    }
    notes = {
        "wall_s": f"mean over {k} instances of resolve + run + CSV at fastest-repeat times; "
        f"measured wall, median per instance: {statistics.fmean(p['measured_wall_s'] for p in per):.4f} s "
        f"({runs} runs)",
        "setup_s": f"median over {k} instances of the fastest of "
        f"{len(data['resolves']) // k}+ resolves each",
        "round_ms": f"median over {k} instances of the fastest of their {rounds} rounds; "
        f"median round {1000.0 * statistics.median(p['median_round_s'] for p in per):.4f} ms",
        "rounds": f"mean over {k} instances",
        "messages": f"mean over {k} instances, 2|E| t per mix",
        "final_ds": f"mean over {k} instances",
        "peak_rss_mb": "ru_maxrss of the worker process",
    }
    return metrics, notes


# Every span tracer.layer_table opens inside algorithms.run; layer_row sums them all.
SOLVE_SPANS = frozenset(
    "manifold.validate manifold.project manifold.retract manifold.mean manifold.error "
    "problems.egrad problems.sgrad problems.value metrics.snapshot metrics.record "
    "network.mix algorithms.run algorithms.step".split()
)


def layer_row(e: dict) -> dict:
    """Per-layer figures of one fully traced execution (solve phase unless named)."""
    solve, resolve, csv = e["solve"], e["resolve"], e["csv"]

    def get(name, field):
        return solve.get(name, (0, 0.0, 0.0, 0.0))[field]

    def self_s(*names):
        return sum(get(n, 2) for n in names)

    calls, total, top = 0, 1, 3
    row = {}
    for part in ("validate", "project", "retract", "mean", "error"):
        row[f"manifold.{part}_s"] = self_s(f"manifold.{part}")
        row[f"manifold.{part}_calls"] = get(f"manifold.{part}", calls)
    messages = get("network.mix", calls) * 2 * e["edges"] * e["t"]
    row.update(
        {
            "problems.egrad_s": self_s("problems.egrad"),
            "problems.egrad_calls": get("problems.egrad", calls),
            "problems.sgrad_calls": get("problems.sgrad", calls),
            "problems.grad_s": self_s("problems.egrad", "problems.sgrad"),
            "problems.value_s": self_s("problems.value"),
            "problems.value_calls": get("problems.value", calls),
            "problems.setup_s": resolve.get("problems.setup", (0, 0.0, 0.0))[2],
            "metrics.snapshot_s": self_s("metrics.snapshot", "metrics.record"),
            "metrics.snapshot_calls": get("metrics.record", calls),
            "metrics.snapshot_total_s": sum(
                get(n, top) for n in ("metrics.snapshot", "metrics.record", "manifold.error")
            ),
            "network.mix_s": self_s("network.mix"),
            "network.mix_calls": get("network.mix", calls),
            "network.messages": messages,
            "network.floats_sent": messages * e["d"] * e["r"],
            "algorithms.run_s": get("algorithms.run", total),
            "algorithms.self_s": self_s("algorithms.run", "algorithms.step"),
            "algorithms.steps": get("algorithms.step", calls),
            "harness.resolve_s": resolve["harness.resolve"][total],
            "harness.csv_s": csv["harness.csv"][total],
            "harness.csv_bytes": e["csv_bytes"],
        }
    )
    # Self times of every solve-phase span, each counted once.
    parts = [row[f"manifold.{p}_s"] for p in ("validate", "project", "retract", "mean", "error")]
    parts += [row[k] for k in ("problems.grad_s", "problems.value_s", "metrics.snapshot_s",
                               "network.mix_s", "algorithms.self_s")]
    if abs(sum(parts) - row["algorithms.run_s"]) > IDENTITY_RTOL * row["algorithms.run_s"]:
        e["failures"].append(
            f"layer self times add up to {sum(parts):.9f} s, algorithms.run_s is {row['algorithms.run_s']:.9f} s"
        )
    if set(solve) - SOLVE_SPANS:
        e["failures"].append(f"solve-phase spans left out of the sum: {sorted(set(solve) - SOLVE_SPANS)}")
    if row["network.mix_calls"] != e["mixes"]:
        e["failures"].append(
            f"traced {row['network.mix_calls']} mixes, expected {e['mixes']} from rounds and inner steps"
        )
    if messages != e["messages"]:
        e["failures"].append(f"traced {messages} messages, expected {e['messages']}")
    return row


def per_layer(steps: dict, full: dict) -> tuple:
    """(metrics, notes) of the traced run. Layer figures come from the traced
    execution with the median algorithms.run_s, so its self times add up."""
    traced = [e for e in full["executions"] if e["traced"]]
    untraced = [e for e in full["executions"] if not e["traced"]]
    rows = [layer_row(e) for e in traced]
    rows.sort(key=lambda row: row["algorithms.run_s"])
    row = rows[(len(rows) - 1) // 2]
    metrics = {
        name: (value, "count" if name.endswith(("_calls", "steps", "messages", "floats_sent")) else "s")
        for name, value in row.items()
    }
    metrics["harness.csv_bytes"] = (row["harness.csv_bytes"], "B")
    notes = {name: f"traced execution {rows.index(row) + 1} of {len(rows)} by algorithms.run_s"
             for name in metrics}

    samples = sorted(steps["step_ms"])
    n = len(samples)
    metrics["algorithms.step_samples"] = (n, "count")
    metrics["algorithms.step_ms_p50"] = (statistics.median(samples), "ms")
    notes["algorithms.step_ms_p50"] = f"median of {n} step calls"
    beyond = n - -(-99 * n // 100)  # samples above the nearest-rank p99
    if beyond >= 10:
        metrics["algorithms.step_ms_p99"] = (samples[n - beyond - 1], "ms")
        notes["algorithms.step_ms_p99"] = f"nearest-rank p99 of {n} step calls, {beyond} beyond it"
    plain_wall = statistics.median(e["wall_s"] for e in untraced)
    traced_wall = statistics.median(e["wall_s"] for e in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    notes["trace.overhead_s"] = (
        f"median traced wall {traced_wall:.4f} s over {len(traced)} runs minus median "
        f"untraced wall {plain_wall:.4f} s over {len(untraced)} runs, interleaved"
    )
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-rounds", type=int, default=None,
                    help="cap every instance at this many rounds (smoke test only)")
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    if not (ROOT / "src" / "stiefel_dec" / "__init__.py").is_file():
        print(f"no stiefel_dec package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1 or (args.max_rounds is not None and args.max_rounds < 1):
        print("need --seed >= 0, --seconds >= 1 and --max-rounds >= 1", file=sys.stderr)
        return 2

    try:
        if args.trace == 0:
            data = run_worker(args, "plain", float(args.seconds), t_start)
            executions = data["executions"]
            check_csv_pairs(executions)
            metrics, notes = end_to_end(data)
        else:
            half = args.seconds / 2.0
            steps = run_worker(args, "steps", half, t_start)
            full = run_worker(args, "full", half, t_start)
            executions = steps["executions"] + full["executions"]
            check_csv_pairs(executions)
            metrics, notes = per_layer(steps, full)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1

    failed = sum(1 for e in executions if e["failures"])
    print(f"# {args.workload} seed {args.seed} trace {args.trace}; BLAS threads pinned: "
          + " ".join(f"{k}={v}" for k, v in BLAS_PINS.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value!r:>24} {unit:6s} {notes.get(name, '')}")
    print(f"{'fail_rate':28s} {failed / len(executions)!r:>24} {'1':6s} {failed} of {len(executions)} runs failed a check")
    for e in executions:
        for msg in e["failures"]:
            print(f"FAILED seed {e['seed']}: {msg}")
    digests = {e["seed"]: e["csv_digest"][:16] for e in executions}
    print("# csv body sha256: " + " ".join(f"{s}:{d}" for s, d in digests.items()))
    result = {
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
