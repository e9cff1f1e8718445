"""Run one workload in this process and print its raw measurements as one JSON line.

run.py starts this file in a fresh process with BLAS threads pinned, e.g.

    python3 perfbench/worker.py --workload gta-ring8 --seed 3 --mode plain --seconds 20 --limit 160

Every execution goes through the public API: harness.parse_config, then
harness.resolve, algorithms.run and harness.write_csv, timed in that order,
and is checked afterwards. Modes:

- plain: the end-to-end run. Only the metrics-record constructor is stamped
  (one clock read per round) to time each round. Runs each instance once,
  then repeats instances in turn until --seconds have passed (at least one
  repeat, so the CSV comparison has a pair). After each execution it times
  resolves of the instances in turn for SETUP_SLICE_S, so that the set-up
  samples are spread over the whole run.
- steps: only the *_step calls are timed. Repeats the first instance until
  --seconds have passed and enough step samples exist for a p99.
- full: repeats the first instance until --seconds have passed, with every
  layer wrapped (see tracer.py) in every other execution, starting with the
  first; the executions in between are the untraced baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from stiefel_dec import algorithms, harness  # noqa: E402

from tracer import ROOTS, STEP, Tracer, layer_table, stamped, step_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TAIL_SAMPLES = 1000  # step samples needed for a p99 with ten samples beyond it
SETUP_SLICE_S = 0.15  # extra resolves timed after each plain execution, seconds
ORTHO_ULPS = 16  # orthonormality tolerance, in units of eps * (d + r)
TRACKING_TOL = 1e-10  # tracking residual bound, relative to 1 + ||mean tracker||


def execute(cfg, out_path):
    """Resolve, run and write one instance; returns the pieces and the three times."""
    t0 = time.perf_counter()
    res = harness.resolve(cfg)
    t1 = time.perf_counter()
    result = algorithms.run(
        cfg.algorithm,
        res.swarm0,
        res.mix_matrix,
        alpha=res.alpha,
        locals_=res.locals_,
        schedule=res.schedule,
        oracle=res.oracle,
        max_rounds=res.max_rounds,
        batch_size=cfg.batch_size,
        tol_ds=res.tol_ds,
        tol_grad=res.tol_grad,
        tol_consensus=res.tol_consensus,
        seed=cfg.seed,
        rounds=res.mix_rounds,
        timing=cfg.timing,
    )
    t2 = time.perf_counter()
    harness.write_csv(out_path, cfg, res.header, result.records)
    t3 = time.perf_counter()
    return res, result, (t1 - t0, t2 - t1, t3 - t2)


def check(spec, cfg, res, result, capped: bool) -> list:
    """The failed checks of one execution, as messages; empty when it passed."""
    failures = []
    expect = "max_rounds" if capped else spec.expect_stop
    if result.stop != expect:
        failures.append(f"stopped on {result.stop!r}, expected {expect!r}")
    ds = result.records[-1].ds_oracle
    if ds is None or not math.isfinite(ds):
        failures.append(f"final d_s is {ds!r}")
    elif spec.tol_ds is not None and not capped and ds > spec.tol_ds:
        failures.append(f"final d_s {ds:.3e} above {spec.tol_ds:.0e}")
    for i, p in enumerate(result.final.points):
        d, r = p.data.shape
        err = float(np.abs(p.data.T @ p.data - np.eye(r)).max())
        if not err <= ORTHO_ULPS * np.finfo(float).eps * (d + r):
            failures.append(f"agent {i}: max |x.T x - I| = {err:.3e}")
    if cfg.algorithm == "drgta":
        resid = algorithms.tracking_residual(result.tracker, result.final, res.locals_)
        scale = 1.0 + float(np.linalg.norm(result.tracker.average()))
        if not resid <= TRACKING_TOL * scale:
            failures.append(f"tracking residual {resid:.3e} above {TRACKING_TOL:.0e} * {scale:.3e}")
    return failures


def mixes_expected(cfg, res, rounds: int) -> int:
    """Gossip mixes a run of this many rounds makes: drgta mixes x and y per
    iteration, drsgd mixes once per inner step, the others once per iteration."""
    if cfg.algorithm == "drgta":
        return 2 * rounds
    if cfg.algorithm == "drsgd":
        inner = max(math.ceil(o.sample_count / cfg.batch_size) for o in res.locals_)
        return rounds * inner
    return rounds


def csv_body_digest(path: Path) -> tuple:
    """(sha256 of the lines after the '#' header lines, file size in bytes)."""
    data = path.read_bytes()
    body = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(b"#"))
    return hashlib.sha256(body).hexdigest(), len(data)


def record(spec, cfg, res, result, times, out_path, capped) -> dict:
    rounds = result.records[-1].k
    mixes = mixes_expected(cfg, res, rounds)
    digest, size = csv_body_digest(out_path)
    return {
        "seed": cfg.seed,
        "setup_s": times[0],
        "solve_s": times[1],
        "csv_s": times[2],
        "wall_s": sum(times),
        "rounds": rounds,
        "final_ds": result.records[-1].ds_oracle,
        "edges": len(res.graph.edges),
        "t": res.t,
        "d": res.swarm0.d,
        "r": res.swarm0.r,
        "mixes": mixes,
        "messages": 2 * len(res.graph.edges) * res.t * mixes,
        "csv_digest": digest,
        "csv_bytes": size,
        "failures": check(spec, cfg, res, result, capped),
    }


def round_times(stamps: list, solve_s: float) -> dict:
    """Split the solve phase at the metrics records: one record per round plus
    the initial one, so consecutive records bound exactly one round."""
    rounds = [b - a for a, b in zip(stamps, stamps[1:])]
    return {
        "round_min_s": min(rounds),
        "round_median_s": sorted(rounds)[len(rounds) // 2],
        "outside_rounds_s": solve_s - (stamps[-1] - stamps[0]),
    }


def time_resolves(cfgs: dict, seeds, seconds: float) -> list:
    """[seed, seconds] of resolves of the instances in turn for about this long (at least one)."""
    out = []
    t_end = time.perf_counter() + seconds
    for seed in seeds:
        t0 = time.perf_counter()
        harness.resolve(cfgs[seed])
        t1 = time.perf_counter()
        out.append([seed, t1 - t0])
        if t1 >= t_end:
            return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("plain", "steps", "full"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--limit", type=float, required=True, help="start no execution after this many seconds")
    ap.add_argument("--max-rounds", type=int, default=None)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    spec = WORKLOADS[args.workload]
    capped = args.max_rounds is not None
    # The workloads use the practical stepsizes, above the theory caps on purpose.
    warnings.simplefilter("ignore", RuntimeWarning)
    cfgs = {
        s: harness.parse_config(flags=spec.config_flags(s, args.max_rounds))
        for s in spec.instance_seeds(args.seed)
    }
    seeds = list(cfgs)
    stamps, step_s, resolves = [], [], []
    resolve_order = itertools.cycle(seeds)
    tracer = None
    with contextlib.ExitStack() as stack:
        if args.mode == "plain":
            order = itertools.chain(seeds, itertools.cycle(seeds))
            min_runs, min_steps = len(seeds) + 1, 0
            stack.enter_context(stamped(algorithms, "IterationRecord", stamps))
        elif args.mode == "steps":
            order = itertools.repeat(seeds[0])
            min_runs = 1
            min_steps = 0 if capped else TAIL_SAMPLES
            tracer = Tracer(roots=(STEP,), keep_samples=(STEP,))
            tracer.install(step_table())
            stack.callback(tracer.uninstall)
        else:
            order = itertools.repeat(seeds[0])
            min_runs, min_steps = 2, 0
            tracer = Tracer(roots=ROOTS)
            stack.callback(tracer.uninstall)
        out_dir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{args.mode}-{os.getpid()}"
        out_dir.mkdir(parents=True, exist_ok=True)
        stack.callback(shutil.rmtree, out_dir, ignore_errors=True)

        executions = []
        for seed in order:
            out_path = out_dir / f"{seed}.csv"
            # Full mode alternates traced and untraced executions, so that
            # both sides of trace.overhead_s see the same state of the host.
            traced = args.mode == "full" and len(executions) % 2 == 0
            if traced:
                tracer.install(layer_table())
            stamps.clear()
            res, result, times = execute(cfgs[seed], out_path)
            if traced:
                tracer.uninstall()
            rec = record(spec, cfgs[seed], res, result, times, out_path, capped)
            if args.mode == "plain":
                rec.update(round_times(stamps, times[1]))
                resolves += time_resolves(cfgs, resolve_order, SETUP_SLICE_S)
            elif args.mode == "steps":
                step_s.extend(tracer.samples.get(STEP, ()))
                tracer.reset()
            else:
                rec["traced"] = traced
                if traced:
                    rec["solve"] = tracer.phase("algorithms.run")
                    rec["resolve"] = tracer.phase("harness.resolve")
                    rec["csv"] = tracer.phase("harness.csv")
                    tracer.reset()
            executions.append(rec)
            elapsed = time.perf_counter() - start
            if elapsed >= args.limit:
                break
            if len(executions) >= min_runs and elapsed >= args.seconds and len(step_s) >= min_steps:
                break

    resolves += [[e["seed"], e["setup_s"]] for e in executions]
    out = {
        "mode": args.mode,
        "executions": executions,
        "resolves": resolves,
        "step_ms": [1000.0 * s for s in step_s],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
