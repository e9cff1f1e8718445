"""Digest the CLI's outputs over a fixed list of configurations.

Each configuration runs as its own `python -m stiefel_dec.cli` subprocess, one
after another, in a fresh temporary directory (output paths are relative, so
the summaries and the `# config:` lines do not depend on where it ran). The
data and config files a configuration names are written into that directory
first; they are generated from fixed seeds, so every checkout sees the same
bytes. One line is printed per configuration:

    name  exit-code  sha256(stdout)  sha256(written file) or -  stderr

where stderr is the CLI's error line, `traceback` for an uncaught exception,
or - when the run reported no error. The script exits 1 when any
configuration's run of the --src tree prints a traceback, and 0 otherwise.

Run it on two checkouts and diff the outputs to see whether a change kept
every log, summary, report and exit code byte-identical:

    python3 scripts/cli_digests.py > after.txt
    python3 scripts/cli_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

A change that moves last bits on purpose (a reassociated sum, a fused
projection) is checked with --against instead, which runs every configuration
under both trees and prints one PASS or FAIL line per configuration, with the
worst |a - b| / S per float column, then exits 1 on any FAIL or traceback:

    python3 scripts/cli_digests.py --against ../parent/src

PASS needs the same exit code, error line and row count; k identical; the
lines above the CSV header byte-identical, except the oracle report's
`# f(x*) =` value, which is compared like f_bar, and the `# constants:` line,
whose keys and non-float values must be equal; an oracle solution's d x r
matrix of the same shape, compared by subspace distance (min over orthogonal Q
of ||x Q - y||_F, blind to the sign and rotation of the columns, reported as
oracle_ds over S = 2 sqrt(r)); stdout identical once its
numbers are masked (the run summary repeats the last row, rounded); and every
other float within |a - b| <= 1e-12 S in natural units: the _sq columns are
compared as square roots, S = 2 sqrt(r) (the Frobenius diameter of St(d, r))
for consensus_err_sq, linf_err and ds_oracle, S = the largest |f_bar| in
either output for f_bar and grad_norm_sq, and S = max(|a|, |b|) for beta_k
and each float of the constants line (reported as `constants`), whose scales
differ from key to key. elapsed_ms is wall time and is not compared. A flat
per-entry relative bound would fail working code: near convergence
grad_norm_sq is a cancellation, pure round-off where the true gradient is 0.

BLAS is pinned to one thread, so the digests do not depend on the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

OUT = "out.csv"
ERROR_PREFIXES = ("config error: ", "ingestion error: ", "numerical error: ", "error: ")
TOL = 1e-12  # --against: the largest |a - b| / S that passes
ORACLE_VALUE = "# f(x*) = "
CONSTANTS = "# constants: "
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def sample_rows(count: int, width: int, scale: float = 1.0, header: bool = False,
                sep: str = ",", integers: bool = False) -> str:
    """count rows of seeded Gaussian samples times scale (or integers in 0..255),
    under an optional header row."""
    rng = random.Random(7)
    lines = [sep.join(f"c{j}" for j in range(width))] if header else []
    for _ in range(count):
        values = (rng.randrange(256) if integers else rng.gauss(0.0, 1.0) * scale for _ in range(width))
        lines.append(sep.join(repr(v) for v in values))
    return "\n".join(lines) + "\n"


# Files a configuration may name; each is written before the run that names it.
FILES = {
    "header.csv": sample_rows(43, 6, header=True),  # 43 rows over 4 agents: blocks 11, 11, 11, 10
    "wrap.csv": sample_rows(41, 6),  # 41 rows over 4 agents: blocks 11, 10, 10, 10
    "wide.csv": sample_rows(41, 20),  # blocks 11, 10, 10, 10 over 4 agents, all fewer rows than d
    "counts.txt": sample_rows(30, 5, sep=" ", integers=True),
    "e154.csv": sample_rows(25, 6, scale=1e154),  # the Gram matrix overflows
    "e80.csv": sample_rows(25, 6, scale=1e80),  # l_big near 1e160: the drgta header stays finite
    "e100.csv": sample_rows(25, 6, scale=1e100),  # ||grad f||^2 of the first row overflows
    "latin1.csv": "1,2\n3,4\n5,\u00e9\n".encode("latin-1"),  # bytes: not UTF-8 text
    "bom.csv": b"\xef\xbb\xbf" + sample_rows(25, 6).encode("utf-8"),  # bytes: a byte-order mark, no header
    "n-float.json": '{"n": 8.0}',
    "t-str.json": '{"t": "1"}',
    "epochs-1e400.json": '{"algorithm": "drsgd", "max_epochs": 1' + "0" * 400 + "}",
    "list.json": "[1, 2]",  # JSON, but not an object
    "short-row.csv": "1,2,3\n4,5\n7,8,9\n",  # line 2 is one field short
    "rows.csv": sample_rows(25, 6),  # the rows of e154.csv and bom.csv, unscaled
}

# (name, CLI arguments); cli_args appends --out OUT to every subcommand but spectral,
# unless the arguments name an --out of their own.
CONFIGS = [
    ("drgta-ring8", "run --algorithm drgta --t 1 --max-iters 300"),
    ("drdgd-ring8", "run --algorithm drdgd --max-iters 200"),
    ("drsgd-ring8", "run --algorithm drsgd --max-epochs 5"),
    ("drcs-ring8", "run --algorithm drcs --max-iters 100"),
    ("consensus-ring6", "run --algorithm drcs --n 6 --d 10 --r 3"),
    ("drgta-t2", "run --algorithm drgta --t 2 --max-iters 100"),
    ("drcs-t3", "run --algorithm drcs --t 3 --max-iters 50"),
    ("drgta-tauto-ring16", "run --algorithm drgta --t 0 --n 16 --max-iters 100"),
    ("drdgd-complete5", "run --algorithm drdgd --graph complete --n 5 --max-iters 100"),
    ("drgta-er32-d200", "run --algorithm drgta --graph er(0.3) --n 32 --d 200 --r 10 --m 50 --max-iters 20"),
    ("consensus-er12-t2", "run --algorithm drcs --graph er(0.4) --n 12 --t 2 --max-iters 100"),
    ("drgta-r1", "run --algorithm drgta --r 1 --max-iters 100"),
    ("drdgd-r=d", "run --algorithm drdgd --d 6 --r 6 --max-iters 50"),
    ("consensus-independent", "run --algorithm drcs --init independent --max-iters 100"),
    ("drgta-perturb", "run --algorithm drgta --perturb 0.01 --max-iters 100"),
    ("drdgd-speedup", "run --algorithm drdgd --beta-scale speedup --max-iters 100"),
    ("drdgd-raw", "run --algorithm drdgd --beta-scale raw --beta-hat 0.001 --max-iters 100"),
    ("drsgd-diminishing", "run --algorithm drsgd --schedule diminishing --max-epochs 3"),
    ("drsgd-constant", "run --algorithm drsgd --schedule constant --max-epochs 3"),
    ("drgta-diminishing", "run --algorithm drgta --schedule diminishing --max-iters 50"),
    ("drsgd-batch7", "run --algorithm drsgd --batch-size 7 --max-epochs 5"),
    ("drgta-alpha0", "run --algorithm drgta --alpha 0 --max-iters 100"),
    ("consensus-alpha0.5-t2", "run --algorithm drcs --alpha 0.5 --t 2 --max-iters 100"),
    ("drgta-delta1", "run --algorithm drgta --delta1 0.01 --max-iters 100"),
    ("drgta-raw-1e5", "run --beta-hat 1e5 --beta-scale raw --max-iters 50"),
    ("drgta-raw-1e300", "run --beta-hat 1e300 --beta-scale raw --max-iters 20"),
    ("spectral-ring4", "spectral --n 4 --r 1"),
    ("spectral-ring8-t3", "spectral --t 3 --r 3"),
    ("spectral-complete6", "spectral --graph complete --n 6 --r 2"),
    ("spectral-er32", "spectral --graph er(0.3) --n 32 --r 5"),
    ("spectral-er12-alpha0.5", "spectral --graph er(0.5) --n 12 --r 2 --seed 3 --alpha 0.5"),
    ("spectral-ring16-delta1", "spectral --n 16 --delta1 0.005"),
    # graphs of 44850 candidate pairs: a complete graph's every pair, and one ER draw per pair
    ("spectral-complete300", "spectral --graph complete --n 300 --r 2"),
    ("spectral-er300", "spectral --graph er(0.3) --n 300 --r 2"),
    # t = 1 below t_min = 8: W itself is the rate matrix, and W^8 gives the t_min line
    ("spectral-ring8-t1", "spectral --t 1 --r 3"),
    ("oracle", "oracle --n 3 --d 8 --r 2 --m 10 --seed 1"),
    ("dsv-header-ragged", "run --algorithm drgta --problem dsv --data header.csv --n 4 --r 2 --max-iters 100"),
    ("dsv-divisor", "run --algorithm drdgd --problem dsv --data counts.txt --divisor 255 --n 3 --r 2 --max-iters 100"),
    ("oracle-dsv", "oracle --problem dsv --data header.csv --n 4 --r 3"),
    # batches of 3 over blocks of 11, 11, 11, 10: every fourth step has batches 2, 2, 2, 1
    ("dsv-drsgd-ragged-batch3", "run --algorithm drsgd --problem dsv --data header.csv --n 4 --r 2 --batch-size 3 --max-epochs 4"),
    ("dsv-drsgd-ragged-constant", "run --algorithm drsgd --problem dsv --data header.csv --n 4 --r 2 --batch-size 3 --schedule constant --max-epochs 3"),
    # batches of 5 over blocks of 11, 10, 10, 10: an epoch is 3 steps, so the 10-row agents
    # start a fresh shuffle inside every epoch and its last step has batches 1, 5, 5, 5
    ("dsv-drsgd-wrap-batch5", "run --algorithm drsgd --problem dsv --data wrap.csv --n 4 --r 2 --batch-size 5 --max-epochs 3"),
    # l_n from the outer Grams of ragged blocks shorter than d sets every beta_k
    ("dsv-wide-drsgd-diminishing", "run --algorithm drsgd --problem dsv --data wide.csv --n 4 --r 2 --schedule diminishing --max-epochs 3"),
    ("drdgd-constant", "run --algorithm drdgd --schedule constant --max-iters 50"),
    # the constant rule for gradient tracking: pins beta_bar next to an xi estimate
    ("drgta-constant", "run --algorithm drgta --schedule constant --max-iters 50"),
    # the constant rule at the er32 shape with blocks of 50 rows under d = 200: l_n from the
    # outer Grams, next to an xi estimate
    ("drgta-er32-m50-constant", "run --algorithm drgta --graph er(0.3) --n 32 --d 200 --r 10 --m 50 --schedule constant --max-iters 20"),
    # M = n m = d rows: a square draw, which synthesis reshapes through its SVD route
    ("synthetic-square", "run --algorithm drgta --n 4 --m 5 --d 20 --r 2 --max-iters 50"),
    # xi is estimated at the shared x0 while the swarm starts from independent points
    ("drsgd-constant-independent", "run --algorithm drsgd --schedule constant --init independent --max-epochs 2"),
    # a tangent nudge of norm 1e7 from one shared point
    ("consensus-perturb-1e7", "run --algorithm drcs --perturb 1e7 --max-iters 5"),
    # failures: each should exit with its documented code and an error line
    ("config-n-float", "run --config n-float.json --max-iters 5"),
    ("config-t-str", "run --config t-str.json --max-iters 5"),
    ("dsv-gram-overflow", "run --algorithm drdgd --problem dsv --data e154.csv --n 3 --r 2 --max-iters 5"),
    ("dsv-divisor-tiny", "oracle --problem dsv --data header.csv --n 4 --r 2 --divisor 1e-300"),
    ("dsv-1e80-drgta", "run --algorithm drgta --problem dsv --data e80.csv --n 4 --r 2 --max-iters 5"),
    ("dsv-1e100-drdgd", "run --algorithm drdgd --problem dsv --data e100.csv --n 4 --r 2 --max-iters 5"),
    # a non-finite float field exits 2: nan fails no range test, so a run would go on with it
    ("config-alpha-nan", "run --alpha nan --max-iters 5"),
    ("config-tol-ds-nan", "run --tol-ds nan --max-iters 5"),
    ("config-tol-grad-nan", "run --tol-grad nan --max-iters 5"),
    ("config-beta-hat-nan", "run --beta-hat nan --max-iters 5"),
    ("config-beta-hat-inf", "run --beta-hat inf --max-iters 5"),
    # numpy's SeedSequence takes no negative seed: exits 2 naming seed
    ("config-seed-negative", "run --seed -1 --max-iters 2"),
    # a data path that cannot be read: no such file, a directory (the run's own), not UTF-8
    ("dsv-missing", "run --algorithm drgta --problem dsv --data missing.csv --n 3 --r 2 --max-iters 5"),
    ("dsv-directory", "run --algorithm drgta --problem dsv --data . --n 3 --r 2 --max-iters 5"),
    ("dsv-not-utf8", "run --algorithm drgta --problem dsv --data latin1.csv --n 2 --r 1 --max-iters 5"),
    # a UTF-8 byte-order mark before the first data row: all 25 rows are kept
    ("dsv-bom", "run --algorithm drgta --problem dsv --data bom.csv --n 3 --r 2 --max-iters 100"),
    # W^t by repeated squaring drifts from doubly stochastic by about t * eps: exits 2 naming t
    ("spectral-t1e6", "spectral --t 1000000"),
    # the gradient tolerance, not d_s, ends the run
    ("drgta-grad-tol", "run --algorithm drgta --t 1 --tol-ds 0 --tol-grad 1e-3 --max-iters 3000"),
    # a zero-epoch drsgd run writes row 0 and exits 5, like every other zero-round run
    ("drsgd-epochs0", "run --algorithm drsgd --max-epochs 0"),
    # an --out path that cannot be written exits 2 naming it: a directory, a missing directory
    ("out-directory", "run --max-iters 1 --out ."),
    ("oracle-out-missing-dir", "oracle --out nodir/x.txt"),
    # an --out that opens but takes no byte: the log fails when it closes, or when the
    # write buffer overflows during the run; either way it exits 2 naming the path
    ("out-dev-full", "run --max-iters 3 --out /dev/full"),
    ("out-dev-full-mid-run", "run --max-iters 300 --tol-ds 0 --tol-grad 0 --out /dev/full"),
    # no connected ER sample in the fixed number of tries exits 2
    ("er-no-connected-sample", "spectral --graph er(0.01) --n 20"),
    # a mean-square radius above its cap exits 2 naming the cap
    ("delta1-above-cap", "spectral --delta1 0.5"),
    # 1 - gamma_t * alpha rounds to 1, no contraction: exits 2 naming alpha
    ("alpha-underflow", "spectral --alpha 1e-300"),
    # the shared start's nudge overflows the retraction: exits 2 naming perturb
    ("perturb-overflow", "run --perturb 1e200 --max-iters 2"),
    # two antipodal independent starts on St(1, 1): the Euclidean mean is 0, so round 0 exits 4
    ("degenerate-mean", "run --algorithm drcs --graph ring --n 2 --d 1 --r 1 --init independent --delta2 0.1666 --max-iters 3 --seed 0"),
    # more agents than a dense n x n W allows (298 GiB at 2e5; 1e8 ring edges before it):
    # exits 2 naming n before any graph is built
    ("n-2e5", "run --n 200000 --d 2 --r 1 --m 1 --max-iters 1"),
    ("n-1e8", "run --n 100000000 --d 2 --r 1 --m 1 --max-iters 1"),
    # a synthetic draw of 8e11 x 30 doubles (175 TiB), which malloc refuses at once: exits 2
    # naming n, m and d
    ("m-1e11", "run --m 100000000000 --max-iters 1"),
    # drcs builds no problem: its shared start of 1e12 x 1 doubles (7.28 TiB), which malloc
    # refuses at once, exits 2 naming n, d and r
    ("drcs-d-1e12", "run --algorithm drcs --d 1000000000000 --r 1 --max-iters 1"),
    # n m = 6 synthetic rows cannot carry a full spectrum in d = 30: exits 2 naming m
    ("synthetic-m-below-d", "run --n 2 --m 3 --d 30 --max-iters 1"),
    # an --er-p that contradicts the compact er(p) form: exits 2 naming er_p
    ("er-p-conflict", "spectral --graph er(0.3) --er-p 0.5"),
    # one config per wording of a declared lower bound: exits 2 naming the field
    ("batch-size-0", "run --batch-size 0"),
    ("t-negative", "run --t -1"),
    ("tol-ds-negative", "run --tol-ds -1"),
    # sizes past numpy's largest array, which it refuses with a ValueError before malloc
    # sees them: exits 2 naming n, m, d (the problem's) or n, d, r (the drcs start's)
    ("m-1e16", "run --m 10000000000000000"),
    ("oracle-m-1e17", "oracle --m 100000000000000000"),
    ("drcs-d-1e21", "run --algorithm drcs --d 1000000000000000000000 --r 1"),
    # round caps past the float range: exits 2 naming max_epochs or max_iters
    ("drsgd-epochs-1e400", "run --algorithm drsgd --max-epochs 1" + "0" * 400),
    ("drdgd-constant-iters-1e400", "run --algorithm drdgd --schedule constant --max-iters 1" + "0" * 400),
    ("config-epochs-1e400", "run --config epochs-1e400.json"),
    # St(1, 1) has no tangent direction, so drcs's nudge of the shared start has none to take
    ("drcs-d1-r1", "run --algorithm drcs --d 1 --r 1 --n 3 --max-iters 1"),
    # a nudge of the shared start beside independent starts, which have no shared start to nudge
    ("independent-perturb", "run --init independent --perturb 0.5 --max-iters 3"),
    # raw drsgd stepsizes that break the iteration down within the first epoch: exits 4
    # naming round 1
    ("drsgd-raw-beta1", "run --algorithm drsgd --beta-hat 1 --beta-scale raw --max-epochs 2"),
    ("drsgd-raw-beta100", "run --algorithm drsgd --beta-hat 100 --beta-scale raw --max-epochs 2"),
    # a finite nudge of norm 30 on St(3, 3) leaves the retraction ill-conditioned: exits 2
    # naming perturb
    ("perturb-ill-conditioned", "run --algorithm drcs --d 3 --r 3 --n 4 --perturb 30 --max-iters 3"),
    # one config per remaining set-up exit: exits 2 naming the field, 3 for a short data row
    ("r-above-d", "run --r 40"),
    ("m-0", "run --m 0"),
    ("divisor-0", "run --divisor 0"),
    ("beta-hat-0", "run --beta-hat 0"),
    ("config-not-object", "run --config list.json"),
    ("graph-er-unparsable", "spectral --graph er(abc)"),
    ("dsv-short-row", "run --algorithm drgta --problem dsv --data short-row.csv --n 2 --r 1 --max-iters 5"),
    ("dsv-r-above-d", "run --problem dsv --data header.csv --n 4 --r 7"),
    # independent starts at r = d - 1 that settle away from consensus: at r = 2 the mean's
    # rank test ends the run as a numerical error, at r = 1 it cannot fire and the run
    # goes on against a round-off mean
    ("drcs-independent-d3-r2", "run --algorithm drcs --init independent --d 3 --r 2 --n 8 --t 1 --seed 0 --max-iters 400"),
    ("drcs-independent-d2-r1", "run --algorithm drcs --init independent --d 2 --r 1 --n 16 --t 1 --seed 0 --max-iters 2000"),
    # data divided far below unit scale: the gradient underflows (1e160) or falls below
    # the absolute tol_grad (1e7), and round 0 stops on grad_tol with ds about 1.34
    ("dsv-divisor-1e160", "run --algorithm drgta --problem dsv --data rows.csv --n 3 --r 2 --divisor 1e160 --max-iters 2"),
    ("dsv-divisor-1e7", "run --algorithm drgta --problem dsv --data rows.csv --n 3 --r 2 --divisor 1e7 --max-iters 20000"),
]


def cli_args(line: str) -> list:
    """The CLI arguments of one configuration line, with the --out OUT that run and
    oracle get; spectral prints its report and writes nothing."""
    args = line.split()
    if args[0] != "spectral" and "--out" not in args:
        args += ["--out", OUT]
    return args


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def error_line(stderr: bytes) -> str:
    """The CLI's last error line, 'traceback' for an uncaught exception, or '-'."""
    text = stderr.decode(errors="replace")
    if "Traceback (most recent call last)" in text:
        return "traceback"
    errors = [line for line in text.splitlines() if line.startswith(ERROR_PREFIXES)]
    return errors[-1] if errors else "-"


def run_cli(args: list, src: Path) -> tuple:
    """(exit code, stdout, written file or None, error line) of one CLI run in a
    fresh directory holding the files the arguments name."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        for name in set(args) & set(FILES):
            data = FILES[name]
            (Path(tmp) / name).write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        proc = subprocess.run([sys.executable, "-m", "stiefel_dec.cli", *args],
                              cwd=tmp, env=env, capture_output=True)
        out = Path(tmp) / OUT
        written = out.read_bytes() if out.exists() else None
        return proc.returncode, proc.stdout, written, error_line(proc.stderr)


def digest(outcome: tuple) -> str:
    code, out, written, err = outcome
    return f"{code} {sha(out)} {'-' if written is None else sha(written)} {err}"


def _split_log(text: str) -> tuple:
    """(lines above the CSV header, CSV header or None, CSV rows as dicts)."""
    lines = text.splitlines()
    at = next((i for i, line in enumerate(lines) if line.startswith("k,")), len(lines))
    if at == len(lines):
        return lines, None, []
    names = lines[at].split(",")
    return lines[:at], lines[at], [dict(zip(names, row.split(","))) for row in lines[at + 1 :]]


def _relative(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|): 0 for equal values (two NaNs too), inf when only one
    is finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _ratio(a: str, b: str, scale, root: bool) -> float:
    """|a - b| / scale of two cells (as square roots when root; relative when scale is
    None), inf when only one is empty."""
    if not a or not b:
        return 0.0 if a == b else math.inf
    x, y = float(a), float(b)
    if root:
        x, y = math.sqrt(x), math.sqrt(y)
    if scale is None:
        return _relative(x, y)
    if x == y:
        return 0.0
    return abs(x - y) / scale if scale > 0.0 else math.inf


def _constants_ratio(x: str, y: str):
    """The largest relative difference between the floats of two `# constants:` lines,
    or None when their keys or any other value differ."""
    a, b = json.loads(x[len(CONSTANTS):]), json.loads(y[len(CONSTANTS):])
    if a.keys() != b.keys():
        return None
    worst = 0.0
    for key, u in a.items():
        v = b[key]
        if isinstance(u, float) and isinstance(v, float):
            worst = max(worst, _relative(u, v))
        elif type(u) is not type(v) or u != v:
            return None
    return worst


def _solution(lines: list) -> tuple:
    """(comment lines, the matrix the other lines hold) of an oracle solution."""
    matrix = [[float(v) for v in line.split()] for line in lines if not line.startswith("#")]
    return [line for line in lines if line.startswith("#")], matrix


def _subspace_distance(x: list, y: list) -> float:
    """min over orthogonal Q of ||x Q - y||_F for two d x r matrices, by the orthogonal
    Procrustes alignment, evaluated directly (no cancellation near 0)."""
    x, y = np.array(x), np.array(y)
    p, _, qt = np.linalg.svd(x.T @ y)
    return float(np.linalg.norm(x @ (p @ qt) - y))


def _compare_files(a: str, b: str, worst: dict) -> list:
    """Differences between two written files; fills worst with |a - b| / S per float column."""
    head_a, csv_a, rows_a = _split_log(a)
    head_b, csv_b, rows_b = _split_log(b)
    if csv_a is None and csv_b is None:  # an oracle solution: its columns' span is compared
        head_a, x = _solution(head_a)
        head_b, y = _solution(head_b)
        shape = {(len(x), len(row)) for row in x}
        if shape != {(len(y), len(row)) for row in y} or len(shape) > 1:
            return ["solution shapes differ"]
        if x and x[0]:
            worst["oracle_ds"] = _subspace_distance(x, y) / (2.0 * math.sqrt(len(x[0])))
    if len(head_a) != len(head_b) or csv_a != csv_b:
        return ["header lines differ"]
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a)} rows vs {len(rows_b)}"]
    oracle = []  # the (a, b) values of `# f(x*) =` lines
    for x, y in zip(head_a, head_b):
        if x.startswith(ORACLE_VALUE) and y.startswith(ORACLE_VALUE):
            oracle.append((x[len(ORACLE_VALUE):], y[len(ORACLE_VALUE):]))
        elif x.startswith(CONSTANTS) and y.startswith(CONSTANTS):
            ratio = _constants_ratio(x, y)
            if ratio is None:
                return ["header lines differ"]
            worst["constants"] = max(worst.get("constants", 0.0), ratio)
        elif x != y:
            return ["header lines differ"]
    values = [v for pair in oracle for v in pair] + [row["f_bar"] for row in rows_a + rows_b if row.get("f_bar")]
    f_scale = max((abs(float(v)) for v in values), default=0.0)
    config = next((x for x in head_a if x.startswith("# config: ")), None)
    diameter = 2.0 * math.sqrt(json.loads(config[len("# config: "):])["r"]) if config else 0.0
    for x, y in oracle:
        worst["f(x*)"] = max(worst.get("f(x*)", 0.0), _ratio(x, y, f_scale, False))
    problems = set()
    for ra, rb in zip(rows_a, rows_b):
        for col, x in ra.items():
            if col == "k":
                if x != rb[col]:
                    problems.add("k differs")
            elif col == "beta_k":  # a stepsize: relative to its own size
                worst[col] = max(worst.get(col, 0.0), _ratio(x, rb[col], None, False))
            elif col != "elapsed_ms":  # wall time
                scale = f_scale if col in ("grad_norm_sq", "f_bar") else diameter
                worst[col] = max(worst.get(col, 0.0), _ratio(x, rb[col], scale, col.endswith("_sq")))
    return sorted(problems)


def compare(a: tuple, b: tuple) -> tuple:
    """(differences, worst |a - b| / S per float column) of two run_cli outcomes of one
    configuration; PASS when the differences are empty."""
    (code_a, out_a, file_a, err_a), (code_b, out_b, file_b, err_b) = a, b
    worst, problems = {}, []
    if code_a != code_b:
        problems.append(f"exit {code_a} vs {code_b}")
    if err_a != err_b:
        problems.append("error lines differ")
    if NUMBER.sub("#", out_a.decode()) != NUMBER.sub("#", out_b.decode()):
        problems.append("stdout differs")
    if (file_a is None) != (file_b is None):
        problems.append("only one run wrote a file")
    elif file_a is not None:
        problems += _compare_files(file_a.decode(), file_b.decode(), worst)
    problems += [f"{col} off by {v:.1e} S" for col, v in worst.items() if v > TOL]
    return problems, worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the stiefel_dec package (default: this checkout)")
    parser.add_argument("--against", type=Path, default=None,
                        help="another stiefel_dec source directory: compare every output within 1e-12 S")
    ns = parser.parse_args(argv)
    src = ns.src.resolve()
    passed = tracebacks = 0
    for name, line in CONFIGS:
        args = cli_args(line)
        outcome = run_cli(args, src)
        if outcome[3] == "traceback":  # an uncaught exception is a failure in either mode
            tracebacks += 1
            print(f"traceback: {name}", file=sys.stderr)
        if ns.against is None:
            print(f"{name} {digest(outcome)}", flush=True)
            continue
        problems, worst = compare(run_cli(args, ns.against.resolve()), outcome)
        passed += not problems
        ratios = " ".join(f"{col}={v:.1e}" for col, v in worst.items())
        print(f"{'FAIL' if problems else 'PASS'} {name} {ratios} {'; '.join(problems)}".rstrip(), flush=True)
    failed = tracebacks > 0
    if ns.against is not None:
        print(f"{passed}/{len(CONFIGS)} PASS")
        failed = failed or passed < len(CONFIGS)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
