"""Digest the CLI's outputs over a fixed list of configurations.

Each configuration runs as its own `python -m stiefel_dec.cli` subprocess, one
after another, in a fresh temporary directory (output paths are relative, so
the summaries and the `# config:` lines do not depend on where it ran). The
data and config files a configuration names are written into that directory
first; they are generated from fixed seeds, so every checkout sees the same
bytes. One line is printed per configuration:

    name  exit-code  sha256(stdout)  sha256(written file) or -  stderr

where stderr is the CLI's error line, `traceback` for an uncaught exception,
or - when the run reported no error.

Run it on two checkouts and diff the outputs to see whether a change kept
every log, summary, report and exit code byte-identical:

    python3 scripts/cli_digests.py > after.txt
    python3 scripts/cli_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

BLAS is pinned to one thread, so the digests do not depend on the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = "out.csv"
ERROR_PREFIXES = ("config error: ", "ingestion error: ", "numerical error: ", "error: ")


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
    "counts.txt": sample_rows(30, 5, sep=" ", integers=True),
    "e154.csv": sample_rows(25, 6, scale=1e154),  # the Gram matrix overflows
    "e80.csv": sample_rows(25, 6, scale=1e80),  # l_big**2 in the drgta header overflows
    "e100.csv": sample_rows(25, 6, scale=1e100),  # ||grad f||^2 of the first row overflows
    "n-float.json": '{"n": 8.0}',
    "t-str.json": '{"t": "1"}',
}

# (name, CLI arguments); every subcommand but spectral also gets --out OUT.
CONFIGS = [
    ("drgta-ring8", "run --algorithm drgta --t 1 --max-iters 300"),
    ("drdgd-ring8", "run --algorithm drdgd --max-iters 200"),
    ("drsgd-ring8", "run --algorithm drsgd --max-epochs 5"),
    ("drcs-ring8", "run --algorithm drcs --max-iters 100"),
    ("consensus-ring6", "consensus --n 6 --d 10 --r 3"),
    ("drgta-t2", "run --algorithm drgta --t 2 --max-iters 100"),
    ("drcs-t3", "run --algorithm drcs --t 3 --max-iters 50"),
    ("drgta-tauto-ring16", "run --algorithm drgta --t 0 --n 16 --max-iters 100"),
    ("drdgd-complete5", "run --algorithm drdgd --graph complete --n 5 --max-iters 100"),
    ("drgta-er32-d200", "run --algorithm drgta --graph er(0.3) --n 32 --d 200 --r 10 --m 50 --max-iters 20"),
    ("consensus-er12-t2", "consensus --graph er(0.4) --n 12 --t 2 --max-iters 100"),
    ("drgta-r1", "run --algorithm drgta --r 1 --max-iters 100"),
    ("drdgd-r=d", "run --algorithm drdgd --d 6 --r 6 --max-iters 50"),
    ("consensus-independent", "consensus --init independent --max-iters 100"),
    ("drgta-perturb", "run --algorithm drgta --perturb 0.01 --max-iters 100"),
    ("drdgd-speedup", "run --algorithm drdgd --beta-scale speedup --max-iters 100"),
    ("drdgd-raw", "run --algorithm drdgd --beta-scale raw --beta-hat 0.001 --max-iters 100"),
    ("drsgd-diminishing", "run --algorithm drsgd --schedule diminishing --max-epochs 3"),
    ("drsgd-constant", "run --algorithm drsgd --schedule constant --max-epochs 3"),
    ("drgta-diminishing", "run --algorithm drgta --schedule diminishing --max-iters 50"),
    ("drsgd-batch7", "run --algorithm drsgd --batch-size 7 --max-epochs 5"),
    ("drgta-alpha0", "run --algorithm drgta --alpha 0 --max-iters 100"),
    ("consensus-alpha0.5-t2", "consensus --alpha 0.5 --t 2 --max-iters 100"),
    ("drgta-delta1", "run --algorithm drgta --delta1 0.01 --max-iters 100"),
    ("drgta-raw-1e5", "run --beta-hat 1e5 --beta-scale raw --max-iters 50"),
    ("drgta-raw-1e300", "run --beta-hat 1e300 --beta-scale raw --max-iters 20"),
    ("spectral-ring4", "spectral --n 4 --r 1"),
    ("spectral-ring8-t3", "spectral --t 3 --r 3"),
    ("spectral-complete6", "spectral --graph complete --n 6 --r 2"),
    ("spectral-er32", "spectral --graph er(0.3) --n 32 --r 5"),
    ("spectral-er12-alpha0.5", "spectral --graph er(0.5) --n 12 --r 2 --seed 3 --alpha 0.5"),
    ("spectral-ring16-delta1", "spectral --n 16 --delta1 0.005"),
    ("oracle", "oracle --n 3 --d 8 --r 2 --m 10 --seed 1"),
    ("dsv-header-ragged", "run --algorithm drgta --problem dsv --data header.csv --n 4 --r 2 --max-iters 100"),
    ("dsv-divisor", "run --algorithm drdgd --problem dsv --data counts.txt --divisor 255 --n 3 --r 2 --max-iters 100"),
    ("oracle-dsv", "oracle --problem dsv --data header.csv --n 4 --r 3"),
    # batches of 3 over blocks of 11, 11, 11, 10: every fourth step has batches 2, 2, 2, 1
    ("dsv-drsgd-ragged-batch3", "run --algorithm drsgd --problem dsv --data header.csv --n 4 --r 2 --batch-size 3 --max-epochs 4"),
    ("dsv-drsgd-ragged-constant", "run --algorithm drsgd --problem dsv --data header.csv --n 4 --r 2 --batch-size 3 --schedule constant --max-epochs 3"),
    ("drdgd-constant", "run --algorithm drdgd --schedule constant --max-iters 50"),
    # failures: each should exit with its documented code and an error line
    ("config-n-float", "run --config n-float.json --max-iters 5"),
    ("config-t-str", "run --config t-str.json --max-iters 5"),
    ("dsv-gram-overflow", "run --algorithm drdgd --problem dsv --data e154.csv --n 3 --r 2 --max-iters 5"),
    ("dsv-divisor-tiny", "oracle --problem dsv --data header.csv --n 4 --r 2 --divisor 1e-300"),
    ("dsv-1e80-drgta", "run --algorithm drgta --problem dsv --data e80.csv --n 4 --r 2 --max-iters 5"),
    ("dsv-1e100-drdgd", "run --algorithm drdgd --problem dsv --data e100.csv --n 4 --r 2 --max-iters 5"),
]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def error_line(stderr: bytes) -> str:
    """The CLI's last error line, 'traceback' for an uncaught exception, or '-'."""
    text = stderr.decode(errors="replace")
    if "Traceback (most recent call last)" in text:
        return "traceback"
    errors = [line for line in text.splitlines() if line.startswith(ERROR_PREFIXES)]
    return errors[-1] if errors else "-"


def digest(args: list, src: Path) -> tuple:
    """(exit code, stdout digest, file digest or '-', error line) of one CLI run in a
    fresh directory holding the files the arguments name."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        for name in set(args) & set(FILES):
            (Path(tmp) / name).write_text(FILES[name], encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "stiefel_dec.cli", *args],
                              cwd=tmp, env=env, capture_output=True)
        out = Path(tmp) / OUT
        written = sha(out.read_bytes()) if out.exists() else "-"
        return proc.returncode, sha(proc.stdout), written, error_line(proc.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                        help="directory holding the stiefel_dec package (default: this checkout)")
    ns = parser.parse_args(argv)
    src = ns.src.resolve()
    for name, line in CONFIGS:
        args = line.split()
        if args[0] != "spectral":  # spectral prints its report and writes nothing
            args += ["--out", OUT]
        code, out, written, err = digest(args, src)
        print(f"{name} {code} {out} {written} {err}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
