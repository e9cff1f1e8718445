"""Command-line interface.

Subcommands: run (any algorithm, drcs the pure gossip contraction), spectral
(graph and mixing-rate report), oracle (centralized solution). run writes its
CSV log and oracle its solution to the config's out, from --out or --config.
Exit codes, one per error class: 0 ok, 2 bad configuration (ConfigError, or
ParameterError printed as `error:`; an --out path that cannot be written is
found before the first round), 3 data ingestion failure (IngestionError), 4
numerical breakdown (NumericalError: degenerate mean, non-finite step or
metric, failed retraction), 5 finished without reaching the configured
tolerance (the log is still written).
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, IngestionError, NumericalError, StiefelDecError
from .harness import (
    CHOICES,
    EXIT_CONFIG,
    EXIT_INGESTION,
    EXIT_NUMERICAL,
    EXIT_OK,
    oracle_report,
    parse_config,
    run_experiment,
    spectral_report,
    write_out,
)

_SUPPRESS = argparse.SUPPRESS


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.add_argument("--graph", default=_SUPPRESS, help=" | ".join(CHOICES["graph"]) + " | er(p)")
    p.add_argument("--er-p", dest="er_p", type=float, default=_SUPPRESS, help="ER edge probability")
    p.add_argument("--n", type=int, default=_SUPPRESS, help="number of agents")
    p.add_argument("--t", type=int, default=_SUPPRESS, help="gossip rounds per iteration (0 = auto minimum)")
    p.add_argument("--alpha", type=float, default=_SUPPRESS, help="consensus stepsize (0 = auto cap)")
    p.add_argument("--r", type=int, default=_SUPPRESS, help="columns of the Stiefel variable")
    p.add_argument("--d", type=int, default=_SUPPRESS, help="ambient dimension (synthetic problem)")
    p.add_argument("--m", type=int, default=_SUPPRESS, help="samples per agent (synthetic problem)")
    p.add_argument("--gap", type=float, default=_SUPPRESS, help="eigengap of the synthetic spectrum, in (0,1)")
    p.add_argument("--problem", default=_SUPPRESS, help=" | ".join(CHOICES["problem"]))
    p.add_argument("--data", dest="data_path", default=_SUPPRESS, help="delimiter-separated data file (dsv problem)")
    p.add_argument("--divisor", type=float, default=_SUPPRESS, help="divide data values by this on load")
    p.add_argument("--seed", type=int, default=_SUPPRESS, help="master seed")
    p.add_argument("--delta1", type=float, default=_SUPPRESS, help="mean-square region radius (0 = delta2/(5 sqrt r))")
    p.add_argument("--delta2", type=float, default=_SUPPRESS, help="per-agent region radius, at most 1/6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stiefel-dec",
        description="Decentralized optimization on the Stiefel manifold over simulated agent networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help=f"run an experiment ({' | '.join(CHOICES['algorithm'])})")
    run_p.add_argument("--algorithm", default=_SUPPRESS, help=" | ".join(CHOICES["algorithm"]))
    _add_common(run_p)
    run_p.add_argument("--schedule", default=_SUPPRESS, help=" | ".join(CHOICES["schedule"]))
    run_p.add_argument("--beta-hat", dest="beta_hat", type=float, default=_SUPPRESS, help="practical stepsize before rescaling")
    run_p.add_argument("--beta-scale", dest="beta_scale", default=_SUPPRESS, help=" | ".join(CHOICES["beta_scale"]))
    run_p.add_argument("--max-iters", dest="max_iters", type=int, default=_SUPPRESS)
    run_p.add_argument("--max-epochs", dest="max_epochs", type=int, default=_SUPPRESS)
    run_p.add_argument("--batch-size", dest="batch_size", type=int, default=_SUPPRESS)
    run_p.add_argument("--tol-ds", dest="tol_ds", type=float, default=_SUPPRESS, help="stop when d_s(mean, oracle) is below this (0 disables)")
    run_p.add_argument("--tol-grad", dest="tol_grad", type=float, default=_SUPPRESS, help="stop when ||grad f(mean)|| is below this (0 disables)")
    run_p.add_argument("--tol-consensus", dest="tol_consensus", type=float, default=_SUPPRESS, help="consensus runs: stop when the stacked deviation is below this")
    run_p.add_argument("--init", default=_SUPPRESS, help=" | ".join(CHOICES["init"]))
    run_p.add_argument("--perturb", type=float, default=_SUPPRESS, help="tangent noise on a shared start")
    run_p.add_argument("--timing", action="store_true", default=_SUPPRESS, help="record wall-clock ms per row (breaks byte-level log reproducibility)")
    run_p.add_argument("--out", default=_SUPPRESS, help="CSV log path")

    spectral_p = sub.add_parser("spectral", help="graph and mixing-rate report")
    _add_common(spectral_p)

    orc_p = sub.add_parser("oracle", help="print or save the centralized solution")
    _add_common(orc_p)
    orc_p.add_argument("--out", default=_SUPPRESS, help="write the solution matrix here instead of stdout")

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        flags = {k: v for k, v in vars(ns).items() if k not in ("command", "config")}
        cfg = parse_config(file=ns.config, flags=flags)

        if ns.command == "run":
            outcome = run_experiment(cfg)
            print(outcome.summary)
            return outcome.code
        if ns.command == "spectral":
            print(spectral_report(cfg))
            return EXIT_OK
        # oracle
        text = oracle_report(cfg)
        if cfg.out:
            write_out(cfg.out, text + "\n")
            print(f"wrote {cfg.out}")
        else:
            print(text)
        return EXIT_OK
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestionError as e:
        print(f"ingestion error: {e}", file=sys.stderr)
        return EXIT_INGESTION
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except StiefelDecError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
