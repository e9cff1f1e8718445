"""Command-line interface.

Subcommands: run (any algorithm, drcs the pure gossip contraction), spectral
(graph and mixing-rate report), oracle (centralized solution). run writes its
CSV log and oracle its solution to the config's out, from --out or --config.
The flags are not written here: each config field's flag, help text,
subcommands and simple range are declared once, on its ExperimentConfig line
(harness.py), and the parser is built from that table.
Exit codes, one per error class: 0 ok, 2 bad configuration (ConfigError,
`config error: <field>: ...`, which set-up errors take too, naming their
field; a ParameterError that no field names prints as `error:`; an --out path
that cannot be written is found before the first round), 3 data ingestion
failure (IngestionError), 4 numerical breakdown (NumericalError: degenerate
mean, non-finite step or metric, failed retraction), 5 finished without
reaching the configured tolerance (the log is still written).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .errors import ConfigError, IngestionError, NumericalError, StiefelDecError
from .harness import (
    CHOICES,
    EXIT_CONFIG,
    EXIT_INGESTION,
    EXIT_NUMERICAL,
    EXIT_OK,
    ExperimentConfig,
    oracle_report,
    parse_config,
    run_experiment,
    spectral_report,
    write_out,
)

# argparse keywords per field type; a boolean field is a switch
_ARGUMENT_KINDS = {"int": dict(type=int), "float": dict(type=float), "str": {}, "bool": dict(action="store_true")}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each taking --config and the flag of every config field
    declared for it. A flag not given is left out of the namespace, so the file or the
    field's default fills it."""
    parser = argparse.ArgumentParser(
        prog="stiefel-dec",
        description="Decentralized optimization on the Stiefel manifold over simulated agent networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "run": sub.add_parser("run", help=f"run an experiment ({' | '.join(CHOICES['algorithm'])})"),
        "spectral": sub.add_parser("spectral", help="graph and mixing-rate report"),
        "oracle": sub.add_parser("oracle", help="print or save the centralized solution"),
    }
    for p in commands.values():
        p.add_argument("--config", default=None, help="JSON config file; flags override it")
    for f in fields(ExperimentConfig):
        meta = f.metadata
        flag = meta["flag"] or "--" + f.name.replace("_", "-")
        for command in meta["commands"]:
            commands[command].add_argument(
                flag, dest=f.name, default=argparse.SUPPRESS, help=meta["help"],
                **_ARGUMENT_KINDS[f.type.partition(" | ")[0]],
            )
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
        if cfg.out is not None:
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
