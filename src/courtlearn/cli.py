"""Command-line entry points.

``courtlearn run <config.json>`` sweeps every configured policy across the
horizon list and writes regret.csv / slopes.csv (plus ledgers.jsonl with
--ledgers); ``courtlearn kwik <config.json>`` writes kwik.csv for the
configured kwik policy.  Exit code 0 on success, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Sequence

from .config import ExperimentSpec, load_config
from .core import ConfigurationError
from .experiment import kwik_report, run_experiment

CONFIG_ERROR_EXIT = 2


def _apply_overrides(spec: ExperimentSpec, args: argparse.Namespace) -> ExperimentSpec:
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    if getattr(args, "replications", None) is not None:
        updates["replications"] = args.replications
    return dataclasses.replace(spec, **updates) if updates else spec


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("config", help="path to the experiment config (JSON)")
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument("--seed", type=int, help="master seed (overrides the config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="courtlearn",
        description="Online learning of decision rules through costly court queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="sweep policies and emit regret/slope tables")
    _add_common_arguments(run_parser)
    run_parser.add_argument(
        "--replications", type=int, help="replications per cell (overrides the config)"
    )
    run_parser.add_argument(
        "--ledgers", action="store_true", help="also emit per-replication ledgers (JSON lines)"
    )

    kwik_parser = sub.add_parser("kwik", help="emit the per-case accuracy table for a kwik policy")
    _add_common_arguments(kwik_parser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = _apply_overrides(load_config(args.config), args)
        if args.command == "run":
            outputs = run_experiment(spec, ledgers=args.ledgers)
        else:
            outputs = kwik_report(spec)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return CONFIG_ERROR_EXIT
    for name, path in sorted(outputs.items()):
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
