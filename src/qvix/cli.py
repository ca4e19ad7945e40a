"""Command line entry point: run or validate experiment configs."""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from .experiments import ConfigError, build_problem, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qvix",
        description="Extremal solutions and directional sensitivities of "
                    "obstacle-type quasi-variational problems.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment config")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument("--out", default=None,
                     help="output directory (default: qvix_out/<config file stem>)")

    val = sub.add_parser("validate", help="check a config without running solvers")
    val.add_argument("config", help="path to a JSON experiment config")
    return parser


def main(argv=None) -> int:
    # a number or a level name is a level: logging.BASIC_FORMAT, say, is a string
    name = os.environ.get("QVIX_LOG", "WARNING")
    level = int(name) if name.isdecimal() else getattr(logging, name.upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)

    try:
        config = load_config(args.config)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        try:
            build_problem(config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        print(f"{args.config}: valid")
        return 0

    out = args.out if args.out is not None else Path("qvix_out", Path(args.config).stem)
    try:
        artifacts = run_experiment(config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    print(f"wrote {artifacts.files['summary']}")
    if not artifacts.ok:
        for failure in artifacts.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
