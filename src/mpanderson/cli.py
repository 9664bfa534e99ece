"""Command-line interface.

Subcommands: msa, decay, moment, spectrum (each runs the matching task from
a config file) and validate (model-assumption checks only).  Exit codes:
0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import TASK_TYPES, ConfigError, parse_config, run, validate_report

_COMMANDS = (*TASK_TYPES, "validate")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpanderson",
        description="Finite-volume laboratory for the multi-particle Anderson model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} task" if name != "validate" else "check model assumptions")
        p.add_argument("--config", required=True, help="path to the experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override run.master_seed")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument("--plot", action="store_true", help="emit two-column plot data files")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        for line, message in exc.errors:
            where = f"line {line}: " if line else ""
            print(f"config error: {where}{message}", file=sys.stderr)
        return 1

    if args.command == "validate":
        passed, lines = validate_report(config)
        print("\n".join(lines))
        return 0 if passed else 1

    if config.task.type != args.command:
        print(
            f"config error: task.type is {config.task.type!r} but the "
            f"{args.command!r} subcommand was invoked",
            file=sys.stderr,
        )
        return 1

    try:
        manifest = run(
            config,
            cli_seed=args.seed,
            cli_workers=args.workers,
            out_override=args.out,
            plot=args.plot,
        )
    except Exception as exc:  # noqa: BLE001 - boundary between library and shell
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    for path in manifest.outputs:
        print(f"wrote {path}")
    print(f"done in {manifest.wall_time_s:.2f} s")
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
