"""Command-line entry point: one subcommand per experiment kind, with one
flag per scalar key of that kind's `harness.SCHEMA` rows (`--key-name`,
plus `-k` for a one-letter key); list and dict keys come from `--config`.
A run that names its kind first builds only that kind's subcommand; any
other command line (`--help`, no kind, a bad kind) gets all six.

Exit codes: 0 success, 1 user/config error, 2 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import COMMON, KINDS, NUMBER, SCHEMA, ConfigError, ExperimentConfig, run
from .qubo import CapacityError

EXIT_OK = 0
EXIT_USER = 1
EXIT_CAPACITY = 2

# how argparse reads each scalar type; the schema checks the value
_FLAG_OPTIONS = {
    int: {"type": int},
    NUMBER: {"type": float},
    str: {},
    bool: {"action": argparse.BooleanOptionalAction},
}


class _Parser(argparse.ArgumentParser):
    """A bad command line is a user error (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def build_parser(kinds=KINDS) -> argparse.ArgumentParser:
    """The top-level parser with one subcommand per kind in `kinds`."""
    parser = _Parser(
        prog="chemca",
        description="Probabilistic chemical cellular automata and hybrid Ising solvers",
    )
    subs = parser.add_subparsers(dest="kind", required=True)
    for kind in kinds:
        sub = subs.add_parser(kind, help=f"run a {kind} experiment")
        sub.add_argument("--config", help="JSON experiment config file")
        sub.add_argument("--quiet", action="store_true", help="suppress progress output")
        for row in {**COMMON, **SCHEMA[kind]}.values():  # a kind's row replaces a common one
            if row.type in _FLAG_OPTIONS:
                flags = [f"-{row.key}"] if len(row.key) == 1 else []
                flags.append(f"--{row.key.replace('_', '-')}")
                sub.add_argument(*flags, dest=row.key, help=row.help, **_FLAG_OPTIONS[row.type])
    return parser


def _assemble(args) -> dict:
    """The config file's keys, overridden by every flag given."""
    raw: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"--config: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"--config: expected a JSON object, got {type(raw).__name__}")
    raw["kind"] = args.kind
    for key in (*COMMON, *SCHEMA[args.kind]):
        if getattr(args, key, None) is not None:
            raw[key] = getattr(args, key)
    return raw


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a subcommand's parse, help and errors do not depend on its siblings
    kinds = argv[:1] if argv[:1] and argv[0] in SCHEMA else KINDS
    try:
        args = build_parser(kinds).parse_args(argv)
        run(ExperimentConfig.from_dict(_assemble(args)), quiet=args.quiet)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
