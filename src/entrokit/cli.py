"""Command-line entry point.

A command selects suites; a JSON config selects the model and overrides
tolerances or sample counts.  Exit codes are a stable contract: 0 all checks
pass, 1 at least one check failed (the report is still written), 2 usage,
config or parse error, 3 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, EntrokitError, ParseError
from .report import SUITES, SuiteConfig, emit, run

SUBCOMMAND_SUITES = {
    "check-axioms": ("axioms",),
    "construct-ly": ("ly",),
    "construct-zb": ("zb",),
    "verify-theorems": ("energy", "theorems"),
    "caratheodory": ("caratheodory",),
    "mutants": ("mutants",),
    "all": SUITES,
}


def build_parser() -> argparse.ArgumentParser:
    # The command is a positional, so the flags are accepted on either side.
    parser = argparse.ArgumentParser(
        prog="entrokit",
        description="Run verification suites for entropy constructions "
                    "over accessibility relations.",
    )
    parser.add_argument("command", choices=SUBCOMMAND_SUITES, help="the suite(s) to run")
    parser.add_argument("--config", help="path to a JSON suite config")
    parser.add_argument("--seed", type=int, help="override the sampling seed")
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="json",
        help="output format (json is canonical)",
    )
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument(
        "--tolerance", action="append", default=[], metavar="NAME=VALUE",
        help="override a named tolerance (repeatable)",
    )
    return parser


def _load_config(args) -> SuiteConfig:
    path = args.config
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        # A file that is not UTF-8, or an integer longer than int() takes,
        # raises a ValueError that is no JSONDecodeError.
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc

    # Overrides are merged while the config is built, so SuiteConfig
    # validates them exactly as it validates the file's own values.
    overrides = {}
    for override in args.tolerance:
        if "=" not in override:
            raise ConfigError(f"tolerance override must look like NAME=VALUE: {override!r}")
        name, _, value = override.partition("=")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"tolerance {name!r} needs a number, got {value!r}") from exc
    config = SuiteConfig.from_dict(raw, SUBCOMMAND_SUITES[args.command], overrides)
    return config if args.seed is None else config.replace(seed=args.seed)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        report = run(config)
    except (ConfigError, ParseError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EntrokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = emit(report, args.format)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(payload)
    return 0 if report.aggregate_pass else 1


if __name__ == "__main__":
    sys.exit(main())
