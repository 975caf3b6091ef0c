"""Command-line entry point.

Exit codes: 0 on success, 2 when the scenario fails validation or --out
cannot be made a directory, 3 when a valid scenario faults while running
or an output file cannot be written. A reader that closes stdout early
does not change the exit code.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from pathlib import Path

from swarmsim.estimation import EstimationFault
from swarmsim.planning import PlanningError
from swarmsim.sim import RuntimeFault
from swarmsim.cli.runner import (
    COMPARE_VARIANTS,
    DEFAULT_COMPARE_VARIANTS,
    RunSummary,
    format_summary,
    run_compare,
    run_scenario,
)
from swarmsim.cli.scenario import Scenario, ScenarioError, load_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_FAULT = 3

_COMMANDS = (
    ("track", "drive a robot along a reference trajectory"),
    ("localize", "estimate one robot's pose from its sensor reports"),
    ("consensus", "run heading agreement across a swarm"),
    ("plan", "map an arena from range scans and plan a path"),
    ("compare", "run every estimator variant on identical noise"),
    ("validate", "check a scenario file without running it"),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="swarmsim",
        description="differential-drive swarm simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("scenario", help="path to a scenario YAML file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="replace the scenario seed")
        cmd.add_argument("--out", default="out",
                         help="directory for output files (default: out)")
        cmd.add_argument("--override", action="append", default=[],
                         metavar="KEY=VALUE",
                         help="set a scenario field by dotted path; repeatable")
        if name == "compare":
            cmd.add_argument("--variants", nargs="+", choices=COMPARE_VARIANTS,
                             default=DEFAULT_COMPARE_VARIANTS, metavar="NAME",
                             help="estimator variants to run (default: "
                                  f"{' '.join(DEFAULT_COMPARE_VARIANTS)})")
    return parser


def _check_kind(command: str, scenario: Scenario) -> None:
    expected = "localize" if command == "compare" else command
    if scenario.kind != expected:
        raise ScenarioError(
            f"scenario kind {scenario.kind!r} does not run under the "
            f"{command!r} command (expected kind {expected!r})")


def _print_lines(*lines: str) -> None:
    """Print to stdout and flush. When the reader has closed the pipe,
    point stdout at os.devnull, so the interpreter's final flush of what
    is left in the buffer does not raise either."""
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.override)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    try:
        scenario = load_scenario(args.scenario, tuple(overrides))
        if args.command == "validate":
            _print_lines(format_summary(RunSummary(scenario, {"valid": True})))
            return EXIT_OK
        _check_kind(args.command, scenario)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: --out {args.out}: cannot be made a directory "
                  f"({exc.strerror or exc})", file=sys.stderr)
            return EXIT_INVALID
        t0 = time.perf_counter()
        try:
            if args.command == "compare":
                summary = run_compare(scenario, out_dir, tuple(args.variants))
            else:
                summary = run_scenario(scenario, out_dir)
        except OSError as exc:
            # Only writing the output files touches the file system.
            raise RuntimeFault(f"cannot write {exc.filename or out_dir}: "
                               f"{exc.strerror or exc}") from None
        wall_clock_s = time.perf_counter() - t0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (RuntimeFault, EstimationFault, PlanningError) as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except MemoryError as exc:
        # Validation caps each run's size, so this is a machine short of
        # memory, not an invalid scenario.
        detail = f" ({exc})" if str(exc) else ""
        print(f"fault: out of memory{detail}", file=sys.stderr)
        return EXIT_FAULT
    _print_lines(format_summary(summary), f"wall_clock_s: {wall_clock_s:.3f}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
