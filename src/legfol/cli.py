"""Command-line entry point: run scenario files or bundled demos and emit
a deterministic JSON report."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources
from typing import Sequence

from .runner import run_scenario
from .scenario import ScenarioError, parse_scenario


def _run(text: str, source: str, json_path: str | None, seed: int,
         tol: float | None, samples: int | None) -> int:
    try:
        report = run_scenario(parse_scenario(text), seed=seed,
                              overrides={"tol": tol, "samples": samples})
    except ScenarioError as exc:
        print(f"{source}: {exc}", file=sys.stderr)
        return 2
    for c in report["checks"]:
        status = "ok  " if c["ok"] else "FAIL"
        print(f"{status} {c['name']} [{c['kind']}] expect={c['expect']}")
    verdict = "PASS" if report["passed"] else "FAIL"
    print(f"{verdict} {report['scenario']} "
          f"({len(report['checks'])} checks, "
          f"{report['wall_time']:.2f}s)")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if report["passed"] else 1


def demo_names() -> list[str]:
    root = resources.files("legfol") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir()
                  if p.name.endswith(".scn"))


def _checked(cast, ok, what: str):
    """The argparse type of a value that cast parses and ok accepts."""
    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"'{text}' is not {what}")
    return parse


def main(argv: Sequence[str] | None = None) -> None:
    """Numerical verification scenarios for contact-geometry constructions.
    Exits 0 if every check is ok, 1 if one is not, 2 on malformed input."""
    parser = argparse.ArgumentParser(prog="legfol", description=main.__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    check = commands.add_parser(
        "check", help="Run the checks declared in a scenario FILE.")
    check.add_argument("file", metavar="FILE")
    demo = commands.add_parser(
        "demo", help="Run a bundled demo scenario; with no NAME, list the "
                     "available ones.")
    demo.add_argument("name", metavar="NAME", nargs="?")
    for sub in (check, demo):
        sub.add_argument("--json", dest="json_path", metavar="PATH",
                         help="Write the full report as JSON.")
        sub.add_argument("--seed", default=0, type=_checked(
                             int, lambda v: v >= 0, "an integer >= 0"),
                         help="Seed for the sample-point generator "
                              "(default: 0).")
        sub.add_argument("--tol", type=_checked(
                             float, lambda v: 0 < v < math.inf,
                             "a positive finite number"),
                         help="Override every check's tolerance.")
        sub.add_argument("--samples", type=_checked(
                             int, lambda v: v >= 1, "an integer >= 1"),
                         help="Override every check's sample count.")
    args = parser.parse_args(argv)
    if args.json_path and os.path.isdir(args.json_path):
        parser.error(f"argument --json: '{args.json_path}' is a directory")
    if args.command == "check":
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as exc:
            check.error(f"cannot read FILE: {exc}")
        source = args.file
    else:
        names = demo_names()
        if args.name is None:
            print(*names, sep="\n")
            sys.exit(0)
        if args.name not in names:
            print(f"unknown demo '{args.name}'; available: "
                  f"{', '.join(names)}", file=sys.stderr)
            sys.exit(2)
        text = (resources.files("legfol") / "scenarios"
                / f"{args.name}.scn").read_text()
        source = args.name
    sys.exit(_run(text, source, args.json_path, args.seed, args.tol,
                  args.samples))


if __name__ == "__main__":
    main()
