"""Command-line entry point: run scenario files or bundled demos and emit
a deterministic JSON report."""

from __future__ import annotations

import json
import os
import sys
from importlib import resources

import click

from .runner import run_scenario
from .scenario import ScenarioError, parse_scenario


def _apply_thread_env() -> None:
    threads = os.environ.get("LEGFOL_THREADS")
    if threads:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ.setdefault(var, threads)


def _run(text: str, source: str, json_path: str | None, seed: int,
         tol: float | None, samples: int | None) -> int:
    try:
        report = run_scenario(parse_scenario(text), seed=seed,
                              overrides={"tol": tol, "samples": samples})
    except ScenarioError as exc:
        click.echo(f"{source}: {exc}", err=True)
        return 2
    for c in report["checks"]:
        status = "ok  " if c["ok"] else "FAIL"
        click.echo(f"{status} {c['name']} [{c['kind']}] "
                   f"expect={c['expect']}")
    verdict = "PASS" if report["passed"] else "FAIL"
    click.echo(f"{verdict} {report['scenario']} "
               f"({len(report['checks'])} checks, "
               f"{report['wall_time']:.2f}s)")
    if json_path:
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return 0 if report["passed"] else 1


@click.group()
def main() -> None:
    """Numerical verification scenarios for contact-geometry constructions."""
    _apply_thread_env()


def _common(f):
    f = click.option("--json", "json_path", type=click.Path(dir_okay=False),
                     default=None, help="Write the full report as JSON.")(f)
    f = click.option("--seed", type=int, default=0, show_default=True,
                     help="Seed for the sample-point generator.")(f)
    f = click.option("--tol", type=float, default=None,
                     help="Override every check's tolerance.")(f)
    f = click.option("--samples", type=click.IntRange(min=1), default=None,
                     help="Override every check's sample count.")(f)
    return f


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@_common
def check(file: str, json_path: str | None, seed: int,
          tol: float | None, samples: int | None) -> None:
    """Run the checks declared in a scenario FILE."""
    with open(file) as fh:
        text = fh.read()
    sys.exit(_run(text, file, json_path, seed, tol, samples))


def demo_names() -> list[str]:
    root = resources.files("legfol") / "scenarios"
    return sorted(p.name[:-4] for p in root.iterdir()
                  if p.name.endswith(".scn"))


@main.command()
@click.argument("name", required=False)
@_common
def demo(name: str | None, json_path: str | None, seed: int,
         tol: float | None, samples: int | None) -> None:
    """Run a bundled demo scenario; with no NAME, list the available ones."""
    names = demo_names()
    if name is None:
        for n in names:
            click.echo(n)
        return
    if name not in names:
        click.echo(f"unknown demo '{name}'; available: {', '.join(names)}",
                   err=True)
        sys.exit(2)
    text = (resources.files("legfol") / "scenarios" / f"{name}.scn").read_text()
    sys.exit(_run(text, name, json_path, seed, tol, samples))


if __name__ == "__main__":
    main()
