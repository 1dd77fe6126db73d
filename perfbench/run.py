"""Benchmark of legfol's verdict pipeline on generated scenarios.

Run from the repository root:

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 20 --trace 0

One process runs the workload's scenarios in a closed loop, one at a time,
through ``legfol.scenario.parse_scenario`` and ``legfol.runner.run_scenario``,
repeating the pass until ``--seconds`` have elapsed (the pass in flight
completes; at least two passes run).  Every pass uses the same inputs, so
every pass must give the same reports apart from ``wall_time``.

Times are rescaled to a reference machine speed: ``speed.SpeedProbe``
samples the CPU's speed during every pass and every set-up process, and each
wall time is divided by the slowdown measured during it.  This removes the
minutes-long drift of a shared VM, which medians over a run do not.  The raw
wall times and slowdowns are kept in the full result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones; their median minus the untraced median is ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full results, with
machine information and per-pass times, go to ``.bench_out/`` in the
repository root, and a traced run also writes its first traced pass's spans
there.  The exit code is 0 when every check matched its expectation and every
pass repeated the first one, 1 otherwise, and 2 when the program cannot be
found or the arguments are invalid.
"""

from __future__ import annotations

import os

# The benchmark is one thread on a host that may share its cores: cap BLAS
# threads before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# End-to-end metrics of an untraced run, with their units.  items_per_s is
# printed beside them but not gated: with a fixed number of items per pass
# it is the reciprocal of verdict_s and adds no information.
END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "peak_rss_mb": "MB",
}
MIN_PASSES = 2
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60

# What a user pays before the first verdict: a fresh interpreter imports the
# package and parses the scenarios.  The child samples its speed meanwhile and
# prints the number of checks and its slowdown.
SETUP_CODE = """\
import json, sys
texts = json.load(sys.stdin)
import speed
with speed.SpeedProbe() as probe:
    import legfol.runner
    from legfol.scenario import parse_scenario
    checks = sum(len(parse_scenario(t).checks()) for t in texts)
print(checks, probe.slowdown())
"""


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


def measure_setup(texts: list[str], expected_checks: int
                  ) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import legfol and parse the texts,
    and the slowdown each process measured."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    payload = json.dumps(texts)
    times, slowdowns = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE],
                              input=payload, capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        out = proc.stdout.split()
        if proc.returncode != 0 or out[:1] != [str(expected_checks)]:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        slowdowns.append(float(out[1]))
    return times, slowdowns


def rescale_layers(summary: dict, slowdown: float, units: dict) -> dict:
    """A traced pass's layer metrics at the reference speed."""
    scale = {"s": 1.0 / slowdown, "1/s": slowdown}
    return {name: value * scale[units[name]] if units[name] in scale
            else value for name, value in summary.items()}


def pass_items(workload: str, scenarios, reports, transports: int) -> int:
    """Work items of one pass, from what the reports say was used.

    scan-grid counts grid points (scan reports carry no grid size, so it is
    computed from each check's box and step); pointwise-identities counts
    sample points, from ``samples_used`` or ``samples`` where the report has
    them and from the check's ``samples`` key otherwise; holonomy-transport
    counts parallel transports.
    """
    from tracing import grid_size

    if workload == "holonomy-transport":
        return transports
    total = 0
    for sc, report in zip(scenarios, reports):
        blocks = {b.name: b for b in sc.checks()}
        for check in report["checks"]:
            block = blocks[check["name"]]
            if workload == "scan-grid":
                total += grid_size(3, float(block.get("box", "1.0")),
                                   float(block.get("step", "0.05")))
                continue
            detail = check["detail"]
            used = detail.get("samples_used", detail.get("samples"))
            total += int(used if used is not None else block.get("samples"))
    return total


def _matches(value, want) -> bool:
    if isinstance(want, float):
        return isinstance(value, (int, float)) and math.isclose(
            value, want, rel_tol=1e-9)
    return value == want


class Gate:
    """Correctness gate.  A check execution fails when its outcome does not
    match its declared expectation, when it carries an error, when a detail
    value the benchmark knows independently differs, or when its report
    differs from the same check's report in the first pass."""

    def __init__(self, expected_details: dict[str, dict]):
        self.expected = expected_details
        self.first: list[dict] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def crashed(self, scenarios, exc: BaseException):
        checks = sum(len(sc.checks()) for sc in scenarios)
        self.attempted += checks
        self.failed += checks
        self.problems.append(f"{type(exc).__name__}: {exc}")

    def record(self, reports: list[dict]):
        stripped = [{k: v for k, v in r.items() if k != "wall_time"}
                    for r in reports]
        if self.first is None:
            self.first = stripped
        for report, first in zip(stripped, self.first):
            first_checks = {c["name"]: c for c in first["checks"]}
            for check in report["checks"]:
                self.attempted += 1
                name = f"{report['scenario']}/{check['name']}"
                want = self.expected.get(check["name"], {})
                if not check["ok"] or "error" in check:
                    self.fail(f"{name}: outcome does not match "
                              f"expect={check['expect']}")
                elif not all(_matches(check["detail"].get(k), v)
                             for k, v in want.items()):
                    self.fail(f"{name}: detail differs from {want}")
                elif check != first_checks.get(check["name"]):
                    self.fail(f"{name}: report differs from the first pass")
            head = {k: v for k, v in report.items() if k != "checks"}
            if head != {k: v for k, v in first.items() if k != "checks"} or \
                    len(report["checks"]) != len(first["checks"]):
                self.fail(f"{report['scenario']}: report differs from the "
                          f"first pass")


def count_transports() -> dict:
    """Count parallel transports, holonomy-transport's work items, with a
    wrapper that adds one Python call per ODE solve."""
    from legfol import bundle

    counter = {"n": 0}
    original = bundle.parallel_transport

    def counted(*args, **kwargs):
        counter["n"] += 1
        return original(*args, **kwargs)

    bundle.parallel_transport = counted
    return counter


def run_pass(runner, scenarios, seed: int, gate: Gate):
    """One pass: every scenario to its verdict.  None if one raised."""
    try:
        return [runner.run_scenario(sc, seed=seed) for sc in scenarios]
    except Exception as exc:  # a stray exception is a failed verdict
        traceback.print_exc(file=sys.stderr)
        gate.crashed(scenarios, exc)
        return None


def run(args, workloads) -> dict:
    from legfol import runner, scenario

    import tracing
    from speed import SpeedProbe

    texts = workloads.generate(args.workload, args.seed)
    scenarios = [scenario.parse_scenario(t) for t in texts]
    n_checks = sum(len(sc.checks()) for sc in scenarios)
    gate = Gate(workloads.EXPECTED_DETAILS.get(args.workload, {}))
    setup_wall, setup_slowdowns = measure_setup(texts, n_checks)
    setup = [t / f for t, f in zip(setup_wall, setup_slowdowns)]
    transports = count_transports() if args.workload == "holonomy-transport" \
        else {"n": 0}
    tracer = tracing.Tracer() if args.trace else None

    untraced, traced, layers, items = [], [], [], []
    untraced_wall, traced_wall, untraced_slow, traced_slow = [], [], [], []
    first_spans = None
    t_start = time.perf_counter()
    while True:
        transports["n"] = 0
        if tracer is not None and len(untraced) > len(traced):
            with tracer.active():
                parsed = [scenario.parse_scenario(t) for t in texts]
                with SpeedProbe() as probe:
                    t0 = time.perf_counter()
                    reports = run_pass(runner, parsed, args.seed, gate)
                    wall = time.perf_counter() - t0
            slowdown = probe.slowdown()
            traced_wall.append(wall)
            traced_slow.append(slowdown)
            traced.append(wall / slowdown)
            layers.append(rescale_layers(tracer.summary(), slowdown,
                                         tracing.LAYER_METRICS))
            if first_spans is None:
                first_spans = tracer.spans
        else:
            with SpeedProbe() as probe:
                t0 = time.perf_counter()
                reports = run_pass(runner, scenarios, args.seed, gate)
                wall = time.perf_counter() - t0
            slowdown = probe.slowdown()
            untraced_wall.append(wall)
            untraced_slow.append(slowdown)
            untraced.append(wall / slowdown)
        if reports is not None:
            gate.record(reports)
            items.append(pass_items(args.workload, scenarios, reports,
                                    transports["n"]))
        if (time.perf_counter() - t_start >= args.seconds
                and len(untraced) + len(traced) >= MIN_PASSES):
            break

    if len(set(items)) > 1:
        gate.fail(f"work items differ between passes: {items}")
    for name in tracing.DETERMINISTIC:
        values = {lp[name] for lp in layers}
        if len(values) > 1:
            gate.fail(f"{name} differs between traced passes: {values}")

    verdict = statistics.median(untraced)
    end_to_end = {
        "setup_s": statistics.median(setup),
        "verdict_s": verdict,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "samples": {"setup_runs": len(setup), "untraced_passes":
                    len(untraced), "traced_passes": len(traced)},
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "setup_slowdown": setup_slowdowns,
        "untraced_pass_s": untraced,
        "untraced_pass_wall_s": untraced_wall,
        "untraced_pass_slowdown": untraced_slow,
        "traced_pass_s": traced,
        "traced_pass_wall_s": traced_wall,
        "traced_pass_slowdown": traced_slow,
        "items_per_pass": items[0] if items else 0,
        "items_per_s": items[0] / verdict if items else 0.0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "fail_frac": gate.failed / max(gate.attempted, 1),
        "problems": gate.problems,
        "end_to_end": end_to_end,
    }
    if tracer is not None:
        per_layer = {}
        for name in tracing.LAYER_METRICS:
            if name == "trace.overhead_s":
                per_layer[name] = statistics.median(traced) - verdict
            elif tracing.LAYER_METRICS[name] == "count":
                per_layer[name] = layers[0][name]
            else:
                per_layer[name] = statistics.median(lp[name] for lp in layers)
        result["per_layer"] = per_layer
        result["unpatched"] = tracer.missing
        result["spans_file"] = write_spans(args, first_spans or [])
    return result


def write_spans(args, spans: list[list]) -> str:
    """Spans of the first traced pass, one row per span."""
    from tracing import self_times

    t0 = spans[0][2] if spans else 0.0
    rows = [[layer, label, round(start - t0, 9), round(end - t0, 9), parent,
             round(own, 9)]
            for own, (layer, label, start, end, parent)
            in zip(self_times(spans), spans)]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "columns": ["name", "label", "start_s", "end_s", "parent", "self_s"],
        "spans": rows}) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    if not (SRC / "legfol" / "__init__.py").is_file():
        print(f"legfol sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import legfol
    import workloads

    if Path(legfol.__file__).resolve().parent != SRC / "legfol":
        print(f"imported legfol from {legfol.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    args = parse_args(argv, workloads.WORKLOADS)
    result = run(args, workloads)

    OUT.mkdir(exist_ok=True)
    path = OUT / (f"result-{args.workload}-seed{args.seed}"
                  f"-trace{args.trace}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")

    if args.trace:
        import tracing
        units = tracing.LAYER_METRICS
        values = result["per_layer"]
    else:
        units = END_TO_END
        values = result["end_to_end"]
    print(f"machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"samples: {json.dumps(result['samples'])}, "
          f"items_per_pass: {result['items_per_pass']}")
    median = statistics.median
    print(f"wall time medians: pass "
          f"{median(result['untraced_pass_wall_s']):.6g} s, "
          f"set-up {median(result['setup_wall_s']):.6g} s; "
          f"slowdown medians: pass "
          f"{median(result['untraced_pass_slowdown']):.4g}, "
          f"set-up {median(result['setup_slowdown']):.4g}")
    if result.get("unpatched"):
        print(f"not traced (absent from legfol): {result['unpatched']}")
    for problem in result["problems"]:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    if not args.trace:
        print(f"{args.workload} items_per_s = "
              f"{result['items_per_s']:.6g} 1/s "
              f"({result['items_per_pass']} items per pass)")
    print(f"{args.workload} fail_frac = {result['fail_frac']:.6g} 1 "
          f"({result['failed']} of {result['attempted']} check executions)")
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
