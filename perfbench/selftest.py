"""Self-test of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that each workload generator is pure in its seed (byte-identical
text for one seed, also from a fresh interpreter with another hash seed, and
different text for another seed), that every generated scenario parses and
uses only known check kinds, that BENCHMARK.json names exactly the workloads
and metrics run.py emits, and that short runs of the fastest workload
emit every end-to-end and per-layer metric with its unit, and that two
traced runs at one seed give the same counts.  It also checks that the speed
probe samples while it is active and restores the SIGALRM handler after.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 1, 17)

DUMP_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import workloads
seeds = json.loads(sys.argv[2])
print(json.dumps({w: {s: workloads.generate(w, s) for s in seeds}
                  for w in workloads.WORKLOADS}))
"""


def require(condition: bool, message: str):
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def check_generators(workloads, parse_scenario, check_kinds):
    here = {w: {str(s): workloads.generate(w, s) for s in SEEDS}
            for w in workloads.WORKLOADS}
    for hash_seed in ("1", "2"):
        out = subprocess.run(
            [sys.executable, "-c", DUMP_CODE, str(HERE), json.dumps(SEEDS)],
            check=True,
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed)).stdout
        require(json.loads(out) == here,
                f"generator output depends on the process (hash seed "
                f"{hash_seed})")
    for w in workloads.WORKLOADS:
        for s in SEEDS:
            texts = workloads.generate(w, s)
            require(texts == here[w][str(s)], f"{w} seed {s} not repeatable")
            require(texts != workloads.generate(w, s + 1),
                    f"{w}: seeds {s} and {s + 1} give the same text")
            for text in texts:
                sc = parse_scenario(text)
                kinds = {b.require("kind") for b in sc.checks()}
                require(kinds <= set(check_kinds),
                        f"{w}: unknown check kinds {kinds - set(check_kinds)}")
        names = {b.name for t in workloads.generate(w, 0)
                 for b in parse_scenario(t).checks()}
        missing = set(workloads.EXPECTED_DETAILS.get(w, {})) - names
        require(not missing, f"{w}: expected details for absent checks "
                             f"{sorted(missing)}")


def check_manifest(workloads, end_to_end, layer_metrics):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in manifest["workloads"]]
            == list(workloads.WORKLOADS), "BENCHMARK.json workloads differ")
    require({m["name"]: m["unit"] for m in manifest["end_to_end"]}
            == end_to_end, "BENCHMARK.json end_to_end differs from run.py")
    require({m["name"]: m["unit"] for m in manifest["per_layer"]}
            == layer_metrics,
            "BENCHMARK.json per_layer differs from tracing.py")


def run_short(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "holonomy-transport", "--seed", "0", "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    require(proc.returncode == 0,
            f"trace {trace} run exited {proc.returncode}: "
            f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emission(end_to_end, layer_metrics, deterministic):
    """Every metric is emitted with its unit, and traced counts repeat."""
    results = {0: [run_short(0)], 1: [run_short(1), run_short(1)]}
    for trace, units in ((0, end_to_end), (1, layer_metrics)):
        for result in results[trace]:
            require(set(result) == {"correct", "attempted", "failed",
                                    "metrics"},
                    f"result keys {sorted(result)}")
            require(result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1,
                    f"trace {trace} run incorrect")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            require(emitted == units,
                    f"trace {trace} emitted {emitted}, expected {units}")
            for name, metric in result["metrics"].items():
                require(isinstance(metric["value"], (int, float)),
                        f"{name} is not a number")
    first, second = (r["metrics"] for r in results[1])
    for name in deterministic:
        require(first[name] == second[name],
                f"{name} differs between two traced runs: "
                f"{first[name]} != {second[name]}")


def check_speed_probe(speed):
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t_end = time.perf_counter() + 10 * speed.INTERVAL_S
        while time.perf_counter() < t_end:
            speed.probe_work(50)
    require(len(probe.samples) >= 5,
            f"speed probe took {len(probe.samples)} samples in "
            f"{10 * speed.INTERVAL_S} s")
    require(probe.slowdown() > 0, "speed probe slowdown is not positive")
    require(signal.getsignal(signal.SIGALRM) is before,
            "speed probe left its SIGALRM handler installed")
    require(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0),
            "speed probe left its timer running")
    with speed.SpeedProbe() as probe:
        pass
    require(len(probe.samples) == 1,
            "a speed probe exited at once has no sample")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from legfol.runner import CHECKS
    from legfol.scenario import parse_scenario

    import run
    import speed
    import tracing
    import workloads

    check_speed_probe(speed)
    check_generators(workloads, parse_scenario, CHECKS)
    check_manifest(workloads, run.END_TO_END, tracing.LAYER_METRICS)
    check_emission(run.END_TO_END, tracing.LAYER_METRICS,
                   tracing.DETERMINISTIC)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
