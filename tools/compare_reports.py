"""Compare the reference reports of two legfol source trees.

Run from the repository root:

    python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``legfol`` package, such as a
checkout's ``src``.  Each tree runs in its own Python process and reports
the 9 bundled demos at seeds 0 and 9, then the 5 scenarios of the benchmark
workloads at seeds 1, 2 and 3.  The workload texts come from this
repository's ``perfbench/workloads.py``, so both trees run the same text.

Every report drops ``wall_time`` and is then compared as the JSON text that
``legfol --json`` writes.  The exit code is 0 when every report is
byte-identical, 1 at the first one that differs (named with its check and
key), and 2 when a tree cannot run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMO_SEEDS = (0, 9)
WORKLOAD_SEEDS = (1, 2, 3)

# Run in each tree's process: reads the demo seeds and the workload jobs on
# stdin and prints one JSON list of [label, report] pairs.
CHILD = """\
import json, sys
from importlib import resources
import legfol
from legfol.cli import demo_names
from legfol.runner import run_scenario
from legfol.scenario import parse_scenario

if not legfol.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported legfol from {legfol.__file__}")
seeds, workload_jobs = json.load(sys.stdin)
jobs = [[f"demo {name}, seed {seed}",
         (resources.files("legfol") / "scenarios" / f"{name}.scn")
         .read_text(), seed]
        for name in demo_names() for seed in seeds]
out = []
for label, text, seed in jobs + workload_jobs:
    report = run_scenario(parse_scenario(text), seed=seed)
    report.pop("wall_time")
    out.append([label, report])
print(json.dumps(out))
"""


def workload_jobs() -> list[list]:
    """[label, text, seed] of every workload scenario at each seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    sys.dont_write_bytecode = True  # leave nothing under perfbench/
    import workloads

    return [[f"workload {name}, seed {seed}, scenario {i}", text, seed]
            for name in workloads.WORKLOADS for seed in WORKLOAD_SEEDS
            for i, text in enumerate(workloads.generate(name, seed))]


def reports(src: str, jobs: list[list]) -> list[list]:
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, "-c", CHILD, os.path.join(src, "")],
                         input=json.dumps([DEMO_SEEDS, jobs]),
                         capture_output=True, text=True, env=env)
    if res.returncode:
        print(f"{src}: the reports did not run:\n{res.stderr}",
              file=sys.stderr)
        sys.exit(2)
    return json.loads(res.stdout)


def first_difference(a, b, path: tuple = ()) -> tuple | None:
    """The path to the first place where two JSON values differ as text,
    or None where they are byte-identical."""
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            return path + ("(keys)",)
        return next((found for key in a if (found := first_difference(
            a[key], b[key], path + (key,))) is not None), None)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return next((found for i, (x, y) in enumerate(zip(a, b))
                     if (found := first_difference(x, y, path + (i,)))
                     is not None), None)
    return None if json.dumps(a) == json.dumps(b) else path


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_reports.py PARENT_SRC CHANGE_SRC",
              file=sys.stderr)
        return 2
    jobs = workload_jobs()
    parent, change = (reports(src, jobs) for src in argv)
    for (label, a), (other, b) in zip(parent, change):
        path = ("(scenario)",) if label != other \
            else first_difference(a, b)
        if path is None:
            continue
        where = f"{label}: key {'.'.join(map(str, path))}"
        if path[:1] == ("checks",) and len(path) > 2:
            where = (f"{label}: check {a['checks'][path[1]]['name']!r}, key "
                     f"{'.'.join(map(str, path[2:]))}")
        print(f"reports differ at {where}")
        return 1
    if len(parent) != len(change):
        print(f"{len(parent)} reports against {len(change)}")
        return 1
    print(f"{len(parent)} reports byte-identical apart from wall_time")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
