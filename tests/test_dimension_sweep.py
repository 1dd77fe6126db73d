"""Every check kind from n = 1 up: a dimension sweep.

The paper's base case is n = 1 and its point is large n.  For n = 1, 2, 3,
5 and 8 the sweep runs every kind of runner.KINDS on small scenarios: flat
graphs and the paraboloid z = (x_n^2 + y_n^2) / 2 for every admissible k,
so char-foliation meets every k - n from 1 to n; perturb; rotation bundles
over the n-torus with flatness, transport and ccl; and singular and
nonsingular germs with every germ kind that applies to them.  No check may
fault, the only refusal is claim's and residuals' NotStandardModel at
k != n + 1 (a precondition of the residual equations), every other check
meets its stated expectation, and each case runs within its time bound.
Scans use a three-point axis, so a scan at k = 16 reads at most 3^9 points.
"""

import math
import time

import pytest

from legfol.runner import KINDS, run_scenario
from legfol.scenario import parse_scenario

DIMENSIONS = (1, 2, 3, 5, 8)
SECONDS = 5.0  # per case; the whole sweep takes well under a second


def block(head, name, **entries):
    return "\n".join([f"{head} {name}"]
                     + [f"  {key} = {value}" for key, value in entries.items()]
                     + ["end"])


def scenario(name, blocks):
    return f"scenario {name}\n\n" + "\n\n".join(blocks) + "\n"


def graphs(n):
    """Flat graphs and paraboloids at every k from n + 1 to 2n, with the
    graph kinds, and perturb at n."""
    blocks, checks = [], []
    for k in range(n + 1, 2 * n + 1):
        for shape, comps in (("flat", {}),
                             ("paraboloid", {"z": f"(x{n}^2 + y{n}^2) / 2"})):
            g = f"{shape}-k{k}"
            blocks.append(block("graph", g, n=n, k=k, **comps))
            model = {} if k == n + 1 else {"expect": "refuse"}
            checks += [block("check", f"{g}-{kind}", kind=kind, target=g,
                             samples=20, **model)
                       for kind in ("claim", "residuals")]
            checks += [
                block("check", f"{g}-char-foliation", kind="char-foliation",
                      target=g, samples=20),
                block("check", f"{g}-scan", kind="scan", target=g, box=1,
                      step=1),
            ]
    checks.append(block("check", "perturb", kind="perturb", n=n, box=1,
                        step=1, samples=20))
    return scenario(f"graphs-n{n}", blocks + checks)


def bundles(n):
    """Rotation bundles over the n-torus and germs: singular ones built from
    the bundles, nonsingular ones of dimension n."""
    start, turn = 0.5, 0.7  # generator 0 turns the fiber by rate * period 1
    end = f"{start * math.cos(turn)!r} {start * math.sin(turn)!r}"
    f = "2 + sin(x1)"
    blocks = [
        block("bundle", "slow", type="rotation", rates=" ".join(["0.7"] * n)),
        block("bundle", "fast", type="rotation", rates=" ".join(["1.3"] * n)),
        block("form", "area-slow", on="fiber slow", u="-v", v="u"),
        block("form", "area-fast", on="fiber fast", u="-v", v="u"),
        block("form", "shear-slow", on="fiber slow", u="1 + u"),
        block("germ", "first", type="singular", bundle="slow",
              form="area-slow"),
        block("germ", "second", type="singular", bundle="fast",
              form="area-fast"),
        block("germ", "tilted", type="nonsingular", n=n, f=f),
        block("germ", "leaning", type="nonsingular", n=n, f=f, r1="0.3"),
    ]
    checks = [
        block("check", "flat", kind="flatness", target="slow", samples=10),
        block("check", "transport", kind="transport", target="slow",
              start=f"{start!r} 0.0", end=end),
        block("check", "area", kind="ccl", target="slow", form="area-slow"),
        block("check", "shear", kind="ccl", target="slow", form="shear-slow",
              expect="fail"),
        block("check", "singular-contact", kind="contact-scan",
              target="first", samples=20),
        block("check", "singular-section", kind="zero-section",
              target="first", form="area-slow", samples=20),
        block("check", "singular-pencil", kind="interpolation",
              first="first", second="second", form="area-slow", samples=20),
        block("check", "volume", kind="germ-volume", target="tilted", f=f,
              samples=20),
        block("check", "contact", kind="contact-scan", target="tilted",
              samples=20),
        block("check", "section", kind="zero-section", target="tilted", f=f,
              samples=20),
        block("check", "pencil", kind="interpolation", first="tilted",
              second="leaning", f=f, samples=20),
    ]
    return scenario(f"bundles-n{n}", blocks + checks)


CASES = [pytest.param(make, n, id=f"{make.__name__}-n{n}")
         for n in DIMENSIONS for make in (graphs, bundles)]


@pytest.mark.parametrize("make, n", CASES)
def test_every_kind_at_every_dimension(make, n):
    sc = parse_scenario(make(n))
    start = time.perf_counter()
    report = run_scenario(sc)
    assert time.perf_counter() - start < SECONDS
    for check in report["checks"]:
        name, detail = check["name"], check["detail"]
        if detail.get("refused"):
            assert check["kind"] in ("claim", "residuals"), name
            assert check["error"].startswith("NotStandardModel: "), name
            assert not name.endswith(f"-k{n + 1}-{check['kind']}"), name
        else:
            assert "error" not in check, (name, check.get("error"))
        assert check["ok"], (name, detail)


def test_sweep_covers_every_kind():
    kinds = {b.require("kind") for make, n in
             ((make, n) for make in (graphs, bundles) for n in DIMENSIONS)
             for b in parse_scenario(make(n)).checks()}
    assert kinds == set(KINDS)
    # char-foliation at every k - n from 1 to n
    for n in DIMENSIONS:
        codims = {int(b.name.split("-k")[1].split("-")[0]) - n
                  for b in parse_scenario(graphs(n)).checks()
                  if b.require("kind") == "char-foliation"}
        assert codims == set(range(1, n + 1))
