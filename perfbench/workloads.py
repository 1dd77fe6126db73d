"""Scenario generators for the three benchmark workloads.

Each generator is a pure function of the workload seed: it draws every
parameter from a ``random.Random`` seeded with a string, so the same seed
gives byte-identical scenario text in any process.  Parameters are drawn only
from ranges where the paper fixes the verdict (nonzero curvature
coefficients, positive foliation forms, rotation holonomy), so no seed can
turn a check's expected outcome around.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("scan-grid", "pointwise-identities", "holonomy-transport")

# scan-grid: the demo grid, box 1 and step 0.05 in three source coordinates.
SCAN_BOX = 1.0
SCAN_STEP = 0.05
SCAN_AXIS = 41  # len(numpy.arange(-box, box + step / 2, step))

# pointwise-identities: sample points per check.
POINTWISE_SAMPLES = 1000
# holonomy-transport: sample points for the checks of the singular germs,
# and the fiber turn (radians) around each generator of each bundle.
GERM_SAMPLES = 20
TURNS_CIRCLE = ((1.0,), (1.5,), (2.0,))
TURNS_TORUS = ((1.0, 1.5), (1.5, 2.0), (2.0, 1.0))


def _signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _num(x: float) -> str:
    return f"{x:.4f}"


def _block(head: str, name: str, /, **entries) -> str:
    lines = [f"{head} {name}"]
    lines += [f"  {key} = {value}" for key, value in entries.items()]
    lines.append("end")
    return "\n".join(lines)


def _scenario(name: str, blocks: list[str]) -> str:
    return f"scenario {name}\n\n" + "\n\n".join(blocks) + "\n"


def _check(name: str, kind: str, /, **entries) -> str:
    return _block("check", name, kind=kind, **entries)


def scan_grid(seed: int) -> list[str]:
    """A generic singular curve, a flat Legendrian plane and its perturbation.

    The curve graph z = (a x2^2 + b y2^2) / 2 restricts alpha to
    (a x2 - y2) dx2 + b y2 dy2, whose zeros are the x1-axis for a, b != 0.
    The flat graph vanishes on the plane y1 = 0 (41 x 41 grid hits), and the
    bump delta * y1 * exp(-y1^2) with delta > 0 clears it (no hits).
    """
    rng = random.Random(f"scan-grid:{seed}")
    a, b = _signed(rng, 0.5, 2.0), _signed(rng, 0.5, 2.0)
    delta = rng.uniform(0.05, 0.2)
    grid = {"box": SCAN_BOX, "step": SCAN_STEP}
    return [_scenario("scan-grid", [
        _block("graph", "curve", n=2, k=3,
               z=f"({_num(a)} * x2^2 + {_num(b)} * y2^2) / 2"),
        _block("graph", "flat", n=2, k=3, free_y=1),
        _check("curve", "scan", target="curve", clusters=1, dim=1,
               flag="generic", **grid),
        _check("plane", "scan", target="flat", clusters=1, dim=2,
               flag="perturbable-legendrian", **grid),
        _check("empty", "perturb", n=2, delta=_num(delta), tol="1e-10",
               samples=80, **grid),
    ])]


def _hypersurface(rng: random.Random, n: int) -> str:
    """z(x_n, y_n) with the other y's zero: coisotropic for every choice."""
    a, b = _signed(rng, 0.5, 2.0), _signed(rng, 0.5, 2.0)
    c = rng.uniform(-1.0, 1.0)
    return (f"({_num(a)} * x{n}^2 + {_num(b)} * y{n}^2) / 2"
            f" + {_num(c)} * sin(x{n}) * y{n}")


def _rotation_bundle(rng: random.Random, name: str, turns: tuple[float, ...],
                     ) -> tuple[str, list[float], list[float]]:
    """Rotation bundle turning the fiber by turns[j] around generator j.

    The seed picks each rate and its sign; the period is the turn over the
    rate, so the ODE work of a loop, which grows with the turn, does not
    depend on the seed.
    """
    rates = [float(_num(_signed(rng, 0.5, 2.0))) for _ in turns]
    periods = [float(_num(t / abs(r))) for t, r in zip(turns, rates)]
    block = _block("bundle", name, type="rotation",
                   rates=" ".join(_num(r) for r in rates),
                   periods=" ".join(_num(p) for p in periods))
    return block, rates, periods


def _fiber_forms(bundle: str) -> list[str]:
    return [_block("form", f"area-{bundle}", on=f"fiber {bundle}",
                   u="-v", v="u"),
            _block("form", f"shear-{bundle}", on=f"fiber {bundle}",
                   u="1 + u")]


def _singular_germs(first: str, second: str) -> list[str]:
    """Two germs with the same zero-section form and a flipped copy."""
    return [
        _block("germ", f"germ-{first}", type="singular", bundle=first,
               form=f"area-{first}"),
        _block("germ", f"germ-{second}", type="singular", bundle=second,
               form=f"area-{second}"),
        _block("germ", f"flipped-{second}", type="singular", bundle=second,
               form=f"area-{second}", orientation=-1),
    ]


def _singular_germ_checks(first: str, second: str, samples: int) -> list[str]:
    g0 = f"germ-{first}"
    form = f"area-{first}"
    return [
        _check(f"{g0}-contact", "contact-scan", target=g0, tol="1e-10",
               samples=samples),
        _check(f"{g0}-section", "zero-section", target=g0, form=form,
               tol="1e-10", samples=samples),
        _check(f"{g0}-pencil", "interpolation", first=g0,
               second=f"germ-{second}", form=form, tol="1e-10",
               samples=samples),
        _check(f"{g0}-flipped", "interpolation", first=g0,
               second=f"flipped-{second}", form=form, samples=samples,
               expect="refuse"),
    ]


def pointwise_identities(seed: int) -> list[str]:
    """Per-sample identities on graphs and germs, with negative controls."""
    rng = random.Random(f"pointwise-identities:{seed}")
    s = POINTWISE_SAMPLES
    graphs = [
        _block("graph", "hyper2", n=2, k=3, z=_hypersurface(rng, 2)),
        _block("graph", "hyper3", n=3, k=4, z=_hypersurface(rng, 3)),
        _block("graph", "flat-codim2", n=3, k=5),
        _block("graph", "flat-codim1", n=3, k=6),
        _block("graph", "twisted", n=2, k=3,
               y1=f"{_num(_signed(rng, 0.5, 2.0))} * x1 * x2"),
    ]
    checks = []
    for g in ("hyper2", "hyper3"):
        checks += [
            _check(f"{g}-residuals", "residuals", target=g, tol="1e-10",
                   samples=s),
            _check(f"{g}-claim", "claim", target=g, tol="1e-9", samples=s),
            _check(f"{g}-kernel", "char-foliation", target=g, tol="1e-8",
                   samples=s),
        ]
    for g in ("flat-codim2", "flat-codim1"):
        checks.append(_check(f"{g}-kernel", "char-foliation", target=g,
                             tol="1e-8", samples=s))
    checks += [
        _check("twisted-residuals", "residuals", target="twisted",
               tol="1e-8", samples=s, expect="fail"),
        _check("twisted-claim", "claim", target="twisted", tol="1e-8",
               samples=s, expect="refuse"),
    ]

    germs, germ_checks = [], []
    for n in (2, 3, 4):
        # f >= 1 on the sample box, so f dt is a positive foliation form.
        f = (f"{_num(rng.uniform(2.0, 3.0))}"
             f" + {_num(rng.uniform(-0.5, 0.5))} * sin(x1)"
             f" + {_num(rng.uniform(-0.5, 0.5))} * cos(t)")
        rs = {f"r{i}": f"{_num(rng.uniform(-1.0, 1.0))} * x{i % n + 1}"
              for i in range(1, n + 1)}
        name = f"germ{n}"
        germs.append(_block("germ", name, type="nonsingular", n=n, f=f,
                            **rs))
        germ_checks += [
            _check(f"{name}-volume", "germ-volume", target=name, f=f,
                   tol="1e-9", samples=s),
            _check(f"{name}-contact", "contact-scan", target=name,
                   tol="1e-10", samples=s),
            _check(f"{name}-section", "zero-section", target=name, f=f,
                   tol="1e-10", samples=s),
        ]
    bundles = []
    for name, turn in (("slow", 0.7), ("fast", 2.1)):
        block, _, _ = _rotation_bundle(rng, name, (turn,))
        bundles += [block] + _fiber_forms(name)
    germs += _singular_germs("slow", "fast")
    germ_checks += _singular_germ_checks("slow", "fast", s)
    return [_scenario("pointwise-graphs", graphs + checks),
            _scenario("pointwise-germs", bundles + germs + germ_checks)]


def holonomy_transport(seed: int) -> list[str]:
    """Rotation bundles over circles and tori, and germs built from them.

    A rotation bundle with rates c_j and periods p_j carries the fiber point
    at angle theta around generator j to angle theta + c_j p_j, which gives
    each transport check an exact expected endpoint.
    """
    rng = random.Random(f"holonomy-transport:{seed}")
    texts = []
    for label, bundle_turns in (("circle", TURNS_CIRCLE),
                                ("torus", TURNS_TORUS)):
        blocks, checks = [], []
        names = [f"{label}{i}" for i in range(1, len(bundle_turns) + 1)]
        for name, turns in zip(names, bundle_turns):
            block, rates, periods = _rotation_bundle(rng, name, turns)
            blocks += [block] + _fiber_forms(name)
            gen = rng.randrange(len(turns))
            r, theta = rng.uniform(0.2, 0.7), rng.uniform(0.0, 2 * math.pi)
            start = (r * math.cos(theta), r * math.sin(theta))
            turn = theta + rates[gen] * periods[gen]
            end = (r * math.cos(turn), r * math.sin(turn))
            checks += [
                _check(f"{name}-flat", "flatness", target=name, tol="1e-9",
                       samples=30),
                _check(f"{name}-transport", "transport", target=name,
                       generator=gen,
                       start=" ".join(repr(x) for x in start),
                       end=" ".join(repr(x) for x in end), tol="1e-6"),
                _check(f"{name}-area", "ccl", target=name,
                       form=f"area-{name}"),
                _check(f"{name}-shear", "ccl", target=name,
                       form=f"shear-{name}", expect="fail"),
            ]
        blocks += _singular_germs(names[0], names[1])
        checks += _singular_germ_checks(names[0], names[1], GERM_SAMPLES)
        texts.append(_scenario(f"holonomy-{label}", blocks + checks))
    return texts


# Detail values the benchmark knows without the program, per check name:
# grid hits of the x1-axis (41) and of the plane y1 = 0 (41 x 41), the kernel
# dimension 2n - k + 1 of each characteristic foliation, and the top
# coefficient 2 n! of dz + u dv - v du - sum y_j ds_j on every sample.
EXPECTED_DETAILS = {
    "scan-grid": {
        "curve": {"num_hits": SCAN_AXIS},
        "plane": {"num_hits": SCAN_AXIS ** 2},
        "empty": {"num_hits": 0},
    },
    "pointwise-identities": {
        "hyper2-kernel": {"expected_kernel_dim": 2, "kernel_ok": True},
        "hyper3-kernel": {"expected_kernel_dim": 3, "kernel_ok": True},
        "flat-codim2-kernel": {"expected_kernel_dim": 2, "kernel_ok": True},
        "flat-codim1-kernel": {"expected_kernel_dim": 1, "kernel_ok": True},
        "germ-slow-contact": {"min_abs": 4.0},
    },
    "holonomy-transport": {
        "germ-circle1-contact": {"min_abs": 4.0},
        "germ-torus1-contact": {"min_abs": 12.0},
    },
}

GENERATORS = {
    "scan-grid": scan_grid,
    "pointwise-identities": pointwise_identities,
    "holonomy-transport": holonomy_transport,
}


def generate(workload: str, seed: int) -> list[str]:
    """Scenario texts of one workload at one seed."""
    return GENERATORS[workload](seed)
