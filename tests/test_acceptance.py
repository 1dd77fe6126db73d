"""Acceptance gate: one test per criterion, each printing a single
pass/fail line with its headline numbers."""

import json
import time

import numpy as np
from click.testing import CliRunner

from legfol import bundle as bd
from legfol import coiso as co
from legfol import forms as fm
from legfol import germ as gm
from legfol.cli import demo_names, main
from legfol.fields import (
    Chart,
    constant,
    coordinate,
    parse_field,
    vector_field,
)

from oracles import fd_partial
from test_forms import eval_oracle, random_form

RNG = np.random.default_rng(987654321)


def report(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok


def test_criterion_1_exterior_calculus():
    t0 = time.perf_counter()
    ch = Chart(("a", "b", "c", "d"))
    cases = 0
    worst = 0.0
    for _ in range(60):
        deg = int(RNG.integers(1, 3))
        w = random_form(ch, deg, RNG)
        t = random_form(ch, 1, RNG)
        p = RNG.uniform(-1, 1, 4)
        vecs = RNG.uniform(-1, 1, (deg + 2, 4))
        # evaluation matches the permutation-sum oracle
        r = abs(w.evaluate(p, vecs[:deg]) - eval_oracle(w, p, vecs[:deg]))
        worst = max(worst, r)
        cases += 1
        # d^2 = 0
        dd = fm.exterior_d(fm.exterior_d(w))
        worst = max(worst, np.max(np.abs(dd.coeff_array([p])), initial=0.0))
        cases += 1
        # Leibniz rule for d over the wedge
        lhs = fm.exterior_d(fm.wedge(w, t))
        sign = (-1) ** deg
        rhs = fm.wedge(fm.exterior_d(w), t) + fm.wedge(
            w, fm.exterior_d(t)).scale(sign)
        worst = max(worst,
                    abs(lhs.evaluate(p, vecs[:deg + 2])
                        - rhs.evaluate(p, vecs[:deg + 2])))
        cases += 1
        # Cartan: L_V = i_V d + d i_V
        V = vector_field(ch, list(RNG.uniform(-1, 1, 4)))
        lv = fm.lie_derivative(V, w)
        cart = fm.interior(V, fm.exterior_d(w)) + fm.exterior_d(
            fm.interior(V, w))
        worst = max(worst,
                    abs(lv.evaluate(p, vecs[:deg])
                        - cart.evaluate(p, vecs[:deg])))
        cases += 1
    props_ok = cases >= 200 and worst <= 1e-9
    # symbolic derivatives against central differences
    texts = ["a^3*b - c + d^2", "sin(a*b) + cos(c)", "exp(a - d^2)*b",
             "a*b*c*d + sin(d)"]
    fd_worst = 0.0
    for text in texts:
        f = parse_field(ch, text)
        for p in RNG.uniform(-1.2, 1.2, (50, 4)):
            for v in ch.var_names:
                sym = f.diff(v).eval(p)
                num = fd_partial(f, p, v)
                fd_worst = max(fd_worst,
                               abs(sym - num) / max(1.0, abs(num)))
    dt = time.perf_counter() - t0
    ok = props_ok and fd_worst <= 1e-5 and dt < 30
    report(1, ok, f"exterior calculus: {cases} property cases, "
                  f"max residual {worst:.2e}, sym-vs-FD {fd_worst:.2e}, "
                  f"{dt:.1f}s")


def test_criterion_2_commuting_frame():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        Y0 = co.graph_submanifold(n, n + 1)
        Y = co.graph_submanifold(
            n, n + 1,
            {"z": parse_field(Y0.source_chart, f"(x{n}^2 + y{n}^2) / 2")})
        pts = RNG.uniform(-0.9, 0.9, (200, Y.source_chart.dim))
        res = co.verify_claim(Y, pts, tol=1e-10)
        assert not res.get("refused"), res
        worst = max(worst, res["max_residual"])
    # the standard counterexample: one residual equation equals -1 exactly
    Y0 = co.graph_submanifold(2, 3)
    Yc = co.graph_submanifold(
        2, 3, {"y1": parse_field(Y0.source_chart, "x1 * x2")})
    val = [v[0] for v in
           co.residual_values(Yc, [[1.0, 1.0, 0.0]])["eq_a"].values()]
    counter_ok = len(val) == 1 and abs(val[0] - (-1.0)) <= 1e-10
    refusal = co.verify_claim(Yc, RNG.uniform(0.5, 0.9, (20, 3)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and counter_ok and refusal.get("refused", False) \
        and dt < 60
    report(2, ok, f"frame identities n=2,3: max residual {worst:.2e} "
                  f"over 200 pts each; counterexample value {val[0]:+.6f}; "
                  f"{dt:.1f}s")


def test_criterion_3_oracle_equivalence():
    families = []
    for n in (1, 2, 3):
        Y0 = co.graph_submanifold(n, n + 1)
        src = Y0.source_chart
        gs = [f"(x{n}^2 + y{n}^2) / 2", f"sin(x{n}) * y{n}",
              f"x{n}^3 - y{n}"]
        for g in gs:
            families.append(co.graph_submanifold(
                n, n + 1, {"z": parse_field(src, g)}))
        if n >= 2:
            families.append(co.graph_submanifold(
                n, n + 1, {"y1": parse_field(src, f"x1 * x{n}")}))
            families.append(co.graph_submanifold(
                n, n + 1, {"z": parse_field(src, "x1^2")}))
    pairs = 0
    agreements = 0
    while pairs < 520:
        for Y in families:
            p = RNG.uniform(-0.9, 0.9, Y.source_chart.dim)
            algebra = co.pointwise_coisotropy(Y, p)
            if algebra["singular"]:
                continue
            residual = co.residual_values(Y, [p])["max_residual"][0]
            pairs += 1
            if (residual <= 1e-8) == bool(algebra["coisotropic"]):
                agreements += 1
    ok = pairs >= 500 and agreements == pairs
    report(3, ok, f"residual system vs linear-algebra oracle: "
                  f"{agreements}/{pairs} agreements")


def test_criterion_4_singular_scans():
    n = 2
    Y0 = co.graph_submanifold(n, n + 1)
    Y = co.graph_submanifold(
        n, n + 1,
        {"z": parse_field(Y0.source_chart, f"(x{n}^2 + y{n}^2) / 2")})
    model = co.singular_scan(Y, box=0.8, step=0.05)
    model_ok = len(model.clusters) == 1 and model.dims == (n - 1,) \
        and model.flags == ("generic",)
    leg = co.legendrian_model(n)
    leg_scan = co.singular_scan(leg, box=0.8, step=0.05)
    leg_ok = all(d == n for d in leg_scan.dims) \
        and leg_scan.flags == ("perturbable-legendrian",)
    bump = parse_field(leg.source_chart, "0.1 * y1 * exp(-(y1^2))")
    pert = co.perturb_legendrian(leg, bump)
    pert_scan = co.singular_scan(pert, box=0.8, step=0.05)
    resid = gm.frobenius_residual(pert.lambda_form,
                                  RNG.uniform(-0.9, 0.9, (100, 3)))
    pert_ok = pert_scan.num_hits == 0 and resid <= 1e-10
    ok = model_ok and leg_ok and pert_ok
    report(4, ok, f"scans: model cluster dim {model.dims}, flat plane "
                  f"{leg_scan.flags}, post-perturbation hits "
                  f"{pert_scan.num_hits}, residual {resid:.2e}")


def test_criterion_5_characteristic_foliations():
    all_ok = True
    summary = []
    for n in (2, 3):
        for k in range(n + 1, 2 * n + 1):
            Y = co.graph_submanifold(n, k)
            pts = RNG.uniform(-0.9, 0.9, (30, Y.source_chart.dim))
            res = co.char_foliation_form(Y, pts, tol=1e-8)
            good = res["kernel_ok"] and res["samples_used"] > 0 \
                and res["integrability_residual"] <= 1e-8
            all_ok = all_ok and good
            summary.append(f"(n={n},k={k}):dim{res['expected_kernel_dim']}")
    report(5, all_ok, "characteristic foliations " + " ".join(summary))


def test_criterion_6_flat_bundles():
    t0 = time.perf_counter()
    b = bd.rotation_bundle([1.3, -0.4])
    x0 = [0.2, -0.3]
    p0, p1, p2 = [0.0, 0.0], [0.3, 0.1], [0.55, 0.45]
    whole = bd.parallel_transport(b, [p0, p1, p2], x0)
    half = bd.parallel_transport(b, [p0, p1], x0)
    split = bd.parallel_transport(b, [p1, p2], half.end)
    func_err = float(np.linalg.norm(np.array(whole.end) - split.end))
    back = bd.parallel_transport(b, [p1, p0], half.end)
    inv_err = float(np.linalg.norm(np.array(back.end) - x0))
    c = 0.8
    rot = bd.rotation_bundle([c])
    res = bd.parallel_transport(rot, bd.generator_loop(rot, 0), [0.5, 0.0])
    rot_err = float(np.linalg.norm(
        np.array(res.end) - 0.5 * np.array([np.cos(c), np.sin(c)])))
    loop = [[0.0, 0.0], [0.3, 0.0], [0.3, 0.3], [0.0, 0.3], [0.0, 0.0]]
    contr = bd.parallel_transport(b, loop, [0.35, -0.15])
    loop_err = float(np.linalg.norm(np.array(contr.end) - [0.35, -0.15]))
    fiber = rot.fiber_chart
    good_form = fm.one_form(fiber, {"u": -coordinate(fiber, "v"),
                                    "v": coordinate(fiber, "u")})
    suite_ok = bd.ccl_check(rot, good_form)["ok"]
    bad1 = bd.ccl_check(bd.trivial_bundle(),
                        fm.one_form(fiber, {"u": 1.0}))
    bad2 = bd.ccl_check(rot, fm.one_form(
        fiber, {"v": parse_field(fiber, "u + u^3")}))
    neg_ok = (not bad1["vanishing"]["ok"] and not bad1["positivity"]["ok"]
              and not bad2["invariance"]["ok"])
    dt = time.perf_counter() - t0
    ok = func_err <= 2e-8 and inv_err <= 2e-8 and rot_err <= 1e-6 \
        and loop_err <= 1e-7 and suite_ok and neg_ok and dt < 60
    report(6, ok, f"bundles: functoriality {func_err:.1e}, inverse "
                  f"{inv_err:.1e}, rotation endpoint {rot_err:.1e}, "
                  f"contractible loop {loop_err:.1e}, admissibility suite "
                  f"{'ok' if suite_ok and neg_ok else 'BAD'}, {dt:.1f}s")


def _random_foliated_input(n):
    ch = gm.foliated_chart(n)
    a, bcoef = RNG.uniform(-0.45, 0.45, 2)
    f = constant(ch, 2.0) + a * parse_field(ch, "sin(x1)") \
        + bcoef * coordinate(ch, "x1")
    comps = [constant(ch, 1.0)]
    for i in range(1, n + 1):
        c0, c1 = RNG.uniform(-1, 1, 2)
        var = ch.var_names[1 + int(RNG.integers(0, n))]
        comps.append(c0 * coordinate(ch, var)
                     + c1 * coordinate(ch, "x1") * coordinate(ch, var))
    beta = fm.DiffForm(ch, 1, {(0,): f})
    return gm.FoliatedInput(n=n, beta=beta,
                            line_field=vector_field(ch, comps)), f


def test_criterion_7_germs():
    t0 = time.perf_counter()
    worst = 0.0
    scans_ok = True
    for n in (1, 2, 3):
        for _ in range(10):
            inp, f = _random_foliated_input(n)
            g = gm.build_nonsingular_germ(inp)
            pts = gm.scan_points(g, RNG, 200)
            worst = max(worst, gm.volume_identity_residual(g, f, pts))
            scans_ok = scans_ok and gm.contactness_scan(g, pts)["passed"]
    import dataclasses
    fiber = Chart(("u", "v"))
    area = fm.one_form(fiber, {"u": -coordinate(fiber, "v"),
                               "v": coordinate(fiber, "u")})
    g0 = gm.build_singular_germ(bd.rotation_bundle([0.7]), area)
    g1 = gm.build_singular_germ(bd.rotation_bundle([2.1]), area)
    base = g0.restricted().chart
    expected = fm.one_form(base, {"u": -coordinate(base, "v"),
                                  "v": coordinate(base, "u")})
    pts = gm.scan_points(g0, RNG, 60)
    scans_ok = scans_ok and gm.contactness_scan(g0, pts)["passed"]
    matched = gm.interpolation_contactness(g0, g1, expected, pts)
    flipped = gm.interpolation_contactness(
        g0, dataclasses.replace(g1, orientation=-1), expected, pts)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and scans_ok and matched["passed"] \
        and not matched["refused"] and flipped["refused"] and dt < 120
    report(7, ok, f"germs: volume identity residual {worst:.2e} over "
                  f"30 random builds x 200 pts, scans "
                  f"{'ok' if scans_ok else 'BAD'}, pencil matched/flipped "
                  f"{'ok' if matched['passed'] and flipped['refused'] else 'BAD'}, "
                  f"{dt:.1f}s")


def test_criterion_8_cli():
    t0 = time.perf_counter()
    runner = CliRunner()
    names = demo_names()
    all_pass = True
    deterministic = True
    for name in names:
        with runner.isolated_filesystem():
            r1 = runner.invoke(main, ["demo", name, "--seed", "9",
                                      "--json", "a.json"])
            r2 = runner.invoke(main, ["demo", name, "--seed", "9",
                                      "--json", "b.json"])
            all_pass = all_pass and r1.exit_code == 0 and r2.exit_code == 0
            a = json.load(open("a.json"))
            b = json.load(open("b.json"))
            a.pop("wall_time")
            b.pop("wall_time")
            deterministic = deterministic and (
                json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True))
    dt = time.perf_counter() - t0
    ok = len(names) >= 6 and all_pass and deterministic and dt < 300
    report(8, ok, f"cli: {len(names)} bundled scenarios pass twice with "
                  f"byte-identical reports modulo timing, {dt:.1f}s")
