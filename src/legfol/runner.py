"""Executes parsed scenarios: builds the declared objects, dispatches each
check block to the matching verifier and assembles a deterministic JSON-ready
report (stable key order; only wall_time varies between identical runs)."""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from . import bundle as bd
from . import coiso as co
from . import forms as fm
from . import germ as gm
from .fields import Chart, ExprField, constant, coordinate, parse_field, vector_field
from .scenario import (
    Block,
    Scenario,
    ScenarioError,
    parse_float,
    parse_int,
    parse_number_list,
)

SCHEMA_VERSION = 1

# One-line statement of the identity or condition each check kind verifies.
IDENTITIES = {
    "claim": "i_V alpha = 0; i_V d lambda = 0; [V_i, V_j] = 0; L_V lambda = 0",
    "residuals": "first-order tangency system of the restricted form = 0",
    "scan": "zero locus of the restricted 1-form: count, dimension, type",
    "perturb": "restricted alpha ^ d alpha = 0 and no zeros after perturbation",
    "char-foliation": "dim ker(restriction of alpha ^ (d alpha)^(k-n-1)) "
                      "= 2n-k+1; leafwise d-closure",
    "flatness": "vertical part of [lift_i, lift_j] = 0",
    "transport": "horizontal-lift ODE endpoint matches the expected fiber point",
    "ccl": "fiber form holonomy-invariant, vanishing only at 0, d beta > 0",
    "germ-volume": "alpha ^ (d alpha)^n = n! f vol",
    "contact-scan": "alpha ^ (d alpha)^n nonvanishing with constant sign",
    "zero-section": "alpha restricted to the zero section equals the "
                    "declared foliation form",
    "interpolation": "(1-t) alpha_0 + t alpha_1 is contact for every t",
}


class RunError(ValueError):
    """A check block references something missing or inconsistent."""


class _Env:
    """Objects built from declaration blocks, resolved by name."""

    def __init__(self, sc: Scenario, rng: np.random.Generator):
        self.sc = sc
        self.rng = rng
        self.charts: dict[str, Chart] = {}
        self.graphs: dict[str, co.GraphSubmanifold] = {}
        self.bundles: dict[str, bd.FlatDiskBundle] = {}
        self.forms: dict[str, fm.DiffForm] = {}
        self.germs: dict[str, gm.GermForm] = {}
        for b in sc.blocks:
            if b.kind == "check":
                continue
            getattr(self, f"_build_{b.kind}")(b)

    def _build_chart(self, b: Block):
        names = tuple(b.require("vars").split())
        self.charts[b.name] = Chart(names)

    def _build_graph(self, b: Block):
        n = parse_int(b.require("n"), b.line)
        k = parse_int(b.require("k"), b.line)
        free_raw = b.get("free_y")
        free = tuple(int(x) for x in free_raw.replace(",", " ").split()) \
            if free_raw else None
        comps: dict[str, ExprField] = {}
        src_names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
            f"y{j}" for j in (free if free is not None
                              else range(2 * n - k + 1, n + 1)))
        src = Chart(src_names)
        for key, val in b.items():
            if key in ("n", "k", "free_y"):
                continue
            comps[key] = parse_field(src, val)
        self.graphs[b.name] = co.graph_submanifold(n, k, comps, free)

    def _build_bundle(self, b: Block):
        btype = b.require("type")
        periods_raw = b.get("periods")
        periods = parse_number_list(periods_raw, b.line) if periods_raw else None
        radius = parse_float(b.get("radius", "1.0"), b.line)
        if btype == "trivial":
            base_dim = parse_int(b.get("base_dim", "1"), b.line)
            self.bundles[b.name] = bd.trivial_bundle(base_dim, periods, radius)
        elif btype == "rotation":
            rates = parse_number_list(b.require("rates"), b.line)
            self.bundles[b.name] = bd.rotation_bundle(rates, periods, radius)
        else:
            raise ScenarioError(f"unknown bundle type '{btype}'", b.line)

    def _build_form(self, b: Block):
        on = b.require("on").split()
        if on[0] == "fiber":
            chart = self.bundles[on[1]].fiber_chart
        elif on[0] == "chart":
            chart = self.charts[on[1]]
        else:
            raise ScenarioError("form 'on' must be 'fiber NAME' or "
                                "'chart NAME'", b.line)
        coeffs = {}
        for key, val in b.items():
            if key == "on":
                continue
            coeffs[key] = parse_field(chart, val)
        self.forms[b.name] = fm.one_form(chart, coeffs)

    def _build_germ(self, b: Block):
        gtype = b.require("type")
        if gtype == "nonsingular":
            n = parse_int(b.require("n"), b.line)
            ch = gm.foliated_chart(n)
            f = parse_field(ch, b.require("f"))
            comps = [constant(ch, 1.0)]
            for i in range(1, n + 1):
                raw = b.get(f"r{i}")
                comps.append(parse_field(ch, raw) if raw
                             else constant(ch, 0.0))
            line = vector_field(ch, comps)
            inp = gm.FoliatedInput(n=n, beta=fm.one_form(ch, {"t": f}),
                                   line_field=line)
            self.germs[b.name] = gm.build_nonsingular_germ(inp)
        elif gtype == "singular":
            bundle = self.bundles[b.require("bundle")]
            beta = self.forms[b.require("form")]
            g = gm.build_singular_germ(bundle, beta)
            orient = parse_int(b.get("orientation", "1"), b.line)
            if orient == -1:
                g = dataclasses.replace(g, orientation=-1)
            self.germs[b.name] = g
        else:
            raise ScenarioError(f"unknown germ type '{gtype}'", b.line)

    # -- helpers -----------------------------------------------------------

    def graph(self, name: str) -> co.GraphSubmanifold:
        if name not in self.graphs:
            raise RunError(f"no graph named '{name}'")
        return self.graphs[name]

    def graph_points(self, Y: co.GraphSubmanifold, count: int,
                     box: float = 0.9) -> np.ndarray:
        return self.rng.uniform(-box, box, (count, Y.source_chart.dim))

    def lift_fiber_form(self, beta: fm.DiffForm, g: gm.GermForm) -> fm.DiffForm:
        """Fiber (u, v) form as a 1-form on the germ's zero-section chart."""
        base = g.restricted().chart
        return fm.one_form(base, {
            beta.chart.var_names[idx[0]]: c.on_chart(base)
            for idx, c in beta.coeffs.items()})


def _check_claim(env: _Env, b: Block) -> dict:
    Y = env.graph(b.require("target"))
    tol = parse_float(b.get("tol", "1e-8"), b.line)
    pts = env.graph_points(Y, parse_int(b.get("samples", "100"), b.line))
    res = co.verify_claim(Y, pts, tol)
    if res.get("refused"):
        return {"passed": False, "refused": True,
                "reason": res["reason"], "num_bad": res["num_bad"]}
    return {"passed": bool(res["passed"]),
            "max_residual": float(res["max_residual"]),
            "tolerance": tol, "samples": int(res["samples"])}


def _check_residuals(env: _Env, b: Block) -> dict:
    Y = env.graph(b.require("target"))
    tol = parse_float(b.get("tol", "1e-8"), b.line)
    pts = env.graph_points(Y, parse_int(b.get("samples", "100"), b.line))
    worst = np.max(co.residual_values(Y, pts)["max_residual"])
    return {"passed": worst <= tol, "max_residual": float(worst),
            "tolerance": tol, "samples": len(pts)}


def _check_scan(env: _Env, b: Block) -> dict:
    Y = env.graph(b.require("target"))
    res = co.singular_scan(
        Y,
        box=parse_float(b.get("box", "1.0"), b.line),
        step=parse_float(b.get("step", "0.05"), b.line),
        tol=parse_float(b.get("tol", "1e-6"), b.line))
    out = {"num_hits": int(res.num_hits),
           "clusters": len(res.clusters),
           "dims": [int(d) for d in res.dims],
           "flags": list(res.flags)}
    exp_clusters = b.get("clusters")
    exp_dim = b.get("dim")
    exp_flag = b.get("flag")
    ok = True
    if exp_clusters is not None:
        ok = ok and len(res.clusters) == parse_int(exp_clusters, b.line)
    if exp_dim is not None:
        want = parse_int(exp_dim, b.line)
        ok = ok and all(d == want for d in res.dims) and res.dims
    if exp_flag is not None:
        if exp_flag == "none":
            ok = ok and res.num_hits == 0
        else:
            ok = ok and list(res.flags) == [exp_flag]
    out["passed"] = bool(ok)
    return out


def _check_perturb(env: _Env, b: Block) -> dict:
    n = parse_int(b.require("n"), b.line)
    delta = parse_float(b.get("delta", "0.1"), b.line)
    Y = co.legendrian_model(n)
    src = Y.source_chart
    bump = parse_field(src, b.get("bump", f"{delta} * y1 * exp(0 - y1^2)"))
    Yp = co.perturb_legendrian(Y, bump, delta)
    scan = co.singular_scan(Yp, box=parse_float(b.get("box", "1.0"), b.line),
                            step=parse_float(b.get("step", "0.05"), b.line))
    pts = env.graph_points(Yp, parse_int(b.get("samples", "100"), b.line))
    resid = co.foliation_residual(Yp, pts)
    tol = parse_float(b.get("tol", "1e-10"), b.line)
    return {"passed": scan.num_hits == 0 and resid <= tol,
            "num_hits": int(scan.num_hits),
            "foliation_residual": float(resid), "tolerance": tol}


def _check_char_foliation(env: _Env, b: Block) -> dict:
    Y = env.graph(b.require("target"))
    tol = parse_float(b.get("tol", "1e-8"), b.line)
    pts = env.graph_points(Y, parse_int(b.get("samples", "50"), b.line))
    res = co.char_foliation_form(Y, pts, tol)
    ok = res["kernel_ok"] and res["integrability_residual"] <= tol \
        and res["samples_used"] > 0
    return {"passed": bool(ok),
            "expected_kernel_dim": int(res["expected_kernel_dim"]),
            "kernel_ok": bool(res["kernel_ok"]),
            "integrability_residual": float(res["integrability_residual"]),
            "samples_used": int(res["samples_used"]), "tolerance": tol}


def _bundle_points(env: _Env, bundle: bd.FlatDiskBundle, count: int):
    pts = env.rng.uniform(-0.4, 0.4, (count, bundle.total_chart.dim))
    return pts


def _check_flatness(env: _Env, b: Block) -> dict:
    bundle = env.bundles[b.require("target")]
    tol = parse_float(b.get("tol", "1e-9"), b.line)
    pts = _bundle_points(env, bundle, parse_int(b.get("samples", "30"), b.line))
    worst = bd.flatness_check(bundle, pts)
    return {"passed": worst <= tol, "max_residual": float(worst),
            "tolerance": tol}


def _check_transport(env: _Env, b: Block) -> dict:
    bundle = env.bundles[b.require("target")]
    gen = parse_int(b.get("generator", "0"), b.line)
    start = parse_number_list(b.require("start"), b.line)
    expected = parse_number_list(b.require("end"), b.line)
    tol = parse_float(b.get("tol", "1e-6"), b.line)
    res = bd.parallel_transport(bundle, bd.generator_loop(bundle, gen), start)
    err = float(np.linalg.norm(np.array(res.end) - np.array(expected)))
    return {"passed": not res.escaped and err <= tol,
            "end": [float(x) for x in res.end], "error": err,
            "escaped": bool(res.escaped), "tolerance": tol}


def _check_ccl(env: _Env, b: Block) -> dict:
    bundle = env.bundles[b.require("target")]
    beta = env.forms[b.require("form")]
    res = bd.ccl_check(bundle, beta,
                       tol=parse_float(b.get("tol", "1e-6"), b.line))
    return {"passed": bool(res["ok"]),
            "vanishing": bool(res["vanishing"]["ok"]),
            "positivity": bool(res["positivity"]["ok"]),
            "invariance": bool(res["invariance"]["ok"])}


def _check_germ_volume(env: _Env, b: Block) -> dict:
    g = env.germs[b.require("target")]
    if g.kind != "nonsingular":
        raise RunError("germ-volume applies to nonsingular germs")
    f = parse_field(gm.foliated_chart(g.n), b.require("f"))
    tol = parse_float(b.get("tol", "1e-10"), b.line)
    pts = gm.scan_points(g, env.rng,
                         parse_int(b.get("samples", "100"), b.line))
    resid = gm.volume_identity_residual(g, f, pts)
    return {"passed": resid <= tol, "max_residual": float(resid),
            "tolerance": tol}


def _check_contact_scan(env: _Env, b: Block) -> dict:
    g = env.germs[b.require("target")]
    pts = gm.scan_points(g, env.rng,
                         parse_int(b.get("samples", "100"), b.line))
    res = gm.contactness_scan(
        g, pts, threshold=parse_float(b.get("tol", "1e-10"), b.line))
    return {"passed": bool(res["passed"]), "min_abs": float(res["min_abs"]),
            "sign_consistent": bool(res["sign_consistent"]),
            "samples": int(res["samples"])}


def _expected_section_form(env: _Env, b: Block, g: gm.GermForm) -> fm.DiffForm:
    form_name = b.get("form")
    if form_name is not None:
        return env.lift_fiber_form(env.forms[form_name], g)
    f_raw = b.get("f")
    if f_raw is None:
        raise RunError("zero-section check needs 'form' or 'f'")
    base = g.restricted().chart
    return fm.one_form(base, {"t": parse_field(base, f_raw)})


def _check_zero_section(env: _Env, b: Block) -> dict:
    g = env.germs[b.require("target")]
    expected = _expected_section_form(env, b, g)
    base = g.restricted().chart
    pts = env.rng.uniform(-0.9, 0.9,
                          (parse_int(b.get("samples", "50"), b.line),
                           base.dim))
    res = gm.zero_section_foliation_check(
        g, expected, pts, tol=parse_float(b.get("tol", "1e-10"), b.line))
    return {"passed": bool(res["passed"]),
            "max_residual": float(res["max_residual"]),
            "kernel_ok": bool(res["kernel_ok"])}


def _check_interpolation(env: _Env, b: Block) -> dict:
    g0 = env.germs[b.require("first")]
    g1 = env.germs[b.require("second")]
    expected = _expected_section_form(env, b, g0)
    pts = gm.scan_points(g0, env.rng,
                         parse_int(b.get("samples", "50"), b.line))
    res = gm.interpolation_contactness(
        g0, g1, expected, pts,
        tol=parse_float(b.get("tol", "1e-10"), b.line))
    if res["refused"]:
        return {"passed": False, "refused": True, "reason": res["reason"]}
    return {"passed": bool(res["passed"]), "refused": False,
            "min_abs": float(res["min_abs"]),
            "sign_consistent": bool(res["sign_consistent"])}


CHECKS = {
    "claim": _check_claim,
    "residuals": _check_residuals,
    "scan": _check_scan,
    "perturb": _check_perturb,
    "char-foliation": _check_char_foliation,
    "flatness": _check_flatness,
    "transport": _check_transport,
    "ccl": _check_ccl,
    "germ-volume": _check_germ_volume,
    "contact-scan": _check_contact_scan,
    "zero-section": _check_zero_section,
    "interpolation": _check_interpolation,
}


def _jsonable(value):
    """Recursively convert numpy scalars and arrays to plain Python."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def run_scenario(sc: Scenario, seed: int = 0) -> dict:
    """Run every check block; a check is ok when its outcome matches its
    declared expectation (pass, fail or refuse; default pass)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    env = _Env(sc, rng)
    checks = []
    all_ok = True
    for b in sc.checks():
        kind = b.require("kind")
        if kind not in CHECKS:
            raise RunError(f"unknown check kind '{kind}' "
                           f"(line {b.line})")
        expect = b.get("expect", "pass")
        if expect not in ("pass", "fail", "refuse"):
            raise ScenarioError(f"expect must be pass, fail or refuse, "
                                f"got '{expect}'", b.line)
        samples = b.get("samples")
        if samples is not None and parse_int(samples, b.line) < 1:
            raise ScenarioError(f"samples must be at least 1, got {samples}",
                                b.line)
        try:
            detail = _jsonable(CHECKS[kind](env, b))
            error = None
        except (ValueError, RuntimeError) as exc:
            detail = {"passed": False, "refused": True}
            error = f"{type(exc).__name__}: {exc}"
        if expect == "pass":
            ok = detail["passed"]
        elif expect == "fail":
            ok = not detail["passed"] and not detail.get("refused", False)
        else:
            ok = bool(detail.get("refused", False))
        entry = {
            "name": b.name,
            "kind": kind,
            "identity": IDENTITIES[kind],
            "expect": expect,
            "ok": bool(ok),
            "detail": detail,
        }
        if error is not None:
            entry["error"] = error
        checks.append(entry)
        all_ok = all_ok and ok
    return {
        "schema": SCHEMA_VERSION,
        "scenario": sc.name,
        "seed": int(seed),
        "passed": bool(all_ok),
        "checks": checks,
        "wall_time": round(time.perf_counter() - t0, 6),
    }
