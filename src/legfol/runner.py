"""Executes parsed scenarios: builds the declared objects, dispatches each
check block to the matching verifier and assembles a deterministic JSON-ready
report (stable key order; only wall_time varies between identical runs)."""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable

import numpy as np

from . import bundle as bd
from . import coiso as co
from . import forms as fm
from . import germ as gm
from .fields import (
    Chart,
    ParseError,
    UnknownVariable,
    constant,
    max_abs,
    parse_field,
    vector_field,
)
from .scenario import (
    Block,
    Scenario,
    ScenarioError,
    parse_float,
    parse_int,
    parse_number_list,
    parse_positive,
)

SCHEMA_VERSION = 1


class RunError(ValueError):
    """A check block references something missing or inconsistent."""


class _Env:
    """Objects built from declaration blocks, by (kind, name), and the
    resolved keyword arguments of each check block.  A germ is built when a
    check first names it, so a refused or faulty build belongs to the checks
    that name it.  The singular germs on one (bundle, form) pair share one
    build; a build that raises is not kept, so each of them runs it
    again."""

    def __init__(self, sc: Scenario, rng: np.random.Generator,
                 args: dict[Block, dict]):
        self.rng = rng
        self.args = args
        self.objects: dict[tuple[str, str], object] = {}
        self.singular: dict[tuple[str, str], gm.GermForm] = {}
        for b in sc.blocks:
            if b.kind == "check":
                continue
            try:
                obj = getattr(self, f"_build_{b.kind}")(b)
            except ScenarioError:
                raise
            except ValueError as exc:  # ParseError, UnknownVariable too
                raise ScenarioError(str(exc), b.line) from exc
            self.objects[b.kind, b.name] = obj

    def get(self, kind: str, name: str):
        """The named object; a germ's build runs on first use, and its
        result or exception is kept for every later check."""
        key = (kind, name)
        if kind == "germ" and callable(self.objects[key]):
            try:
                self.objects[key] = self.objects[key]()
            except (ValueError, RuntimeError, ArithmeticError) as exc:
                self.objects[key] = exc
        if isinstance(self.objects[key], Exception):
            raise self.objects[key]
        return self.objects[key]

    def _build_chart(self, b: Block) -> Chart:
        return Chart(tuple(b.require("vars").split()))

    def _build_graph(self, b: Block) -> co.GraphSubmanifold:
        n = parse_int(b.require("n"), b.line)
        k = parse_int(b.require("k"), b.line)
        free_raw = b.get("free_y")
        free = tuple(int(x) for x in free_raw.replace(",", " ").split()) \
            if free_raw else None
        source = co.graph_chart(n, k, free)
        comps = {key: parse_field(source[1], val) for key, val in b.items()
                 if key not in ("n", "k", "free_y")}
        return co.graph_submanifold(n, k, comps, free, source)

    def _build_bundle(self, b: Block) -> bd.FlatDiskBundle:
        btype = b.require("type")
        periods_raw = b.get("periods")
        periods = parse_number_list(periods_raw, b.line) if periods_raw else None
        radius = parse_float(b.get("radius", "1.0"), b.line)
        if btype == "trivial":
            base_dim = parse_int(b.get("base_dim", "1"), b.line)
            return bd.trivial_bundle(base_dim, periods, radius)
        rates = parse_number_list(b.require("rates"), b.line)
        return bd.rotation_bundle(rates, periods, radius)

    def _build_form(self, b: Block) -> fm.DiffForm:
        on = b.require("on").split()
        if len(on) != 2 or on[0] not in ("fiber", "chart"):
            raise ScenarioError("form 'on' must be 'fiber NAME' or "
                                "'chart NAME'", b.line)
        chart = self.objects["bundle", on[1]].fiber_chart \
            if on[0] == "fiber" else self.objects["chart", on[1]]
        return fm.one_form(chart, {key: parse_field(chart, val)
                                   for key, val in b.items() if key != "on"})

    def _build_germ(self, b: Block) -> Callable[[], gm.GermForm]:
        """Parse the germ block now; return its build for get to run."""
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
            inp = gm.FoliatedInput(n=n, beta=fm.one_form(ch, {"t": f}),
                                   line_field=vector_field(ch, comps))
            return lambda: gm.build_nonsingular_germ(inp)
        pair = (b.require("bundle"), b.require("form"))
        orient = parse_int(b.get("orientation", "1"), b.line)

        def build() -> gm.GermForm:
            if pair not in self.singular:
                self.singular[pair] = gm.build_singular_germ(
                    self.objects["bundle", pair[0]],
                    self.objects["form", pair[1]])
            g = self.singular[pair]
            return dataclasses.replace(g, orientation=-1) \
                if orient == -1 else g
        return build


# -- verifiers: each takes the sample generator, then every key of its kind
# as a keyword argument (names resolved to objects, values parsed) ---------


def _graph_points(rng: np.random.Generator, Y: co.GraphSubmanifold,
                  count: int) -> np.ndarray:
    """count samples of the graph's source box.  Each graph check evaluates
    all components there (lambda_jet): an undefined one is its error."""
    return rng.uniform(-0.9, 0.9, (count, Y.source_chart.dim))


def _claim(rng, target, tol, samples) -> dict:
    res = co.verify_claim(target, _graph_points(rng, target, samples), tol)
    if res.get("refused"):
        return {"passed": False, "refused": True,
                "reason": res["reason"], "num_bad": res["num_bad"]}
    return {"passed": bool(res["passed"]),
            "max_residual": float(res["max_residual"]),
            "tolerance": tol, "samples": int(res["samples"])}


def _residuals(rng, target, tol, samples) -> dict:
    pts = _graph_points(rng, target, samples)
    worst = np.max(co.residual_values(target, pts)["max_residual"])
    return {"passed": worst <= tol, "max_residual": float(worst),
            "tolerance": tol, "samples": len(pts)}


def _scan(rng, target, box, step, tol, clusters, dim, flag) -> dict:
    res = co.singular_scan(target, box=box, step=step, tol=tol)
    out = {"num_hits": int(res.num_hits),
           "clusters": len(res.clusters),
           "dims": [int(d) for d in res.dims],
           "flags": list(res.flags)}
    ok = (clusters is None or len(res.clusters) == clusters) \
        and (dim is None or all(d == dim for d in res.dims) and res.dims) \
        and (flag is None or (res.num_hits == 0 if flag == "none"
                              else list(res.flags) == [flag]))
    out["passed"] = bool(ok)
    return out


def _perturb(rng, n, delta, bump, box, step, tol, samples) -> dict:
    Y = co.legendrian_model(n)
    if bump is None:
        bump = f"{delta} * y1 * exp(0 - y1^2)"
    Yp = co.perturb_legendrian(Y, parse_field(Y.source_chart, bump))
    scan = co.singular_scan(Yp, box=box, step=step)
    resid = max_abs(fm.frobenius(*Yp.lambda_jet(
        _graph_points(rng, Yp, samples))))
    return {"passed": scan.num_hits == 0 and resid <= tol,
            "num_hits": int(scan.num_hits),
            "foliation_residual": float(resid), "tolerance": tol}


def _char_foliation(rng, target, tol, samples) -> dict:
    res = co.char_foliation_form(target, _graph_points(rng, target, samples),
                                 tol)
    ok = res["kernel_ok"] and res["integrability_residual"] <= tol \
        and res["samples_used"] > 0
    return {"passed": bool(ok),
            "expected_kernel_dim": int(res["expected_kernel_dim"]),
            "kernel_ok": bool(res["kernel_ok"]),
            "integrability_residual": float(res["integrability_residual"]),
            "samples_used": int(res["samples_used"]), "tolerance": tol}


def _flatness(rng, target, tol, samples) -> dict:
    pts = rng.uniform(-0.4, 0.4, (samples, target.total_chart.dim))
    worst = bd.flatness_check(target, pts)
    return {"passed": worst <= tol, "max_residual": float(worst),
            "tolerance": tol}


def _transport(rng, target, generator, start, end, tol) -> dict:
    res = bd.parallel_transport(target, bd.generator_loop(target, generator),
                                start)
    err = float(np.linalg.norm(np.array(res.end) - np.array(end)))
    return {"passed": not res.escaped and err <= tol,
            "end": [float(x) for x in res.end], "error": err,
            "escaped": bool(res.escaped), "steps": res.steps,
            "nfev": res.nfev, "tolerance": tol}


def _ccl(rng, target, form, tol) -> dict:
    res = bd.ccl_check(target, form, tol=tol)
    return {"passed": bool(res["ok"]),
            "vanishing": bool(res["vanishing"]["ok"]),
            "positivity": bool(res["positivity"]["ok"]),
            "invariance": bool(res["invariance"]["ok"]),
            "steps": res["invariance"]["steps"],
            "nfev": res["invariance"]["nfev"]}


def _germ_volume(rng, target, f, tol, samples) -> dict:
    if target.kind != "nonsingular":
        raise RunError("germ-volume applies to nonsingular germs")
    resid = gm.volume_identity_residual(
        target, parse_field(gm.foliated_chart(target.n), f),
        gm.scan_points(target, rng, samples))
    return {"passed": resid <= tol, "max_residual": float(resid),
            "tolerance": tol}


def _contact_scan(rng, target, tol, samples) -> dict:
    res = gm.contactness_scan(target, gm.scan_points(target, rng, samples),
                              threshold=tol)
    return {"passed": bool(res["passed"]), "min_abs": float(res["min_abs"]),
            "sign_consistent": bool(res["sign_consistent"]),
            "samples": int(res["samples"])}


def _section_form(base: Chart, form: fm.DiffForm | None,
                  f: str | None) -> fm.DiffForm:
    """The expected zero-section form on base: the fiber (u, v) form lifted
    onto it, or else f dt."""
    if form is None:
        return fm.one_form(base, {"t": parse_field(base, f)})
    return fm.one_form(base, {form.chart.var_names[idx[0]]: c.on_chart(base)
                              for idx, c in form.coeffs.items()})


def _zero_section(rng, target, form, f, tol, samples) -> dict:
    base = target.restricted.chart
    expected = _section_form(base, form, f)
    pts = rng.uniform(-0.9, 0.9, (samples, base.dim))
    res = gm.zero_section_foliation_check(target, expected, pts, tol=tol)
    return {"passed": bool(res["passed"]),
            "max_residual": float(res["max_residual"]),
            "kernel_ok": bool(res["kernel_ok"])}


def _interpolation(rng, first, second, form, f, tol, samples) -> dict:
    expected = _section_form(first.restricted.chart, form, f)
    res = gm.interpolation_contactness(
        first, second, expected, gm.scan_points(first, rng, samples), tol=tol)
    if res["refused"]:
        return {"passed": False, "refused": True, "reason": res["reason"]}
    return {"passed": bool(res["passed"]), "refused": False,
            "min_abs": float(res["min_abs"]),
            "sign_consistent": bool(res["sign_consistent"])}


# -- the table of check kinds ------------------------------------------------

REQUIRED = "required"  # the default of a value key the block must give


def _at_least_one(key: str) -> Callable[[str, int | None], int]:
    """The parser of an integer key whose value is at least 1."""
    def parse(raw: str, line: int | None) -> int:
        count = parse_int(raw, line)
        if count < 1:
            raise ScenarioError(f"{key} must be at least 1, got {raw}", line)
        return count
    return parse


def _text(raw: str, line: int | None) -> str:
    return raw


def _pair(raw: str, line: int | None) -> list[float]:
    """A fiber point (u, v): exactly two finite numbers."""
    if len(value := parse_number_list(raw, line)) != 2:
        raise ScenarioError(f"expected one (u, v) pair, got '{raw}'", line)
    return value


# The parser of each value key, which checks its rule: a block's raw value
# and a run's override go through the same one.
VALUES = {"tol": parse_positive, "samples": _at_least_one("samples"),
          "box": parse_positive, "step": parse_positive,
          "clusters": parse_int, "dim": parse_int, "flag": _text,
          "n": _at_least_one("n"), "delta": parse_float, "bump": _text,
          "generator": parse_int, "start": _pair, "end": _pair,
          "f": _text}


def _overrides(overrides: dict) -> dict:
    """The overrides that are not None, each parsed from its text by its
    key's parser, so that a value its key's rule refuses is an input error,
    and so is a key with no parser."""
    if unknown := sorted(overrides.keys() - VALUES.keys()):
        raise ScenarioError(f"unknown override keys {unknown}", None)
    return {key: VALUES[key](str(value), None)
            for key, value in overrides.items() if value is not None}


def _tol(default: str, samples: str | None = None) -> dict:
    keys = {"tol": default}
    if samples is not None:
        keys["samples"] = samples
    return keys


@dataclasses.dataclass(frozen=True)
class Kind:
    """Everything the runner knows about one check kind.

    identity: one-line statement of what the check verifies.
    names: each name-valued key and the declaration kind it names; all are
        required, except that `form` may be left out where `f` is given.
    values: each value key (parsed by VALUES) and its default: a raw value,
        REQUIRED, or None for an optional key with no default.
    verify: called with the sample generator and every key as a keyword
        argument; returns the report's detail dict.
    """

    identity: str
    names: dict[str, str]
    values: dict[str, str | None]
    verify: Callable[..., dict]


GRID = {"box": "1.0", "step": "0.05"}

KINDS = {
    "claim": Kind(
        "i_V alpha = 0; i_V d lambda = 0; [V_i, V_j] = 0; L_V lambda = 0",
        {"target": "graph"}, _tol("1e-8", "100"), _claim),
    "residuals": Kind(
        "first-order tangency system of the restricted form = 0",
        {"target": "graph"}, _tol("1e-8", "100"), _residuals),
    "scan": Kind(
        "zero locus of the restricted 1-form: count, dimension, type",
        {"target": "graph"},
        {**GRID, **_tol("1e-6"), "clusters": None, "dim": None,
         "flag": None}, _scan),
    "perturb": Kind(
        "restricted alpha ^ d alpha = 0 and no zeros after perturbation",
        {}, {"n": REQUIRED, "delta": "0.1", "bump": None, **GRID,
             **_tol("1e-10", "100")},
        _perturb),
    "char-foliation": Kind(
        "dim ker(d lambda on ker lambda) = 2n-k+1; "
        "(d lambda)^(k-n) = 0 on ker lambda",
        {"target": "graph"}, _tol("1e-8", "50"), _char_foliation),
    "flatness": Kind(
        "vertical part of [lift_i, lift_j] = 0",
        {"target": "bundle"}, _tol("1e-9", "30"), _flatness),
    "transport": Kind(
        "horizontal-lift ODE endpoint matches the expected fiber point",
        {"target": "bundle"},
        {"generator": "0", "start": REQUIRED, "end": REQUIRED,
         **_tol("1e-6")}, _transport),
    "ccl": Kind(
        "fiber form holonomy-invariant, vanishing only at 0, d beta > 0",
        {"target": "bundle", "form": "form"}, _tol("1e-6"), _ccl),
    "germ-volume": Kind(
        "alpha ^ (d alpha)^n = n! f vol",
        {"target": "germ"}, {"f": REQUIRED, **_tol("1e-10", "100")},
        _germ_volume),
    "contact-scan": Kind(
        "alpha ^ (d alpha)^n nonvanishing with constant sign",
        {"target": "germ"}, _tol("1e-10", "100"), _contact_scan),
    "zero-section": Kind(
        "alpha restricted to the zero section equals the declared foliation "
        "form",
        {"target": "germ", "form": "form"},
        {"f": None, **_tol("1e-10", "50")}, _zero_section),
    "interpolation": Kind(
        "(1-t) alpha_0 + t alpha_1 is contact for every t",
        {"first": "germ", "second": "germ", "form": "form"},
        {"f": None, **_tol("1e-10", "50")}, _interpolation),
}


# The keys each declaration kind reads, by type (None for a kind without
# types).  A nonsingular germ also takes r1 .. rn; graph and form blocks
# take their components besides, which their constructors check.
DECLARATIONS = {
    "chart": {None: {"vars"}},
    "bundle": {"trivial": {"type", "periods", "radius", "base_dim"},
               "rotation": {"type", "periods", "radius", "rates"}},
    "germ": {"nonsingular": {"type", "n", "f"},
             "singular": {"type", "bundle", "form", "orientation"}},
}


def _check_declaration_keys(b: Block) -> None:
    """Reject an unknown type, a key the declaration does not read, or a
    germ's dimension n below 1 or orientation other than 1 and -1."""
    types = DECLARATIONS[b.kind]
    btype = None if None in types else b.require("type")
    if btype not in types:
        raise ScenarioError(f"unknown {b.kind} type '{btype}'", b.line)
    keys = types[btype]
    if btype == "nonsingular":
        n = VALUES["n"](b.require("n"), b.line)
        keys = keys | {f"r{i}" for i in range(1, n + 1)}
    elif btype == "singular":
        raw = b.get("orientation", "1")
        if parse_int(raw, b.line) not in (1, -1):
            raise ScenarioError(f"orientation must be 1 or -1, got {raw}",
                                b.line)
    for key, _ in b.items():
        if key not in keys:
            raise ScenarioError(f"unknown key '{key}' for {b.kind} "
                                f"'{b.name}'", b.line)


def _dispatch(kind: Kind, env: _Env, b: Block) -> dict:
    args = dict(env.args[b])
    for key, decl in kind.names.items():
        if args[key] is not None:
            args[key] = env.get(decl, args[key])
    return kind.verify(env.rng, **args)


CHECKS = {name: functools.partial(_dispatch, k) for name, k in KINDS.items()}


def _resolve(sc: Scenario, overrides: dict) -> dict[Block, dict]:
    """Reject input errors before anything is built or run, and return each
    check block's keyword arguments: its parsed values and the names it
    gives, with an override replacing a value key its kind declares.

    Input errors are an unknown check kind, key or expectation, an unknown
    declaration type or key, a missing or malformed value (samples or n
    below 1, a germ's orientation other than 1 and -1, a box, step or tol
    that is not a positive finite number, and a start or end that is not
    one (u, v) pair, included) in a block or an
    override, an override of an unknown key,
    and a name that no declaration of the right kind carries: a check's name
    keys, a singular germ's bundle and form, and the bundle or chart a form
    lives on.
    Declarations may name only earlier declarations, as they are built in
    order; checks may name any.  Each error is a ScenarioError with the
    block's line.
    """
    overrides = _overrides(overrides)
    declared: set[tuple[str, str]] = set()

    def resolve(b: Block, key: str, kind: str, name: str | None = None):
        name = b.require(key) if name is None else name
        if (kind, name) not in declared:
            raise ScenarioError(f"no {kind} named '{name}' (key '{key}')",
                                b.line)
        return name

    for b in sc.blocks:
        if b.kind in DECLARATIONS:
            _check_declaration_keys(b)
        if b.kind == "form":
            on = b.require("on").split()
            if len(on) == 2 and on[0] in ("fiber", "chart"):
                resolve(b, "on", "bundle" if on[0] == "fiber" else "chart",
                        on[1])
        elif b.kind == "germ" and b.get("type") == "singular":
            resolve(b, "bundle", "bundle")
            resolve(b, "form", "form")
        if b.kind != "check":
            declared.add((b.kind, b.name))
    resolved = {}
    for b in sc.checks():
        name = b.require("kind")
        kind = KINDS.get(name)
        if kind is None:
            raise ScenarioError(f"unknown check kind '{name}'", b.line)
        for key, _ in b.items():
            if key not in (*kind.names, *kind.values, "kind", "expect"):
                raise ScenarioError(f"unknown key '{key}' for check kind "
                                    f"'{name}'", b.line)
        expect = b.get("expect", "pass")
        if expect not in ("pass", "fail", "refuse"):
            raise ScenarioError(f"expect must be pass, fail or refuse, "
                                f"got '{expect}'", b.line)
        args = {}
        for key, default in kind.values.items():
            raw = b.require(key) if default == REQUIRED \
                else b.get(key, default)
            if key in overrides:
                args[key] = overrides[key]
            else:
                args[key] = None if raw is None else VALUES[key](raw, b.line)
        for key, decl in kind.names.items():
            left_out = key == "form" and b.get(key) is None \
                and args.get("f") is not None
            args[key] = None if left_out else resolve(b, key, decl)
        resolved[b] = args
    return resolved


def _plan(sc: Scenario, env: _Env) -> None:
    """Plan the transport rows the checks will request: each transport
    check's start, and then the CCL rows of every generator of each bundle
    that a ccl check, or a singular germ that a check names, names.  Then
    integrate them: one sweep for the planned rows of every bundle with the
    same base_dim and path vertex count, before the first check runs.  A
    transport check's generator index out of range, or its start outside
    the fiber disk, is an input error at the check's line."""
    germ_bundles = {b.name: b.get("bundle") for b in sc.blocks
                    if b.kind == "germ"}
    plan, ccl = {}, {}  # ccl: bundle names in check order
    for b, args in env.args.items():
        kind = b.require("kind")
        if kind == "transport":
            target = env.objects["bundle", args["target"]]
            try:
                bd.plan_transport(plan, target, bd.generator_loop(
                    target, args["generator"]), [args["start"]])
            except ValueError as exc:  # a loop or start the bundle lacks
                raise ScenarioError(str(exc), b.line) from exc
        elif kind == "ccl":
            ccl[args["target"]] = None
        ccl.update(dict.fromkeys(germ_bundles[args[key]] for key, decl
                                 in KINDS[kind].names.items()
                                 if decl == "germ"))
    bd.plan_ccl(plan, [env.objects["bundle", name]
                       for name in ccl if name is not None])
    bd.sweep_plan(plan)


def _jsonable(value):
    """Recursively convert numpy scalars and arrays to plain Python."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.item() if isinstance(value, np.generic) else value


def run_scenario(sc: Scenario, seed: int = 0,
                 overrides: dict | None = None) -> dict:
    """Run every check block; a check is ok when its outcome matches its
    declared expectation (pass, fail or refuse; default pass).  A check that
    raises a numerical fault has the outcome error, which matches none.
    overrides maps value keys such as tol or samples to a value that
    replaces the block's in every check whose kind declares the key; a None
    value overrides nothing.  Each is checked by its key's parser in VALUES,
    as a block's value is, before anything is built."""
    t0 = time.perf_counter()
    args = _resolve(sc, overrides or {})
    env = _Env(sc, np.random.default_rng(seed), args)
    _plan(sc, env)
    checks = []
    all_ok = True
    for b in sc.checks():
        kind = b.require("kind")
        expect = b.get("expect", "pass")
        error, fault = None, False
        try:
            detail = _jsonable(CHECKS[kind](env, b))
        except ScenarioError:  # malformed input is never a refusal
            raise
        except (ParseError, UnknownVariable) as exc:
            raise ScenarioError(str(exc), b.line) from exc
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            # A numerical fault (an EvaluationError, a RecursionError) is
            # neither a verdict nor a refusal, and satisfies no expectation.
            fault = isinstance(exc, (ArithmeticError, RecursionError))
            detail = {"passed": False, "refused": not fault}
            error = f"{type(exc).__name__}: {exc}"
        if fault:
            ok = False
        elif expect == "pass":
            ok = detail["passed"]
        elif expect == "fail":
            ok = not detail["passed"] and not detail.get("refused", False)
        else:
            ok = bool(detail.get("refused", False))
        entry = {
            "name": b.name,
            "kind": kind,
            "identity": KINDS[kind].identity,
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
