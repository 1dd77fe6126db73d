"""Germ-of-contact-structure constructions and their verification scans.

Two builders: the nonsingular one assembles (f + sum R_i y_i) dt - sum y_i dx_i
from a foliated chart with a transverse line field, and the singular one
assembles dz + beta - sum y_j ds_j from a flat disk bundle carrying a CCL fiber
1-form with closed-form invariant extension (trivial or rotation holonomy).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import bundle as bd
from . import forms as fm
from . import symplin as sl
from .fields import (
    Chart,
    ExprField,
    SmoothMapExpr,
    VectorFieldExpr,
    compile_exprs,
    constant,
    coordinate,
)

DEFAULT_SCAN_RADIUS = 0.5


class GermBuildError(ValueError):
    """The input data fail a precondition of a germ constructor."""


def foliated_chart(n: int) -> Chart:
    return Chart(("t",) + tuple(f"x{i}" for i in range(1, n + 1)))


@dataclass(frozen=True)
class FoliatedInput:
    """A codimension-one foliation {t = const} with a transverse line field.

    beta is the defining 1-form (nonvanishing, kernel = the foliation) and
    line_field spans the chosen transverse direction with beta(L) > 0.
    """

    n: int
    beta: fm.DiffForm
    line_field: VectorFieldExpr

    def __post_init__(self):
        ch = foliated_chart(self.n)
        if self.beta.chart != ch or self.beta.degree != 1:
            raise ValueError("beta must be a 1-form on the foliated chart")
        if self.line_field.chart != ch:
            raise ValueError("line field must live on the foliated chart")

    def validate(self, points: Sequence[Sequence[float]],
                 tol: float = 1e-8) -> None:
        ch = self.beta.chart
        frob = frobenius_residual(self.beta, points)
        if frob > tol:
            raise GermBuildError(f"foliation form not integrable: {frob:g}")
        for p in points:
            covec = np.array([self.beta.coeff((i,)).eval(p)
                              for i in range(ch.dim)])
            if np.linalg.norm(covec) <= tol:
                raise GermBuildError("defining form vanishes at a sample")
            pairing = self.beta.evaluate(p, [self.line_field.eval(p)])
            if pairing <= 0:
                raise GermBuildError("line field not positively transverse")


def frobenius_residual(beta: fm.DiffForm,
                       points: Sequence[Sequence[float]]) -> float:
    """Max of beta ^ d(beta) over coordinate 3-frames at sample points."""
    if beta.degree != 1:
        raise ValueError("needs a 1-form")
    ch = beta.chart
    if ch.dim < 3:
        return 0.0
    three = fm.wedge(beta, fm.exterior_d(beta))
    eye = np.eye(ch.dim)
    worst = 0.0
    for p in points:
        worst = max(worst, three.max_coeff(p))
        for combo in itertools.combinations(range(ch.dim), 3):
            worst = max(worst, abs(three.evaluate(p, [eye[i] for i in combo])))
    return worst


@dataclass(frozen=True)
class GermForm:
    """A candidate contact 1-form on a (2n+1)-chart with a marked zero section.

    zero_section_vars are the coordinates that vanish on the section; kind
    records which constructor produced the form.
    """

    n: int
    alpha: fm.DiffForm
    zero_section_vars: tuple[str, ...]
    kind: str  # "nonsingular" | "singular" | "custom"
    fiber_pair: Optional[tuple[str, str]] = None  # oriented singular normal pair
    orientation: int = 1

    @property
    def chart(self) -> Chart:
        return self.alpha.chart

    def zero_section_map(self) -> SmoothMapExpr:
        """Inclusion of the zero section into the total chart."""
        total = self.chart
        base_vars = [v for v in total.var_names
                     if v not in self.zero_section_vars]
        src = Chart(tuple(base_vars))
        comps = []
        for v in total.var_names:
            if v in self.zero_section_vars:
                comps.append(constant(src, 0.0))
            else:
                comps.append(coordinate(src, v))
        return SmoothMapExpr(src, total, tuple(comps))

    def restricted(self) -> fm.DiffForm:
        return fm.pullback(self.zero_section_map(), self.alpha)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def germ_chart(n: int) -> Chart:
    return Chart(("t",) + tuple(f"x{i}" for i in range(1, n + 1))
                 + tuple(f"y{i}" for i in range(1, n + 1)))


def extract_local_data(inp: FoliatedInput,
                       points: Sequence[Sequence[float]],
                       tol: float = 1e-10) -> tuple[ExprField, list[ExprField]]:
    """(f, R_i) from (beta, L): f is the dt coefficient, R_i the x-components
    of L scaled to unit t-component."""
    ch = inp.beta.chart
    f = inp.beta.coeff((0,))
    # the chart is already foliated: dx-components of beta must vanish
    for i in range(1, ch.dim):
        c = inp.beta.coeff((i,))
        for p in points:
            if abs(c.eval(p)) > tol:
                raise GermBuildError(
                    "defining form has a leafwise component; chart is not "
                    "adapted to the foliation")
    Lt = inp.line_field.components[0]
    Rs = [inp.line_field.components[i] / Lt for i in range(1, ch.dim)]
    return f, Rs


def build_nonsingular_germ(inp: FoliatedInput,
                           points: Sequence[Sequence[float]] | None = None,
                           tol: float = 1e-8) -> GermForm:
    """alpha = (f + sum R_i y_i) dt - sum y_i dx_i on the doubled chart."""
    n = inp.n
    if points is None:
        rng = np.random.default_rng(0)
        points = rng.uniform(-0.9, 0.9, (25, n + 1))
    inp.validate(points, tol)
    f, Rs = extract_local_data(inp, points)
    total = germ_chart(n)
    f_t = f.on_chart(total)
    dt_coeff = f_t
    for i in range(1, n + 1):
        dt_coeff = dt_coeff + Rs[i - 1].on_chart(total) * coordinate(total, f"y{i}")
    coeffs = {"t": dt_coeff}
    alpha = fm.one_form(total, coeffs)
    for i in range(1, n + 1):
        alpha = alpha + fm.one_form(total, {f"x{i}": -coordinate(total, f"y{i}")})
    return GermForm(n=n, alpha=alpha,
                    zero_section_vars=tuple(f"y{i}" for i in range(1, n + 1)),
                    kind="nonsingular")


def singular_germ_chart(n: int) -> Chart:
    names = tuple(f"s{j}" for j in range(1, n)) + ("u", "v") \
        + tuple(f"y{j}" for j in range(1, n)) + ("z",)
    return Chart(names)


def build_singular_germ(bundle: bd.FlatDiskBundle, beta: fm.DiffForm,
                        tol: float = 1e-6) -> GermForm:
    """alpha = dz + beta - sum y_j ds_j, for holonomy-invariant fiber forms.

    Supported bundles are those whose invariant extension of beta is beta
    itself in the given trivialization (trivial and rotation holonomy); the
    CCL conditions are checked first and failures refuse the build.
    """
    n = bundle.base_dim + 1
    report = bd.ccl_check(bundle, beta, tol=tol)
    if not report["ok"]:
        failed = [k for k in ("vanishing", "positivity", "invariance")
                  if not report[k]["ok"]]
        raise GermBuildError(f"fiber form fails CCL conditions: {failed}")
    # invariant-extension check: Lie derivative along each lift must vanish
    total_b = bundle.total_chart
    beta_tot = fm.DiffForm(total_b, 1, {
        (bundle.base_dim + d,): c.on_chart(total_b)
        for (d,), c in beta.coeffs.items()})
    rng = np.random.default_rng(0)
    probe = rng.uniform(-0.4, 0.4, (10, total_b.dim))
    for j in range(bundle.base_dim):
        ld = fm.lie_derivative(bundle.lift(j), beta_tot)
        worst = max(ld.max_coeff(p) for p in probe)
        if worst > 1e-8:
            raise GermBuildError(
                "no closed-form invariant extension in this trivialization; "
                "only trivial and rotation holonomy are supported")
    total = singular_germ_chart(n)
    iu = total.index("u")
    alpha = fm.one_form(total, {"z": 1.0})
    alpha = alpha + fm.DiffForm(total, 1, {
        (iu + d,): c.on_chart(total) for (d,), c in beta.coeffs.items()})
    for j in range(1, n):
        alpha = alpha + fm.one_form(total, {f"s{j}": -coordinate(total, f"y{j}")})
    return GermForm(n=n, alpha=alpha,
                    zero_section_vars=tuple(f"y{j}" for j in range(1, n)) + ("z",),
                    kind="singular", fiber_pair=("u", "v"),
                    orientation=bundle.orientation)


# ---------------------------------------------------------------------------
# Scans and checks
# ---------------------------------------------------------------------------


def contactness_scan(g: GermForm, points: Sequence[Sequence[float]],
                     threshold: float = 1e-10) -> dict:
    """Min |top form| on the canonical frame and a sign-consistency flag."""
    top = fm.wedge(g.alpha, fm.wedge_power(fm.exterior_d(g.alpha), g.n))
    vals = top.coeff_array(points)[:, 0]
    min_abs = float(np.min(np.abs(vals)))
    signs = set(np.sign(vals).astype(int).tolist())
    sign_consistent = len(signs) == 1 and 0 not in signs
    return {
        "min_abs": min_abs,
        "sign": signs.pop() if sign_consistent else 0,
        "sign_consistent": sign_consistent,
        "passed": sign_consistent and min_abs > threshold,
        "samples": len(points),
    }


def scan_points(g: GermForm, rng: np.random.Generator, count: int,
                box: float = 0.9,
                fiber_radius: float = DEFAULT_SCAN_RADIUS) -> np.ndarray:
    """Random points near the zero section: |section vars| <= fiber_radius."""
    pts = rng.uniform(-box, box, (count, g.chart.dim))
    for v in g.zero_section_vars:
        i = g.chart.index(v)
        pts[:, i] = rng.uniform(-fiber_radius, fiber_radius, count)
    return pts


def zero_section_foliation_check(g: GermForm, expected: fm.DiffForm,
                                 points: Sequence[Sequence[float]],
                                 tol: float = 1e-10) -> dict:
    """Restriction of alpha to the zero section against the expected form.

    Checks coefficientwise agreement, kernel agreement at nonsingular samples
    and (for singular builds) that the restricted form vanishes exactly on
    the expected singular set.
    """
    restricted = g.restricted()
    base = restricted.chart
    if expected.chart != base or expected.degree != 1:
        raise ValueError("expected form must be a 1-form on the section chart")
    points = np.asarray(points, dtype=float)
    diff = restricted - expected
    idxs = list(set(restricted.coeffs) | set(expected.coeffs))
    resid = np.abs(compile_exprs(base, tuple(
        diff.coeff(idx).expr for idx in idxs)).batch(points))
    # sample-major, then in the order of idxs
    mismatches = [{"point": points[row].tolist(),
                   "index": [base.var_names[i] for i in idxs[col]],
                   "residual": float(resid[row, col])}
                  for row, col in np.argwhere(resid > tol)[:10]]
    max_resid = float(np.max(resid, initial=0.0))
    covec = restricted.coeff_array(points)
    exp_covec = expected.coeff_array(points)
    singular = np.linalg.norm(exp_covec, axis=1) <= 1e-8
    # At singular samples the restricted form must vanish too; elsewhere the
    # kernels must agree, and a zero covector's kernel is the whole space.
    kernel_ok = not np.any(singular & (np.linalg.norm(covec, axis=1) > 1e-8))
    c0, c1 = covec[~singular], exp_covec[~singular]
    if len(c0):
        same = sl.stacked_equals(sl.hyperplane_bases(c0),
                                 sl.hyperplane_bases(c1), 1e-8)
        kernel_ok = kernel_ok and bool(np.all(same & np.any(c0 != 0, axis=1)))
    return {
        "max_residual": max_resid,
        "mismatches": mismatches,
        "kernel_ok": kernel_ok,
        "singular_samples": int(np.sum(singular)),
        "passed": not mismatches and kernel_ok,
    }


def coorientation_sign(g: GermForm, point: Sequence[float]) -> int:
    """Sign of the restricted two-form on the oriented fiber pair at a
    singular-section point (singular builds only)."""
    if g.fiber_pair is None:
        raise ValueError("germ has no singular fiber pair")
    restricted = g.restricted()
    base = restricted.chart
    d = fm.exterior_d(restricted)
    i0, i1 = base.index(g.fiber_pair[0]), base.index(g.fiber_pair[1])
    eye = np.eye(base.dim)
    val = g.orientation * d.evaluate(point, [eye[i0], eye[i1]])
    return 1 if val > 0 else -1 if val < 0 else 0


def interpolation_contactness(g0: GermForm, g1: GermForm,
                              expected: fm.DiffForm,
                              points: Sequence[Sequence[float]],
                              t_samples: Sequence[float] | None = None,
                              tol: float = 1e-10) -> dict:
    """Contactness of (1-t) alpha_0 + t alpha_1 along the pencil.

    Both inputs must restrict to the expected zero-section form; for singular
    builds the co-orientation signs at the singular set must match, otherwise
    the pencil is refused.
    """
    if g0.chart != g1.chart or g0.n != g1.n:
        raise ValueError("germs live on different charts")
    if t_samples is None:
        t_samples = [i / 10 for i in range(11)]
    base_idx = [i for i, v in enumerate(g0.chart.var_names)
                if v not in g0.zero_section_vars]
    base_points = np.asarray(points, dtype=float)[:, base_idx]
    zs0 = zero_section_foliation_check(g0, expected, base_points, tol=1e-8)
    zs1 = zero_section_foliation_check(g1, expected, base_points, tol=1e-8)
    if not (zs0["passed"] and zs1["passed"]):
        return {"refused": True,
                "reason": "zero-section foliations disagree",
                "zs0": zs0["passed"], "zs1": zs1["passed"]}
    if g0.fiber_pair is not None and g1.fiber_pair is not None:
        origin = np.zeros(g0.restricted().chart.dim)
        s0 = coorientation_sign(g0, origin)
        s1 = coorientation_sign(g1, origin)
        if s0 != s1 or s0 == 0:
            return {"refused": True,
                    "reason": "co-orientation mismatch at the singular set",
                    "signs": (s0, s1)}
    min_abs = math.inf
    signs = set()
    for t in t_samples:
        alpha_t = g0.alpha.scale(1.0 - t) + g1.alpha.scale(t)
        top = fm.wedge(alpha_t, fm.wedge_power(fm.exterior_d(alpha_t), g0.n))
        vals = top.coeff_array(points)[:, 0]
        min_abs = min(min_abs, float(np.min(np.abs(vals))))
        signs.update(np.sign(vals).astype(int).tolist())
    ok = len(signs) == 1 and 0 not in signs and min_abs > tol
    return {
        "refused": False,
        "min_abs": float(min_abs),
        "sign_consistent": len(signs) == 1 and 0 not in signs,
        "passed": ok,
        "t_samples": list(map(float, t_samples)),
    }


def volume_identity_residual(g: GermForm, f: ExprField,
                             points: Sequence[Sequence[float]]) -> float:
    """Max |alpha ^ (d alpha)^n - n! f vol| over samples (nonsingular build).

    Both sides are evaluated on the frame (x1, y1, ..., xn, yn, t), the
    orientation in which the canonical volume is +1.
    """
    n = g.n
    total = g.chart
    top = fm.wedge(g.alpha, fm.wedge_power(fm.exterior_d(g.alpha), n))
    frame_names = []
    for i in range(1, n + 1):
        frame_names += [f"x{i}", f"y{i}"]
    frame_names.append("t")
    eye = np.eye(total.dim)
    frame = np.column_stack([eye[total.index(v)] for v in frame_names])
    # A top form has one coefficient; on the frame it scales by det(frame).
    lhs = top.coeff_array(points)[:, 0] * np.linalg.det(frame)
    rhs = math.factorial(n) * f.on_chart(total).compile()(points)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
