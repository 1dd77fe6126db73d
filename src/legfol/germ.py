"""Germ-of-contact-structure constructions and their verification scans.

Two builders: the nonsingular one assembles (f + sum R_i y_i) dt - sum y_i dx_i
from a foliated chart with a transverse line field, and the singular one
assembles dz + beta - sum y_j ds_j from a flat disk bundle carrying a CCL fiber
1-form with closed-form invariant extension (trivial or rotation holonomy).
"""

from __future__ import annotations

import functools
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
    sup_abs,
)

# scan_points draws the base coordinates from [-SCAN_BOX, SCAN_BOX] and the
# zero-section coordinates from [-SCAN_FIBER_RADIUS, SCAN_FIBER_RADIUS].
SCAN_BOX = 0.9
SCAN_FIBER_RADIUS = 0.5
PENCIL_T = tuple(i / 10 for i in range(11))
# FoliatedInput.validate: the largest Frobenius residual and the largest
# |beta| that count as zero.  extract_local_data: the largest leafwise
# coefficient of beta that counts as zero.
INPUT_TOL = 1e-8
LEAFWISE_TOL = 1e-10


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

    def validate(self, points: Sequence[Sequence[float]]) -> None:
        """Refuse at the first sample, in sample order, where beta vanishes
        or else beta(L) <= 0."""
        frob = frobenius_residual(self.beta, points)
        if frob > INPUT_TOL:
            raise GermBuildError(f"foliation form not integrable: {frob:g}")
        covecs = self.beta.coeff_array(points)
        line = compile_exprs(self.beta.chart, tuple(
            c.expr for c in self.line_field.components)).batch(points)
        pairing = np.sum(covecs * line, axis=1)  # beta(L)
        vanishes = np.linalg.norm(covecs, axis=1) <= INPUT_TOL
        bad = np.flatnonzero(vanishes | (pairing <= 0))
        if len(bad) and vanishes[bad[0]]:
            raise GermBuildError("defining form vanishes at a sample")
        if len(bad):
            raise GermBuildError("line field not positively transverse")


def frobenius_residual(beta: fm.DiffForm,
                       points: Sequence[Sequence[float]]) -> float:
    """Max of beta ^ d(beta) over coordinate 3-frames at sample points."""
    if beta.degree != 1:
        raise ValueError("needs a 1-form")
    if beta.chart.dim < 3:
        return 0.0
    # a 3-form on a coordinate 3-frame is its coefficient there
    three = fm.wedge(beta, fm.exterior_d(beta))
    return sup_abs(three.chart, three.coeffs.values(), points)


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
        return SmoothMapExpr(src, total, tuple(
            constant(src, 0.0) if v in self.zero_section_vars
            else coordinate(src, v) for v in total.var_names))

    @functools.cached_property
    def restricted(self) -> fm.DiffForm:
        """alpha pulled back to the zero section, built once per germ."""
        return fm.pullback(self.zero_section_map(), self.alpha)

    @functools.cached_property
    def top(self) -> fm.DiffForm:
        """alpha ^ (d alpha)^n, built once per germ."""
        return top_form(self.alpha, self.n)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def germ_chart(n: int) -> Chart:
    return Chart(("t",) + tuple(f"x{i}" for i in range(1, n + 1))
                 + tuple(f"y{i}" for i in range(1, n + 1)))


def extract_local_data(inp: FoliatedInput,
                       points: Sequence[Sequence[float]]
                       ) -> tuple[ExprField, list[ExprField]]:
    """(f, R_i) from (beta, L): f is the dt coefficient, R_i the x-components
    of L scaled to unit t-component."""
    dim = inp.beta.chart.dim
    f = inp.beta.coeff((0,))
    # the chart is already foliated: dx-components of beta must vanish
    if np.any(np.abs(inp.beta.coeff_array(points)[:, 1:]) > LEAFWISE_TOL):
        raise GermBuildError(
            "defining form has a leafwise component; chart is not "
            "adapted to the foliation")
    Lt = inp.line_field.components[0]
    Rs = [inp.line_field.components[i] / Lt for i in range(1, dim)]
    return f, Rs


def build_nonsingular_germ(inp: FoliatedInput) -> GermForm:
    """alpha = (f + sum R_i y_i) dt - sum y_i dx_i on the doubled chart.

    The input is validated at 25 seeded points of [-0.9, 0.9]^(n+1)."""
    n = inp.n
    points = np.random.default_rng(0).uniform(-0.9, 0.9, (25, n + 1))
    inp.validate(points)
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


def build_singular_germ(bundle: bd.FlatDiskBundle,
                        beta: fm.DiffForm) -> GermForm:
    """alpha = dz + beta - sum y_j ds_j, for holonomy-invariant fiber forms.

    Supported bundles are those whose invariant extension of beta is beta
    itself in the given trivialization (trivial and rotation holonomy); the
    CCL conditions (bd.ccl_check at its tolerance) are checked first and
    failures refuse the build.

    The germ is memoized on the bundle per form object, like bd.ccl_check's
    report; a build that raises memoizes nothing, so every later build on
    the pair raises too.
    """
    memo = bundle._germs
    if id(beta) not in memo:
        memo[id(beta)] = beta, _build_singular_germ(bundle, beta)
    return memo[id(beta)][1]


def _build_singular_germ(bundle: bd.FlatDiskBundle,
                         beta: fm.DiffForm) -> GermForm:
    n = bundle.base_dim + 1
    report = bd.ccl_check(bundle, beta)
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
        if np.any(np.abs(ld.coeff_array(probe)) > 1e-8):
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


def top_form(alpha: fm.DiffForm, n: int) -> fm.DiffForm:
    """alpha ^ (d alpha)^n."""
    return fm.wedge(alpha, fm.wedge_power(fm.exterior_d(alpha), n))


def _sign_verdict(vals: np.ndarray) -> tuple[float, int]:
    """min |vals|, and the sign all of vals share: 0 if they have none or
    are zero."""
    signs = set(np.sign(vals).ravel().astype(int).tolist())
    return float(np.min(np.abs(vals))), signs.pop() if len(signs) == 1 else 0


def contactness_scan(g: GermForm, points: Sequence[Sequence[float]],
                     threshold: float = 1e-10) -> dict:
    """Min |top form| on the canonical frame and a sign-consistency flag."""
    min_abs, sign = _sign_verdict(g.top.coeff_array(points)[:, 0])
    return {
        "min_abs": min_abs,
        "sign": sign,
        "sign_consistent": sign != 0,
        "passed": sign != 0 and min_abs > threshold,
        "samples": len(points),
    }


def scan_points(g: GermForm, rng: np.random.Generator,
                count: int) -> np.ndarray:
    """Random points, the zero-section coordinates within SCAN_FIBER_RADIUS."""
    pts = rng.uniform(-SCAN_BOX, SCAN_BOX, (count, g.chart.dim))
    for v in g.zero_section_vars:
        i = g.chart.index(v)
        pts[:, i] = rng.uniform(-SCAN_FIBER_RADIUS, SCAN_FIBER_RADIUS, count)
    return pts


def zero_section_foliation_check(g: GermForm, expected: fm.DiffForm,
                                 points: Sequence[Sequence[float]],
                                 tol: float = 1e-10) -> dict:
    """Restriction of alpha to the zero section against the expected form.

    Checks coefficientwise agreement, kernel agreement at nonsingular samples
    and (for singular builds) that the restricted form vanishes exactly on
    the expected singular set.
    """
    restricted = g.restricted
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
    kernel_ok = kernel_ok and bool(np.all(sl.same_kernels(
        covec[~singular], exp_covec[~singular], 1e-8)))
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
    restricted = g.restricted
    base = restricted.chart
    d = fm.exterior_d(restricted)
    i0, i1 = base.index(g.fiber_pair[0]), base.index(g.fiber_pair[1])
    val = g.orientation * fm.form_matrices(d, [point])[0, i0, i1]
    return 1 if val > 0 else -1 if val < 0 else 0


def pencil_values(g0: GermForm, g1: GermForm,
                  points: Sequence[Sequence[float]]) -> np.ndarray:
    """The top form of (1-t) alpha_0 + t alpha_1 at each t of PENCIL_T.

    The pencil is built and compiled once, on the germ chart extended by a
    coordinate tau, as the top form's coefficient on the germ coordinates;
    no term with d tau reaches it.  It is evaluated on N rows per t, which
    keeps the generated function's temporaries N rows long.  Returns
    (len(PENCIL_T), N).
    """
    chart = g0.chart
    ext = Chart(chart.var_names + ("tau",), chart.periods + (None,))
    tau = coordinate(ext, "tau")

    def lift(alpha: fm.DiffForm) -> fm.DiffForm:
        return fm.DiffForm(ext, 1, {idx: c.on_chart(ext)
                                    for idx, c in alpha.coeffs.items()})

    pencil = lift(g0.alpha).scale(1 - tau) + lift(g1.alpha).scale(tau)
    coeff = top_form(pencil, g0.n).coeff(tuple(range(chart.dim)))
    fn, pts = coeff.compile(), np.asarray(points, dtype=float)
    return np.array([fn(np.column_stack([pts, np.full(len(pts), t)]))
                     for t in PENCIL_T])


def interpolation_contactness(g0: GermForm, g1: GermForm,
                              expected: fm.DiffForm,
                              points: Sequence[Sequence[float]],
                              tol: float = 1e-10) -> dict:
    """Contactness of (1-t) alpha_0 + t alpha_1 at each t of PENCIL_T.

    Both inputs must restrict to the expected zero-section form; for singular
    builds the co-orientation signs at the singular set must match, otherwise
    the pencil is refused.
    """
    if g0.chart != g1.chart or g0.n != g1.n:
        raise ValueError("germs live on different charts")
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
        origin = np.zeros(g0.restricted.chart.dim)
        s0 = coorientation_sign(g0, origin)
        s1 = coorientation_sign(g1, origin)
        if s0 != s1 or s0 == 0:
            return {"refused": True,
                    "reason": "co-orientation mismatch at the singular set",
                    "signs": (s0, s1)}
    min_abs, sign = _sign_verdict(pencil_values(g0, g1, points))
    return {
        "refused": False,
        "min_abs": min_abs,
        "sign_consistent": sign != 0,
        "passed": sign != 0 and min_abs > tol,
    }


def volume_identity_residual(g: GermForm, f: ExprField,
                             points: Sequence[Sequence[float]]) -> float:
    """Max |alpha ^ (d alpha)^n - n! f vol| over samples (nonsingular build).

    Both sides are evaluated on the frame (x1, y1, ..., xn, yn, t), the
    orientation in which the canonical volume is +1.
    """
    n = g.n
    total = g.chart
    top = g.top
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
