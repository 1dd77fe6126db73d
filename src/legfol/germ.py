"""Germ-of-contact-structure constructions and their verification scans.

Two builders: the nonsingular one assembles (f + sum R_i y_i) dt - sum y_i dx_i
from a foliated chart with a transverse line field, and the singular one
assembles dz + beta - sum y_j ds_j from a flat disk bundle carrying a CCL fiber
1-form with closed-form invariant extension (trivial or rotation holonomy).
The contact checks read one number, the coefficient of alpha ^ (d alpha)^n,
built once per germ as n! times the Pfaffian of the bordered matrix of alpha
and d alpha (forms.top_coeff); the interpolation pencil builds it once in a
variable tau.  The nonsingular builder's input check reads beta ^ d beta
from forms.frobenius, the one definition of that 3-form.
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
    SCAN_BLOCK_ROWS,
    Chart,
    CompiledExprs,
    Const,
    EvaluationError,
    Expr,
    ExprField,
    Var,
    VectorFieldExpr,
    add,
    compile_exprs,
    constant,
    coordinate,
    max_abs,
    mul,
    partials,
    sub,
)

# scan_points draws the base coordinates from [-SCAN_BOX, SCAN_BOX] and the
# zero-section coordinates from [-SCAN_FIBER_RADIUS, SCAN_FIBER_RADIUS].
SCAN_BOX = 0.9
SCAN_FIBER_RADIUS = 0.5
PENCIL_T = tuple(i / 10 for i in range(11))
# FoliatedInput.validate: the largest Frobenius residual and the largest
# |beta| that count as zero, and the largest leafwise coefficient of beta
# that counts as zero.
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
        """Refuse where beta ^ d beta (forms.frobenius) is not zero; then at
        the first sample, in sample order, where beta vanishes or else
        beta(L) <= 0; then where beta has a leafwise component.  beta and
        d beta come from one forms.jet."""
        b, W = fm.jet(self.beta, points)
        frob = float(max_abs(fm.frobenius(b.T, W.transpose(1, 2, 0))))
        if frob > INPUT_TOL:
            raise GermBuildError(f"foliation form not integrable: {frob:g}")
        line = compile_exprs(self.beta.chart, tuple(
            c.expr for c in self.line_field.components)).batch(points)
        pairing = np.sum(b * line, axis=1)  # beta(L)
        vanishes = np.linalg.norm(b, axis=1) <= INPUT_TOL
        bad = np.flatnonzero(vanishes | (pairing <= 0))
        if len(bad) and vanishes[bad[0]]:
            raise GermBuildError("defining form vanishes at a sample")
        if len(bad):
            raise GermBuildError("line field not positively transverse")
        # the chart is already foliated: dx-components of beta must vanish
        if np.any(np.abs(b[:, 1:]) > LEAFWISE_TOL):
            raise GermBuildError(
                "defining form has a leafwise component; chart is not "
                "adapted to the foliation")


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

    def __post_init__(self):
        if self.n < 1 or self.alpha.degree != 1 \
                or self.chart.dim != 2 * self.n + 1:
            raise ValueError(f"a germ with n = {self.n} needs a 1-form on "
                             f"2n + 1 >= 3 coordinates, not a "
                             f"{self.alpha.degree}-form on {self.chart.dim}")

    @property
    def chart(self) -> Chart:
        return self.alpha.chart

    @functools.cached_property
    def restricted(self) -> fm.DiffForm:
        """alpha restricted to the zero section, built once per germ: its
        coefficients on the base coordinates, with every zero-section
        coordinate set to 0, on the chart of the base coordinates."""
        zero = {v: Const(0.0) for v in self.zero_section_vars}
        base = Chart(tuple(v for v in self.chart.var_names if v not in zero))
        return fm.one_form(base, {
            v: self.alpha.coeff((self.chart.index(v),)).expr.subs(zero)
            for v in base.var_names})

    @functools.cached_property
    def coeffs(self) -> tuple[Expr, ...]:
        """alpha's coefficients on the chart's coordinates in order."""
        return tuple(self.alpha.coeff((i,)).expr
                     for i in range(self.chart.dim))

    @functools.cached_property
    def top(self) -> ExprField:
        """The coefficient of alpha ^ (d alpha)^n on the chart's
        coordinates in order, built once per germ."""
        return ExprField(self.chart, fm.top_coeff(self.coeffs,
                                                  self.chart.var_names))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def germ_chart(n: int) -> Chart:
    return Chart(("t",) + tuple(f"x{i}" for i in range(1, n + 1))
                 + tuple(f"y{i}" for i in range(1, n + 1)))


def extract_local_data(inp: FoliatedInput
                       ) -> tuple[ExprField, list[ExprField]]:
    """(f, R_i) from (beta, L): f is the dt coefficient, R_i the x-components
    of L scaled to unit t-component.  FoliatedInput.validate checks that
    beta is f dt."""
    Lt, *Ls = inp.line_field.components
    return inp.beta.coeff((0,)), [c / Lt for c in Ls]


def build_nonsingular_germ(inp: FoliatedInput) -> GermForm:
    """alpha = (f + sum R_i y_i) dt - sum y_i dx_i on the doubled chart.

    The input is validated at 25 seeded points of [-0.9, 0.9]^(n+1)."""
    n = inp.n
    points = np.random.default_rng(0).uniform(-0.9, 0.9, (25, n + 1))
    inp.validate(points)
    f, Rs = extract_local_data(inp)
    total = germ_chart(n)
    dt_coeff = f.on_chart(total)
    for i in range(1, n + 1):
        dt_coeff = dt_coeff + Rs[i - 1].on_chart(total) * coordinate(total, f"y{i}")
    alpha = fm.one_form(total, {"t": dt_coeff})
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
    """
    n = bundle.base_dim + 1
    report = bd.ccl_check(bundle, beta)
    if not report["ok"]:
        failed = [k for k in ("vanishing", "positivity", "invariance")
                  if not report[k]["ok"]]
        raise GermBuildError(f"fiber form fails CCL conditions: {failed}")
    # invariant-extension check: L_lift beta must vanish along each lift,
    # with beta on the total chart through its fiber coordinates
    total_b = bundle.total_chart
    beta_tot = (Const(0.0),) * bundle.base_dim + tuple(
        beta.coeff((d,)).expr for d in (0, 1))
    probe = np.random.default_rng(0).uniform(-0.4, 0.4, (10, total_b.dim))
    vals, J = partials(total_b, beta_tot + bundle.lift_exprs, probe)
    # beta, then the lifts, each as (dim, N) and (dim, dim, N)
    d = total_b.dim
    vals, J = vals.reshape(-1, d, len(probe)), J.reshape(-1, d, d, len(probe))
    if np.any(np.abs(fm.lie_coeffs(vals[1:], J[1:], vals[0], J[0])) > 1e-8):
        raise GermBuildError(
            "no closed-form invariant extension in this trivialization; "
            "only trivial and rotation holonomy are supported")
    total = singular_germ_chart(n)
    iu = total.index("u")
    alpha = fm.DiffForm(total, 1, {
        (total.index("z"),): constant(total, 1.0),
        **{(iu + d,): c.on_chart(total) for (d,), c in beta.coeffs.items()},
        **{(total.index(f"s{j}"),): -coordinate(total, f"y{j}")
           for j in range(1, n)}})
    return GermForm(n=n, alpha=alpha,
                    zero_section_vars=tuple(f"y{j}" for j in range(1, n)) + ("z",),
                    kind="singular", fiber_pair=("u", "v"),
                    orientation=bundle.orientation)


# ---------------------------------------------------------------------------
# Scans and checks
# ---------------------------------------------------------------------------


def _sign_verdict(vals: np.ndarray) -> tuple[float, int]:
    """min |vals|, and the sign all of vals share: 0 if they have none or
    are zero."""
    lo, hi = np.sign([np.min(vals), np.max(vals)])
    return float(np.min(np.abs(vals))), int(lo) if lo == hi else 0


def contactness_scan(g: GermForm, points: Sequence[Sequence[float]],
                     threshold: float = 1e-10) -> dict:
    """Min |top form| on the canonical frame and a sign-consistency flag."""
    min_abs, sign = _sign_verdict(g.top.compile()(points))
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


def _section_chart(g: GermForm, expected: fm.DiffForm) -> None:
    if expected.chart != g.restricted.chart or expected.degree != 1:
        raise ValueError("expected form must be a 1-form on the section chart")


def _section_verdict(base: Chart, points: np.ndarray, covec: np.ndarray,
                     exp_covec: np.ndarray, tol: float) -> dict:
    """zero_section_foliation_check's report from the restricted form's
    coefficients covec and the expected form's exp_covec at points.  Each
    test is row by row, so on stacked rows it passes exactly when every
    part passes: interpolation_contactness relies on that."""
    resid = np.abs(covec - exp_covec)
    # sample-major, then in coordinate order
    mismatches = [{"point": points[row].tolist(),
                   "index": [base.var_names[col]],
                   "residual": float(resid[row, col])}
                  for row, col in np.argwhere(resid > tol)[:10]]
    max_resid = float(np.max(resid, initial=0.0))
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


def zero_section_foliation_check(g: GermForm, expected: fm.DiffForm,
                                 points: Sequence[Sequence[float]],
                                 tol: float = 1e-10) -> dict:
    """Restriction of alpha to the zero section against the expected form.

    Checks coefficientwise agreement, kernel agreement at nonsingular samples
    and (for singular builds) that the restricted form vanishes exactly on
    the expected singular set.
    """
    _section_chart(g, expected)
    points = np.asarray(points, dtype=float)
    return _section_verdict(g.restricted.chart, points,
                            g.restricted.coeff_array(points),
                            expected.coeff_array(points), tol)


def coorientation_signs(g0: GermForm, g1: GermForm,
                        point: Sequence[float]) -> tuple[int, int]:
    """Signs of the restricted two-forms on their oriented fiber pairs at a
    singular-section point (singular builds only): for each germ, the sign
    of orientation * W[i, j], (i, j) the fiber pair and W the matrix of the
    restricted form's d (forms.jet)."""
    if g0.fiber_pair is None or g1.fiber_pair is None:
        raise ValueError("germ has no singular fiber pair")
    signs = []
    for g in (g0, g1):
        i, j = map(g.restricted.chart.index, g.fiber_pair)
        W = fm.jet(g.restricted, [point])[1]
        signs.append(int(np.sign(g.orientation * W[0, i, j])))
    return tuple(signs)


@functools.lru_cache(maxsize=fm.DERIVATION_MEMO)
def _pencil(chart: Chart, c0: tuple[Expr, ...], c1: tuple[Expr, ...]
            ) -> CompiledExprs:
    """The top coefficient of (1 - tau) alpha_0 + tau alpha_1, alpha_0 and
    alpha_1 the 1-forms with coefficients c0 and c1 on chart, compiled on
    chart's coordinates and then tau.  The pencil's coefficients are built
    in the germ coordinates and tau, and its top coefficient is taken over
    the germ coordinates only (forms.top_coeff), so no d tau term is built.
    Memoized per germ pair, like the derivations of forms."""
    ext = Chart(chart.var_names + ("tau",), chart.periods + (None,))
    tau = Var("tau")
    coeffs = tuple(add(mul(sub(Const(1.0), tau), a), mul(tau, b))
                   for a, b in zip(c0, c1))
    return compile_exprs(ext, (fm.top_coeff(coeffs, chart.var_names),))


def pencil_values(g0: GermForm, g1: GermForm,
                  points: Sequence[Sequence[float]]) -> np.ndarray:
    """The top form of (1-t) alpha_0 + t alpha_1 at each t of PENCIL_T.

    The pencil's top coefficient is compiled once per germ pair (_pencil)
    and evaluated on the rows (t, sample), t-major, in batches of whole
    values of t: SCAN_BLOCK_ROWS // N of them, and at least one, so a batch
    holds at most max(N, SCAN_BLOCK_ROWS) rows and the generated function's
    temporaries are never longer.  A fault raises the error of the batch of
    the N rows at the first t that fails: the row among the samples and the
    point with its tau.  Returns (len(PENCIL_T), N).
    """
    pts = np.asarray(points, dtype=float)
    count = len(pts)
    compiled = _pencil(g0.chart, g0.coeffs, g1.coeffs)
    ts = np.array(PENCIL_T)
    per = max(1, SCAN_BLOCK_ROWS // max(count, 1))
    out = np.empty((len(ts), count))
    cols = np.ascontiguousarray(pts.T)
    for first in range(0, len(ts), per):
        block = ts[first:first + per]
        # built coordinate-major, which is the layout batch evaluates
        rows = np.empty((len(cols) + 1, len(block) * count))
        rows[:-1] = np.tile(cols, len(block))
        rows[-1] = np.repeat(block, count)
        try:
            out[first:first + per] = compiled.batch(rows.T)[:, 0].reshape(
                len(block), count)
        except EvaluationError as exc:
            t = block[exc.row // count]
            compiled.batch(np.column_stack([pts, np.full(count, t)]))
            raise AssertionError("a pencil row that failed passed alone")
    return out


def interpolation_contactness(g0: GermForm, g1: GermForm,
                              expected: fm.DiffForm,
                              points: Sequence[Sequence[float]],
                              tol: float = 1e-10) -> dict:
    """Contactness of (1-t) alpha_0 + t alpha_1 at each t of PENCIL_T.

    Both inputs must restrict to the expected zero-section form; for singular
    builds the co-orientation signs at the singular set must match, otherwise
    the pencil is refused.  Each form is evaluated alone, in the order the
    checks read it: g0's restricted form, the expected form, g1's.
    """
    if g0.chart != g1.chart or g0.n != g1.n:
        raise ValueError("germs live on different charts")
    base_idx = [i for i, v in enumerate(g0.chart.var_names)
                if v not in g0.zero_section_vars]
    base_points = np.asarray(points, dtype=float)[:, base_idx]
    _section_chart(g0, expected)
    c0 = g0.restricted.coeff_array(base_points)
    exp_covec = expected.coeff_array(base_points)
    _section_chart(g1, expected)
    c1 = g1.restricted.coeff_array(base_points)
    # every test of the verdict is row-wise: both germs' rows, stacked,
    # pass exactly when each germ's rows pass
    if not _section_verdict(expected.chart, np.vstack((base_points,) * 2),
                            np.vstack((c0, c1)),
                            np.vstack((exp_covec,) * 2), 1e-8)["passed"]:
        return {"refused": True,
                "reason": "zero-section foliations disagree"}
    if g0.fiber_pair is not None and g1.fiber_pair is not None:
        s0, s1 = coorientation_signs(g0, g1, np.zeros(expected.chart.dim))
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
    total = g.chart
    frame = np.eye(total.dim)[:, [total.index(v) for i in range(1, g.n + 1)
                                  for v in (f"x{i}", f"y{i}")]
                              + [total.index("t")]]
    # A top form has one coefficient; on the frame it scales by det(frame).
    lhs = g.top.compile()(points) * np.linalg.det(frame)
    rhs = math.factorial(g.n) * f.on_chart(total).compile()(points)
    return float(max_abs(lhs - rhs))
