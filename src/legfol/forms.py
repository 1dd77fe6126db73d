"""Exterior calculus on coordinate charts.

A DiffForm stores sparse ExprField coefficients keyed by strictly increasing
multi-indices. The evaluation convention is determinant-based without a 1/k!
factor, so the standard volume normalization comes out as n! on the canonical
frame.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .fields import (
    Chart,
    ChartMismatch,
    Const,
    Expr,
    ExprField,
    SmoothMapExpr,
    VectorFieldExpr,
    add,
    compile_exprs,
    mul,
    sub,
)

MultiIndex = tuple[int, ...]


def _merge_sign(a: MultiIndex, b: MultiIndex) -> tuple[int, MultiIndex]:
    """Sign and sorted index of concatenating two increasing multi-indices.

    Returns (0, ()) when they share an index.
    """
    if set(a) & set(b):
        return 0, ()
    merged = a + b
    # count inversions between the two sorted halves
    inv = 0
    for x in a:
        for y in b:
            if x > y:
                inv += 1
    return (-1) ** inv, tuple(sorted(merged))


def _insert_sign(i: int, idx: MultiIndex) -> tuple[int, MultiIndex]:
    """Sign and index for dx_i ^ dx_idx. Zero sign if i already present."""
    if i in idx:
        return 0, ()
    pos = sum(1 for j in idx if j < i)
    return (-1) ** pos, tuple(sorted(idx + (i,)))


@dataclass(frozen=True)
class DiffForm:
    """A degree-k differential form with sparse expression coefficients."""

    chart: Chart
    degree: int
    coeffs: Mapping[MultiIndex, ExprField] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.degree <= self.chart.dim:
            raise ValueError(
                f"degree {self.degree} out of range for dim {self.chart.dim}")
        clean: dict[MultiIndex, ExprField] = {}
        for idx, c in self.coeffs.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise ValueError(f"multi-index {idx} has wrong length")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"multi-index {idx} not strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= self.chart.dim):
                raise ValueError(f"multi-index {idx} outside chart")
            if c.chart != self.chart:
                raise ChartMismatch("coefficient on wrong chart")
            if not (isinstance(c.expr, Const) and c.expr.value == 0.0):
                clean[idx] = c
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, idx: MultiIndex) -> ExprField:
        return self.coeffs.get(tuple(idx), ExprField(self.chart, Const(0.0)))

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, point: Sequence[float],
                 vectors: Sequence[Sequence[float]]) -> float:
        """Sum over indices of coeff(point) * det of the index-rows of vectors."""
        vecs = [np.asarray(v, dtype=float) for v in vectors]
        if len(vecs) != self.degree:
            raise ValueError(
                f"need {self.degree} vectors, got {len(vecs)}")
        if self.degree == 0:
            return self.coeff(()).eval(point)
        V = np.column_stack(vecs)  # dim x k
        total = 0.0
        for idx, c in self.coeffs.items():
            minor = V[list(idx), :]
            total += c.eval(point) * np.linalg.det(minor)
        return total

    def coeff_array(self, points) -> np.ndarray:
        """Coefficients at N points through the compiled batch path.

        Returns (N, C(dim, degree)): one column per multi-index in
        lexicographic order, zero where the form has no coefficient.
        """
        idxs = itertools.combinations(range(self.chart.dim), self.degree)
        exprs = tuple(self.coeff(idx).expr for idx in idxs)
        return compile_exprs(self.chart, exprs).batch(points)

    def coeff_values(self, point: Sequence[float]) -> dict[MultiIndex, float]:
        return {idx: c.eval(point) for idx, c in self.coeffs.items()}

    def max_coeff(self, point: Sequence[float]) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(v) for v in self.coeff_values(point).values())

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if self.chart != other.chart:
            raise ChartMismatch("forms on different charts")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out: dict[MultiIndex, Expr] = {}
        for idx in set(self.coeffs) | set(other.coeffs):
            out[idx] = add(self.coeff(idx).expr, other.coeff(idx).expr)
        return DiffForm(self.chart, self.degree,
                        {i: ExprField(self.chart, e) for i, e in out.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + other.scale(-1.0)

    def scale(self, factor: float | Expr | ExprField) -> "DiffForm":
        if isinstance(factor, ExprField):
            fe = factor.expr
        elif isinstance(factor, Expr):
            fe = factor
        else:
            fe = Const(float(factor))
        return DiffForm(
            self.chart, self.degree,
            {i: ExprField(self.chart, mul(fe, c.expr))
             for i, c in self.coeffs.items()})


def zero_form(chart: Chart, degree: int) -> DiffForm:
    return DiffForm(chart, degree, {})


def function_form(f: ExprField) -> DiffForm:
    return DiffForm(f.chart, 0, {(): f})


def d_coordinate(chart: Chart, name: str) -> DiffForm:
    i = chart.index(name)
    return DiffForm(chart, 1, {(i,): ExprField(chart, Const(1.0))})


def one_form(chart: Chart, coeffs: Mapping[str, ExprField | Expr | float]
             ) -> DiffForm:
    out = {}
    for name, c in coeffs.items():
        i = chart.index(name)
        if isinstance(c, ExprField):
            cf = c.on_chart(chart)
        elif isinstance(c, Expr):
            cf = ExprField(chart, c)
        else:
            cf = ExprField(chart, Const(float(c)))
        out[(i,)] = cf
    return DiffForm(chart, 1, out)


def wedge(omega: DiffForm, tau: DiffForm, allow_overflow: bool = False
          ) -> DiffForm:
    """Graded-antisymmetric product under the determinant convention."""
    if omega.chart != tau.chart:
        raise ChartMismatch("wedge operands on different charts")
    deg = omega.degree + tau.degree
    if deg > omega.chart.dim:
        if allow_overflow:
            return zero_form(omega.chart, omega.chart.dim)
        raise ValueError(
            f"wedge degree {deg} exceeds chart dim {omega.chart.dim}")
    out: dict[MultiIndex, Expr] = {}
    for ia, ca in omega.coeffs.items():
        for ib, cb in tau.coeffs.items():
            sign, idx = _merge_sign(ia, ib)
            if sign == 0:
                continue
            term = mul(Const(float(sign)), mul(ca.expr, cb.expr))
            out[idx] = add(out[idx], term) if idx in out else term
    return DiffForm(omega.chart, deg,
                    {i: ExprField(omega.chart, e) for i, e in out.items()})


def wedge_power(omega: DiffForm, k: int) -> DiffForm:
    """omega ^ ... ^ omega (k factors); k = 0 gives the constant 1."""
    if k == 0:
        return function_form(ExprField(omega.chart, Const(1.0)))
    acc = omega
    for _ in range(k - 1):
        acc = wedge(acc, omega)
    return acc


def exterior_d(omega: DiffForm) -> DiffForm:
    """Coefficientwise symbolic differentiation with alternating signs."""
    chart = omega.chart
    if omega.degree >= chart.dim:
        if omega.degree == chart.dim:
            return zero_form(chart, chart.dim)  # top forms are closed
        raise ValueError("degree out of range")
    out: dict[MultiIndex, Expr] = {}
    for idx, c in omega.coeffs.items():
        for j, name in enumerate(chart.var_names):
            dc = c.expr.diff(name)
            if isinstance(dc, Const) and dc.value == 0.0:
                continue
            sign, nidx = _insert_sign(j, idx)
            if sign == 0:
                continue
            term = mul(Const(float(sign)), dc)
            out[nidx] = add(out[nidx], term) if nidx in out else term
    return DiffForm(chart, omega.degree + 1,
                    {i: ExprField(chart, e) for i, e in out.items()})


def interior(V: VectorFieldExpr, omega: DiffForm) -> DiffForm:
    """Contraction in the first slot: (i_V w)(u...) = w(V, u...)."""
    if V.chart != omega.chart:
        raise ChartMismatch("interior product operands on different charts")
    if omega.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    out: dict[MultiIndex, Expr] = {}
    for idx, c in omega.coeffs.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            term = mul(Const(float((-1) ** pos)),
                       mul(V.components[i].expr, c.expr))
            out[rest] = add(out[rest], term) if rest in out else term
    return DiffForm(omega.chart, omega.degree - 1,
                    {i: ExprField(omega.chart, e) for i, e in out.items()})


def lie_derivative(V: VectorFieldExpr, omega: DiffForm) -> DiffForm:
    """Cartan's formula: L_V w = d(i_V w) + i_V(dw)."""
    if V.chart != omega.chart:
        raise ChartMismatch("Lie derivative operands on different charts")
    if omega.degree == 0:
        return function_form(V.apply(omega.coeff(())))
    term1 = exterior_d(interior(V, omega))
    if omega.degree == omega.chart.dim:
        return term1
    term2 = interior(V, exterior_d(omega))
    return term1 + term2


def pullback(phi: SmoothMapExpr, omega: DiffForm) -> DiffForm:
    """Assemble phi^* omega symbolically on the source chart."""
    if omega.chart != phi.target:
        raise ChartMismatch("form not on the map's target chart")
    src = phi.source
    if omega.degree > src.dim:
        return zero_form(src, src.dim)
    # d(phi_i) expanded in source coordinates, reused across coefficients
    dphi = []
    for i in range(phi.target.dim):
        row = {}
        for j in range(src.dim):
            e = phi.jacobian_entry(i, j).expr
            if not (isinstance(e, Const) and e.value == 0.0):
                row[j] = e
        dphi.append(row)
    out: dict[MultiIndex, Expr] = {}
    for idx, c in omega.coeffs.items():
        pulled_c = phi.compose_field(c).expr
        # wedge of the pulled-back coordinate differentials d(phi_{i1})^...
        terms: dict[MultiIndex, Expr] = {(): Const(1.0)}
        for i in idx:
            nxt: dict[MultiIndex, Expr] = {}
            for pidx, pexpr in terms.items():
                for j, dje in dphi[i].items():
                    sign, nidx = _insert_at_end_sign(pidx, j)
                    if sign == 0:
                        continue
                    term = mul(Const(float(sign)), mul(pexpr, dje))
                    nxt[nidx] = add(nxt[nidx], term) if nidx in nxt else term
            terms = nxt
        for pidx, pexpr in terms.items():
            term = mul(pulled_c, pexpr)
            out[pidx] = add(out[pidx], term) if pidx in out else term
    return DiffForm(src, omega.degree,
                    {i: ExprField(src, e) for i, e in out.items()})


def _insert_at_end_sign(idx: MultiIndex, j: int) -> tuple[int, MultiIndex]:
    """Sign for dx_idx ^ dx_j (appending on the right)."""
    if j in idx:
        return 0, ()
    above = sum(1 for i in idx if i > j)
    return (-1) ** above, tuple(sorted(idx + (j,)))


def contraction_matrices(omega: DiffForm, points) -> np.ndarray:
    """Matrices of i_{e_j} omega over coordinate vectors at N points.

    Returns (N, C(dim, degree - 1), dim): rows index the
    (degree-1)-multi-indices, columns the chart coordinates.  The numeric
    kernel of each matrix is ker(omega) at its point.  The coefficients are
    evaluated in one compiled batch.
    """
    chart = omega.chart
    k = omega.degree
    if k < 1:
        raise ValueError("needs degree >= 1")
    sub_indices = list(itertools.combinations(range(chart.dim), k - 1))
    row_of = {idx: r for r, idx in enumerate(sub_indices)}
    vals = compile_exprs(chart, tuple(
        c.expr for c in omega.coeffs.values())).batch(points)
    M = np.zeros((len(vals), len(sub_indices), chart.dim))
    for col, idx in enumerate(omega.coeffs):
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            M[:, row_of[rest], i] += ((-1) ** pos) * vals[:, col]
    return M


def contraction_matrix(omega: DiffForm, point: Sequence[float]) -> np.ndarray:
    """contraction_matrices at one point."""
    return contraction_matrices(omega, [point])[0]
