"""Exterior calculus on coordinate charts.

A DiffForm stores sparse ExprField coefficients keyed by strictly increasing
multi-indices. The convention is determinant-based without a 1/k! factor:
omega(v_1, ..., v_k) sums coeff_I times the determinant of the I-rows of the
vectors, so the standard volume normalization comes out as n! on the
canonical frame.

Forms are built symbolically (d, wedge); restrictions to a graph or to a
zero section are built in closed form where they are needed (coiso, germ).
A 1-form and its d are evaluated together on arrays (jet); contractions with
vector fields are taken on arrays of values and first partials
(lie_coeffs).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fields import (
    Chart,
    ChartMismatch,
    Const,
    Expr,
    ExprField,
    add,
    as_field,
    compile_exprs,
    mul,
)

MultiIndex = tuple[int, ...]


def _merge_sign(a: MultiIndex, b: MultiIndex) -> tuple[int, MultiIndex]:
    """Sign and sorted index of dx_a ^ dx_b; (0, ()) when a and b overlap."""
    inv = 0  # the inversions between the two sorted halves
    for x in a:
        for y in b:
            if x == y:
                return 0, ()
            inv += x > y
    return (-1) ** inv, tuple(sorted(a + b))


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

    def coeff_array(self, points) -> np.ndarray:
        """Coefficients at N points through the compiled batch path.

        Returns (N, C(dim, degree)): one column per multi-index in
        lexicographic order, zero where the form has no coefficient.
        """
        idxs = itertools.combinations(range(self.chart.dim), self.degree)
        exprs = tuple(self.coeff(idx).expr for idx in idxs)
        return compile_exprs(self.chart, exprs).batch(points)

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


def one_form(chart: Chart, coeffs: Mapping[str, ExprField | Expr | float]
             ) -> DiffForm:
    return DiffForm(chart, 1, {(chart.index(name),): as_field(chart, c)
                               for name, c in coeffs.items()})


def wedge(omega: DiffForm, tau: DiffForm) -> DiffForm:
    """Graded-antisymmetric product under the determinant convention."""
    if omega.chart != tau.chart:
        raise ChartMismatch("wedge operands on different charts")
    deg = omega.degree + tau.degree
    if deg > omega.chart.dim:
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
            sign, nidx = _merge_sign((j,), idx)
            if sign == 0:
                continue
            term = mul(Const(float(sign)), dc)
            out[nidx] = add(out[nidx], term) if nidx in out else term
    return DiffForm(chart, omega.degree + 1,
                    {i: ExprField(chart, e) for i, e in out.items()})


def jet(omega: DiffForm, points) -> tuple[np.ndarray, np.ndarray]:
    """A 1-form's coefficients and the matrix of its d at N points.

    Returns the coefficients (N, dim) and W (N, dim, dim), W[p, i, j] =
    d omega(e_i, e_j) at points[p]: the coefficient of dx_i ^ dx_j above the
    diagonal and its negative below.  One compiled batch evaluates the
    coefficients, then the coefficients of exterior_d(omega).
    """
    if omega.degree != 1:
        raise ValueError("jet needs a 1-form")
    dim = omega.chart.dim
    d = exterior_d(omega)
    vals = compile_exprs(omega.chart, tuple(
        omega.coeff((i,)).expr for i in range(dim)) + tuple(
        c.expr for c in d.coeffs.values())).batch(points)
    W = np.zeros((len(vals), dim, dim))
    for col, (i, j) in enumerate(d.coeffs, dim):
        W[:, i, j] = vals[:, col]
        W[:, j, i] = -vals[:, col]
    return vals[:, :dim], W


def lie_coeffs(V: np.ndarray, JV: np.ndarray, w: np.ndarray,
               Jw: np.ndarray) -> np.ndarray:
    """Coefficients of L_V w for m vector fields and a 1-form at N points.

    From the fields' values V (N, m, dim) and Jacobians JV (N, m, dim, dim)
    and the form's coefficients w (N, dim) and Jacobian Jw (N, dim, dim),
    J[..., i, j] the partial of component i in coordinate j:
    (L_V w)_i = V^j d_j w_i + w_j d_i V^j, as (N, m, dim).
    """
    return V @ Jw.transpose(0, 2, 1) + (w[:, None, None, :] @ JV)[:, :, 0]
