"""Exterior calculus on coordinate charts.

A DiffForm stores sparse ExprField coefficients keyed by strictly increasing
multi-indices. The convention is determinant-based without a 1/k! factor:
omega(v_1, ..., v_k) sums coeff_I times the determinant of the I-rows of the
vectors, so the standard volume normalization comes out as n! on the
canonical frame.

Forms are built from their coefficients (one_form, +); restrictions to a
graph or to a zero section are built in closed form where they are needed
(coiso, germ).  A 1-form's d has one definition (d_coeffs).  The top
coefficient of alpha ^ (d alpha)^n is one bordered-Pfaffian expression
(top_coeff), so no k-form algebra is built; wedge products and the d of
k-forms are the oracle in tests/oracles.py.  A 1-form and its d are
evaluated together on arrays (jet); contractions with vector fields are
taken on arrays of values and first partials (lie_coeffs).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

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
    sub,
)

MultiIndex = tuple[int, ...]


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


def one_form(chart: Chart, coeffs: Mapping[str, ExprField | Expr | float]
             ) -> DiffForm:
    return DiffForm(chart, 1, {(chart.index(name),): as_field(chart, c)
                               for name, c in coeffs.items()})


def d_coeffs(coeffs: Sequence[Expr], names: Sequence[str]
             ) -> dict[tuple[int, int], Expr]:
    """d of the 1-form sum_i coeffs[i] dx_i, with x_i = names[i]: its
    nonzero coefficients d_i a_j - d_j a_i of dx_i ^ dx_j, keyed (i, j) with
    i < j.  The coefficients may read variables other than names, which are
    held fixed."""
    out = {}
    for i, j in itertools.combinations(range(len(names)), 2):
        e = sub(coeffs[j].diff(names[i]), coeffs[i].diff(names[j]))
        if not (isinstance(e, Const) and e.value == 0.0):
            out[i, j] = e
    return out


def top_coeff(coeffs: Sequence[Expr], names: Sequence[str]) -> Expr:
    """The one coefficient of alpha ^ (d alpha)^n for the 1-form alpha =
    sum_i coeffs[i] dx_i on the 2n + 1 coordinates names.

    It is n! Pf(B) for the bordered skew matrix B = [[0, a], [-a^T, W]],
    a the coefficient row and W the matrix of d alpha (Wimmer, ACM TOMS 38
    (2012), arXiv:1102.3440).  The Pfaffian is expanded along the first
    row of each minor, and each minor's Pfaffian, keyed by its remaining
    rows, is built once; zero entries of B add no term.
    """
    upper = {(0, i + 1): c for i, c in enumerate(coeffs)
             if not (isinstance(c, Const) and c.value == 0.0)}
    upper.update({(i + 1, j + 1): e
                  for (i, j), e in d_coeffs(coeffs, names).items()})

    @functools.cache
    def pfaffian(rows: tuple[int, ...]) -> Expr:
        if not rows:
            return Const(1.0)
        first, rest = rows[0], rows[1:]
        acc = Const(0.0)
        for p, j in enumerate(rest):
            if (first, j) in upper:
                term = mul(upper[first, j],
                           pfaffian(rest[:p] + rest[p + 1:]))
                acc = sub(acc, term) if p % 2 else add(acc, term)
        return acc

    return mul(Const(float(math.factorial(len(names) // 2))),
               pfaffian(tuple(range(len(names) + 1))))


def jet(omega: DiffForm, points) -> tuple[np.ndarray, np.ndarray]:
    """A 1-form's coefficients and the matrix of its d at N points.

    Returns the coefficients (N, dim) and W (N, dim, dim), W[p, i, j] =
    d omega(e_i, e_j) at points[p]: the coefficient of dx_i ^ dx_j above the
    diagonal and its negative below.  One compiled batch evaluates the
    coefficients, then those of d omega (d_coeffs).
    """
    if omega.degree != 1:
        raise ValueError("jet needs a 1-form")
    dim = omega.chart.dim
    coeffs = tuple(omega.coeff((i,)).expr for i in range(dim))
    d = d_coeffs(coeffs, omega.chart.var_names)
    vals = compile_exprs(omega.chart, coeffs + tuple(d.values())
                         ).batch(points)
    W = np.zeros((len(vals), dim, dim))
    for col, (i, j) in enumerate(d, dim):
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
