"""Exterior calculus on coordinate charts.

A DiffForm stores sparse interned Expr coefficients keyed by strictly
increasing multi-indices; it takes each from an ExprField on its chart, an
Expr or a number, and checks its variables against the chart once. The
convention is determinant-based without a 1/k! factor: omega(v_1, ..., v_k)
sums coeff_I times the determinant of the I-rows of the vectors, so the
standard volume normalization comes out as n! on the canonical frame.

Forms are built from their coefficients (one_form, +); restrictions to a
graph or to a zero section are built in closed form where they are needed
(coiso, germ).  A 1-form's d has one definition (d_coeffs).  The top
coefficient of alpha ^ (d alpha)^n is one bordered-Pfaffian expression
(top_coeff), so no k-form algebra is built; wedge products and the d of
k-forms are the oracle in tests/oracles.py.  A 1-form and its d are
evaluated together on arrays (jet); alpha ^ d alpha has one definition on
those arrays (frobenius), and contractions with vector fields are taken on
arrays of values and first partials, samples last (lie_coeffs).
"""

from __future__ import annotations

import functools
import itertools
import math
import types
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
    as_expr,
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
    coeffs: Mapping[MultiIndex, Expr] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.degree <= self.chart.dim:
            raise ValueError(
                f"degree {self.degree} out of range for dim {self.chart.dim}")
        clean: dict[MultiIndex, Expr] = {}
        for idx, c in self.coeffs.items():
            idx = tuple(idx)
            if len(idx) != self.degree:
                raise ValueError(f"multi-index {idx} has wrong length")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"multi-index {idx} not strictly increasing")
            if idx and (idx[0] < 0 or idx[-1] >= self.chart.dim):
                raise ValueError(f"multi-index {idx} outside chart")
            c = as_expr(self.chart, c)
            if not (isinstance(c, Const) and c.value == 0.0):
                clean[idx] = c
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, idx: MultiIndex) -> Expr:
        return self.coeffs.get(tuple(idx), Const(0.0))

    def coeff_array(self, points) -> np.ndarray:
        """Coefficients at N points through the compiled batch path.

        Returns (N, C(dim, degree)): one column per multi-index in
        lexicographic order, zero where the form has no coefficient.
        """
        idxs = itertools.combinations(range(self.chart.dim), self.degree)
        exprs = tuple(self.coeff(idx) for idx in idxs)
        return compile_exprs(self.chart, exprs).batch(points)

    def __add__(self, other: "DiffForm") -> "DiffForm":
        if self.chart != other.chart:
            raise ChartMismatch("forms on different charts")
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return DiffForm(self.chart, self.degree, {
            idx: add(self.coeff(idx), other.coeff(idx))
            for idx in set(self.coeffs) | set(other.coeffs)})


def one_form(chart: Chart, coeffs: Mapping[str, ExprField | Expr | float]
             ) -> DiffForm:
    return DiffForm(chart, 1, {(chart.index(name),): c
                               for name, c in coeffs.items()})


# The symbolic derivations below are memoized once per distinct tuple of
# interned coefficients and names, like compile_exprs; the bound keeps the
# expressions they hold alive for at most that many keys.
DERIVATION_MEMO = 256


@functools.lru_cache(maxsize=DERIVATION_MEMO)
def d_coeffs(coeffs: tuple[Expr, ...], names: tuple[str, ...]
             ) -> Mapping[tuple[int, int], Expr]:
    """d of the 1-form sum_i coeffs[i] dx_i, with x_i = names[i]: its
    nonzero coefficients d_i a_j - d_j a_i of dx_i ^ dx_j, keyed (i, j) with
    i < j, as a read-only mapping.  The coefficients may read variables
    other than names, which are held fixed."""
    out = {}
    for i, j in itertools.combinations(range(len(names)), 2):
        e = sub(coeffs[j].diff(names[i]), coeffs[i].diff(names[j]))
        if not (isinstance(e, Const) and e.value == 0.0):
            out[i, j] = e
    return types.MappingProxyType(out)


@functools.lru_cache(maxsize=DERIVATION_MEMO)
def top_coeff(coeffs: tuple[Expr, ...], names: tuple[str, ...]) -> Expr:
    """The one coefficient of alpha ^ (d alpha)^n for the 1-form alpha =
    sum_i coeffs[i] dx_i on the 2n + 1 coordinates names.

    It is n! Pf(B) for the bordered skew matrix B = [[0, a], [-a^T, W]],
    a the coefficient row and W the matrix of d alpha (Wimmer, ACM TOMS 38
    (2012), arXiv:1102.3440).
    """
    upper = {(0, i + 1): c for i, c in enumerate(coeffs)
             if not (isinstance(c, Const) and c.value == 0.0)}
    upper.update({(i + 1, j + 1): e
                  for (i, j), e in d_coeffs(coeffs, names).items()})
    return mul(Const(float(math.factorial(len(names) // 2))),
               _pfaffian(upper, len(names) + 1))


def _pfaffian(upper: Mapping[tuple[int, int], Expr], size: int) -> Expr:
    """The Pfaffian of the size x size skew matrix whose nonzero entries
    above the diagonal are upper, keyed (i, j) with i < j.  It is expanded
    along the first row of each minor, and each minor's Pfaffian, keyed by
    its remaining rows, is built once; zero entries add no term."""
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

    return pfaffian(tuple(range(size)))


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
    coeffs = tuple(omega.coeff((i,)) for i in range(dim))
    d = d_coeffs(coeffs, omega.chart.var_names)
    vals = compile_exprs(omega.chart, coeffs + tuple(d.values())
                         ).batch(points)
    W = np.zeros((len(vals), dim, dim))
    for col, (i, j) in enumerate(d, dim):
        W[:, i, j] = vals[:, col]
        W[:, j, i] = -vals[:, col]
    return vals[:, :dim], W


def frobenius(a: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The components a_i W_jk - a_j W_ik + a_k W_ij of a ^ da, (C(dim, 3),
    N) over triples i < j < k in lexicographic order, from a 1-form's
    coefficients a (dim, N) and the matrix W (dim, dim, N) of its d, samples
    last as GraphSubmanifold.lambda_jet gives them."""
    i, j, k = np.array([*itertools.combinations(range(len(a)), 3)],
                       dtype=int).reshape(-1, 3).T  # none below dim 3
    return a[i] * W[j, k] - a[j] * W[i, k] + a[k] * W[i, j]


def lie_coeffs(V: np.ndarray, JV: np.ndarray, w: np.ndarray,
               Jw: np.ndarray) -> np.ndarray:
    """Coefficients of L_V w for m vector fields and a 1-form at N points,
    samples last.

    From the fields' values V (m, dim, N) and Jacobians JV (m, dim, dim, N)
    and the form's coefficients w (dim, N) and Jacobian Jw (dim, dim, N),
    J[..., i, j, :] the partial of component i in coordinate j:
    (L_V w)_i = V^j d_j w_i + w_j d_i V^j, as (m, dim, N).
    """
    return np.einsum("ajn,ijn->ain", V, Jw) + np.einsum("jn,ajin->ain", w, JV)
