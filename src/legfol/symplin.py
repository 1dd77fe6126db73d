"""Pointwise symplectic and contact linear algebra.

Subspaces are given by explicit bases; equality and containment are rank tests
on row-normalized stacked bases. Null spaces come from SVD, which is
deterministic for a fixed input ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import null_space

from . import forms as _forms
from .fields import Chart

TOL = 1e-9


class NotContact(ValueError):
    """The form fails the contact condition at the requested point."""


def _normalize_rows(A: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(A, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return A / norms


def stacked_rank(A: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Rank of each matrix in an (N, r, c) stack, with one batched SVD.

    Rows are normalized first, and singular values count above
    tol * max(r, c).
    """
    A = np.asarray(A, dtype=float)
    if A.shape[1] * A.shape[2] == 0:
        return np.zeros(len(A), dtype=int)
    s = np.linalg.svd(_normalize_rows(A), compute_uv=False)
    return np.sum(s > tol * max(A.shape[1:]), axis=-1)


def _rank(A: np.ndarray, tol: float = TOL) -> int:
    return int(stacked_rank(A[None], tol)[0])


def numeric_rank(M: np.ndarray, tol: float) -> np.ndarray:
    """Rank of a matrix, or of each matrix in an (N, r, c) stack.

    Singular values count above tol * max(1, largest |entry| of that
    matrix).
    """
    M = np.asarray(M, dtype=float)
    scale = np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1)))
    s = np.linalg.svd(M, compute_uv=False)
    return np.sum(s > tol * scale[..., None], axis=-1)


def hyperplane_bases(covecs: np.ndarray) -> np.ndarray:
    """Kernel bases of N nonzero covectors on R^dim: (N, dim - 1, dim).

    Block i holds the last dim - 1 rows of vh from a full SVD of the
    1 x dim matrix covecs[i], which is what
    scipy.linalg.null_space(covecs[i][None], rcond).T returns for any
    rcond < 1.  One batched SVD serves all N.
    """
    C = np.asarray(covecs, dtype=float)
    _, _, vh = np.linalg.svd(C[:, None, :], full_matrices=True)
    return vh[:, 1:, :]


def stacked_equals(A: np.ndarray, B: np.ndarray,
                   tol: float = TOL) -> np.ndarray:
    """span(A[i]).equals(span(B[i]), tol) for two (N, m, dim) basis stacks.

    Like span(), raises ValueError when some basis is linearly dependent.
    """
    for basis in (A, B):
        if np.any(stacked_rank(basis) != basis.shape[1]):
            raise ValueError("basis vectors are linearly dependent")
    return stacked_rank(np.concatenate([A, B], axis=1), tol) == A.shape[1]


@dataclass(frozen=True)
class LinSubspace:
    """A linear subspace of R^ambient_dim given by an independent basis."""

    ambient_dim: int
    basis: np.ndarray  # shape (dim, ambient_dim), rows are basis vectors

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if B.size == 0:
            B = B.reshape(0, self.ambient_dim)
        if B.shape[1] != self.ambient_dim:
            raise ValueError("basis vectors have wrong length")
        if B.shape[0] and _rank(B) != B.shape[0]:
            raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains(self, other: "LinSubspace", tol: float = TOL) -> bool:
        if other.dim == 0:
            return True
        stacked = np.vstack([self.basis, other.basis])
        return _rank(stacked, tol) == self.dim

    def equals(self, other: "LinSubspace", tol: float = TOL) -> bool:
        return self.dim == other.dim and self.contains(other, tol)

    def intersect(self, other: "LinSubspace") -> "LinSubspace":
        if self.dim == 0 or other.dim == 0:
            return LinSubspace(self.ambient_dim,
                               np.zeros((0, self.ambient_dim)))
        # col(A^T) cap col(B^T): solve A^T u = B^T v
        M = np.hstack([self.basis.T, -other.basis.T])
        N = null_space(M, rcond=TOL)
        if N.size == 0:
            return LinSubspace(self.ambient_dim,
                               np.zeros((0, self.ambient_dim)))
        vecs = (self.basis.T @ N[: self.dim]).T
        # re-extract an independent basis
        q, r = np.linalg.qr(vecs.T)
        keep = [i for i in range(r.shape[0])
                if i < r.shape[1] and abs(r[i, i]) > TOL]
        return LinSubspace(self.ambient_dim, q[:, keep].T)


def span(vectors: Sequence[Sequence[float]], ambient_dim: int | None = None
         ) -> LinSubspace:
    A = np.atleast_2d(np.asarray(vectors, dtype=float))
    if ambient_dim is None:
        ambient_dim = A.shape[1]
    return LinSubspace(ambient_dim, A)


@dataclass(frozen=True)
class SympForm:
    """A nondegenerate antisymmetric bilinear form on R^{2n}."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("matrix must be square")
        if M.shape[0] % 2 != 0:
            raise ValueError("ambient dimension must be even")
        if np.max(np.abs(M + M.T)) > TOL * (1.0 + np.max(np.abs(M))):
            raise ValueError("matrix must be antisymmetric")
        scale = np.max(np.abs(M))
        if scale == 0 or abs(np.linalg.det(M / scale)) < TOL:
            raise ValueError("form is degenerate")
        object.__setattr__(self, "matrix", M)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    def pair(self, u: Sequence[float], v: Sequence[float]) -> float:
        return float(np.asarray(u) @ self.matrix @ np.asarray(v))


def standard_symplectic(n: int) -> SympForm:
    """Block form on R^{2n} with coordinates (x1..xn, y1..yn)."""
    M = np.zeros((2 * n, 2 * n))
    for i in range(n):
        M[i, n + i] = 1.0
        M[n + i, i] = -1.0
    return SympForm(M)


def symp_complement(W: LinSubspace, omega: SympForm) -> LinSubspace:
    """W^perp = {v : omega(v, w) = 0 for all w in W}."""
    if W.ambient_dim != omega.ambient_dim:
        raise ValueError("subspace not inside the form's ambient space")
    if W.dim == 0:
        return LinSubspace(W.ambient_dim, np.eye(W.ambient_dim))
    # rows of constraints: (M w)^T v = -w^T M v = 0  (same kernel either sign)
    C = W.basis @ omega.matrix
    N = null_space(C, rcond=TOL)
    return LinSubspace(W.ambient_dim, N.T)


def classify_subspace(W: LinSubspace, omega: SympForm) -> dict:
    """Classify W as isotropic / coisotropic / Lagrangian / symplectic / generic."""
    perp = symp_complement(W, omega)
    isotropic = perp.contains(W)
    coisotropic = W.contains(perp)
    lagrangian = isotropic and coisotropic
    inter = W.intersect(perp)
    symplectic = inter.dim == 0
    if lagrangian:
        kind = "lagrangian"
    elif isotropic:
        kind = "isotropic"
    elif coisotropic:
        kind = "coisotropic"
    elif symplectic:
        kind = "symplectic"
    else:
        kind = "generic"
    return {
        "kind": kind,
        "isotropic": isotropic,
        "coisotropic": coisotropic,
        "lagrangian": lagrangian,
        "symplectic": symplectic,
        "dim": W.dim,
        "complement_dim": perp.dim,
    }


def contact_hyperplane(alpha: "_forms.DiffForm", point: Sequence[float]
                       ) -> tuple[LinSubspace, SympForm]:
    """Kernel of a contact 1-form at a point and the restricted two-form.

    Returns a basis of ker(alpha_p) and the matrix of (d alpha)_p in it.
    """
    if alpha.degree != 1:
        raise ValueError("contact_hyperplane needs a 1-form")
    chart = alpha.chart
    covec = np.zeros(chart.dim)
    for (i,), c in alpha.coeffs.items():
        covec[i] = c.eval(point)
    if np.linalg.norm(covec) < TOL:
        raise NotContact("form vanishes at the point")
    N = null_space(covec.reshape(1, -1), rcond=TOL)
    xi = LinSubspace(chart.dim, N.T)
    dalpha = _forms.exterior_d(alpha)
    m = xi.dim
    M = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            M[i, j] = dalpha.evaluate(point, [xi.basis[i], xi.basis[j]])
            M[j, i] = -M[i, j]
    try:
        form = SympForm(M)
    except ValueError:
        raise NotContact("form is not contact at the point") from None
    return xi, form


def coords_in_basis(basis: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Coordinates of row-vectors in the span of basis rows (least squares)."""
    sol, *_ = np.linalg.lstsq(basis.T, np.atleast_2d(vectors).T, rcond=None)
    return sol.T


def dual_completion(e_basis: Sequence[Sequence[float]],
                    complement: LinSubspace,
                    omega: SympForm) -> np.ndarray:
    """Vectors f_i in the complement with omega(e_i, f_j) = delta_ij.

    The e-basis must span a Lagrangian subspace and the complement must be
    transverse of matching dimension; the result is the unique such basis.
    """
    E = np.atleast_2d(np.asarray(e_basis, dtype=float))
    n = E.shape[0]
    We = span(E, omega.ambient_dim)
    cls = classify_subspace(We, omega)
    if not cls["lagrangian"]:
        raise ValueError("e-basis does not span a Lagrangian subspace")
    if complement.dim != n:
        raise ValueError("complement has wrong dimension")
    if We.intersect(complement).dim != 0:
        raise ValueError("complement not transverse to span(e)")
    C = complement.basis  # n x ambient
    # P[i, m] = omega(e_i, c_m); solve P A = I, f_j = sum_m A[m, j] c_m
    P = E @ omega.matrix @ C.T
    if abs(np.linalg.det(P)) < TOL * max(1.0, np.max(np.abs(P)) ** n):
        raise ValueError("pairing between e-basis and complement is degenerate")
    A = np.linalg.solve(P, np.eye(n))
    return (C.T @ A).T  # rows are f_1..f_n
