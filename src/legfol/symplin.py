"""Pointwise symplectic and contact linear algebra.

Subspaces are given by explicit bases; equality and containment are rank tests
on row-normalized stacked bases. Ranks and null spaces come from SVD,
deterministic for a fixed input ordering; a covector's kernel basis has a
closed form, one Householder reflector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forms as _forms

TOL = 1e-9


class NotContact(ValueError):
    """The form fails the contact condition at the requested point."""


def stacked_rank(A: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Rank of each matrix in an (N, r, c) stack, with one batched SVD.

    Rows are normalized first, and singular values count above
    tol * max(r, c).
    """
    A = np.asarray(A, dtype=float)
    if A.shape[1] * A.shape[2] == 0:
        return np.zeros(len(A), dtype=int)
    norms = np.linalg.norm(A, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    s = np.linalg.svd(A / norms, compute_uv=False)
    return np.sum(s > tol * max(A.shape[1:]), axis=-1)


def _rank(A: np.ndarray, tol: float = TOL) -> int:
    return int(stacked_rank(A[None], tol)[0])


def numeric_rank(M: np.ndarray, tol: float) -> np.ndarray:
    """Rank of a matrix, or of each matrix in an (N, r, c) stack.

    One batched SVD; singular values count above tol * max(1, largest
    |entry| of that matrix).
    """
    M = np.asarray(M, dtype=float)
    scale = np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1)))
    s = np.linalg.svd(M, compute_uv=False)
    return np.sum(s > tol * scale[..., None], axis=-1)


def null_space(A: np.ndarray, rcond: float) -> np.ndarray:
    """Orthonormal kernel basis of A, as columns, from a full SVD.

    A singular value counts as nonzero when it is above rcond times the
    largest one; the basis is the remaining rows of vh, transposed.
    """
    # These are the semantics of scipy.linalg.null_space.
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    num = int(np.sum(s > rcond * np.max(s, initial=0.0)))
    return vh[num:].T


def hyperplane_bases(covecs: np.ndarray) -> np.ndarray:
    """Orthonormal kernel bases of N covectors on R^dim: (N, dim - 1, dim).

    Block i is rows 1..dim-1 of the Householder reflector I - v v^T / (1 +
    |u_0|), where u = covecs[i] / |covecs[i]| and v = u + sign(u_0) e_0, sign
    +1 at u_0 = +-0, so |v|^2 = 2 (1 + |u_0|) (Golub & Van Loan, 5.1).  A
    zero or non-finite covector has no hyperplane and raises ValueError.
    """
    C = np.asarray(covecs, dtype=float)
    length = np.hypot.reduce(C, axis=1, keepdims=True)
    if not np.all((length > 0) & (length < np.inf)):
        raise ValueError("hyperplane_bases needs nonzero finite covectors")
    u = C / length
    v = u + np.eye(C.shape[1])[0] * np.where(u[:, :1] < 0, -1.0, 1.0)
    w = u[:, 1:] / (1.0 + np.abs(u[:, :1]))
    return np.eye(C.shape[1])[1:] - w[:, :, None] * v[:, None, :]


def same_kernels(c0: np.ndarray, c1: np.ndarray,
                 tol: float = TOL) -> np.ndarray:
    """Rows i where the covectors c0[i] and c1[i] on R^dim share a kernel.

    Unit covectors u0, u1 share a kernel when |u0 - sign(u0.u1) u1| is at
    most tol * sqrt(2) * (2 dim - 2).  That distance is sqrt(2) times the
    smallest nonzero singular value of any orthonormal kernel bases, stacked,
    so this is the rank test LinSubspace.equals makes on them.  Lengths come
    from hypot, which does not overflow where squares would; a zero row
    gives NaN and never shares a kernel.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        u0 = c0 / np.hypot.reduce(c0, axis=1, keepdims=True)
        u1 = c1 / np.hypot.reduce(c1, axis=1, keepdims=True)
        sign = np.sign(np.sum(u0 * u1, axis=1, keepdims=True))
        gap = np.linalg.norm(u0 - sign * u1, axis=1)
    return gap <= tol * np.sqrt(2) * (2 * c0.shape[1] - 2)


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
    covec = alpha.coeff_array([point])
    if np.linalg.norm(covec) < TOL:
        raise NotContact("form vanishes at the point")
    xi = LinSubspace(alpha.chart.dim, null_space(covec, rcond=TOL).T)
    W = _forms.form_matrices(_forms.exterior_d(alpha), [point])[0]
    M = xi.basis @ W @ xi.basis.T
    try:
        form = SympForm(M)
    except ValueError:
        raise NotContact("form is not contact at the point") from None
    return xi, form


def coords_in_basis(basis: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Coordinates of row-vectors in the span of basis rows (least squares)."""
    sol, *_ = np.linalg.lstsq(basis.T, np.atleast_2d(vectors).T, rcond=None)
    return sol.T

