"""Pointwise symplectic and contact linear algebra.

Subspaces are given by explicit bases; equality and containment are rank tests
on row-normalized stacked bases, by SVD. Null spaces come from SVD too,
deterministic for a fixed input ordering. Ranks of 2-form matrices come from a
certified skew elimination that falls back to the SVD only where its bounds
leave the count open.  Two covectors' kernels are compared in closed form,
by the distance of the unit covectors (same_kernels), with row norms that
keep hypot's range at the cost of one sum of squares (row_norms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import forms as _forms

TOL = 1e-9
SMALLEST_NORMAL = np.finfo(float).tiny


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


def skew_rank(S: np.ndarray, tol: float, pivots: int | None = None):
    """Rank of a skew matrix, or of each matrix in an (N, m, m) skew stack.

    The rank is the SVD count: singular values above thr = tol * max(1,
    max |S|) of that matrix.  It comes from a skew elimination, certified
    matrix by matrix; only matrices the certificate leaves open go through
    one batched SVD.  The input must be exactly skew, S == -S^T.

    Elimination.  Step s takes the largest |A_ij| of the current matrix A as
    its pivot p (complete pivoting, searched over i < j: in C order the
    first largest entry of a nonzero skew matrix lies above the diagonal)
    and, if |p| > thr, applies the rank-2 Schur update A += (a_j a_i^T -
    a_i a_j^T) / p, with a_i column i: it zeroes rows and columns i and j
    and keeps A exactly skew in floating point.  A matrix whose pivot is at
    most thr stops; after m // 2 steps or a stop, r accepted pivots give the
    candidate rank 2r, and delta is the largest |entry| left (the rejected
    pivot, or 0).

    Pivots.  Given pivots = q (2q <= m), each matrix's first q pivot
    magnitudes come back after the ranks, (q, N); a matrix that stops
    early keeps eliminating for them, its rank and certificate those of
    the stop.  In exact arithmetic |p_1 ... p_q| is |Pf| of the principal
    2q-minor on the pivot rows (each step divides it by its pivot, a Schur
    complement), 0 exactly when the rank is below 2q.

    Certificate.  In exact arithmetic, permuting the pivot pairs first,
    S = L D L^T with L unit lower triangular, D = blockdiag(p_1 J, ...,
    p_r J, R), J = [[0, 1], [-1, 0]] and R the (m - 2r)-square remainder.
    The multipliers A_kj / p and A_ki / p are at most 1 in magnitude.
    - S = L diag(D_r, 0) L^T + diag(0, R), the first term of rank 2r, so
      sigma_{2r+1} <= |R|_2 <= (m - 2r) delta.
    - |(L^-1)_kl| <= 2^(k-l-1) below the diagonal, so |L^-1|_1 and
      |L^-1|_inf are at most 2^(m-1), sigma_min(L) >= 2^(1-m), and
      sigma_{2r} >= sigma_min(L)^2 sigma_{2r}(D) >= min |p| / 4^(m-1).
    Slack.  With unit roundoff u = eps / 2, step s changes each entry of
    the remainder by at most 9u |p_s| + O(u^2) beyond the exact update:
    the update is a_j u^T - u a_j^T with u = a_i / p of magnitude at most 1,
    so two products of magnitude at most |p_s|, their difference and the
    sum, of magnitudes at most 2 |p_s| and 3 |p_s|.  Carried back through the
    Schur complements, which are linear in the trailing block, the computed
    pivots and remainder are exact for S + E, |E|_2 <= 5 m eps sum |p_s|.
    LAPACK's singular values are exact for a perturbation of norm at most
    p(m) u |S|_2 <= p(m) u m max|S|, with p(m) taken to be at most 8 m.  So
    with slack = 8 m eps (sum |p_s| + m max|S|), a matrix with
    (m - 2r) delta + slack < thr and min |p| / 4^(m-1) - slack > thr has
    SVD count 2r; the others get the count from np.linalg.svd.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim == 2:
        return int(skew_rank(S[None], tol)[0])
    N, m = S.shape[:2]
    A = S.transpose(1, 2, 0).copy()  # (m, m, N), C order: loops over N
    if not np.array_equal(A, -A.transpose(1, 0, 2)):
        raise ValueError("skew_rank needs exactly skew matrices")
    cols = np.arange(N)
    rows, columns = np.nonzero(~np.tri(m, dtype=bool))  # i < j, C order
    scale, delta, thr = np.zeros(N), np.zeros(N), np.full(N, float(tol))
    accepted, stopped = np.zeros(N, dtype=int), np.zeros(N, dtype=bool)
    smallest, total = np.full(N, np.inf), np.zeros(N)
    found = np.zeros((pivots or 0, N))
    size = np.empty((len(rows), N))
    outer, update = np.empty_like(A), np.empty_like(A)
    for step in range(m // 2):
        np.take(A.reshape(m * m, N), rows * m + columns, axis=0, out=size)
        np.abs(size, out=size)
        at = np.argmax(size, axis=0)
        pivot = size[at, cols]
        if step == 0:
            scale = pivot
            thr = tol * np.maximum(1.0, scale)
        take = (pivot > thr) & ~stopped
        # a stopped matrix keeps its delta; it changes only to find pivots
        delta = np.where(stopped, delta, np.where(take, 0.0, pivot))
        stopped |= ~take
        if step < len(found):
            found[step] = pivot
        go = take | ((step + 1 < len(found)) & (pivot > 0.0))
        if not go.any():
            break
        i, j = rows[at], columns[at]
        # (a_j a_i^T - a_i a_j^T) / p as a_j u^T - u a_j^T, u = a_i / p
        u = A[:, i, cols] / np.where(go, A[i, j, cols], np.inf)
        np.multiply(A[:, j, cols][:, None], u[None], out=outer)
        np.subtract(outer, outer.transpose(1, 0, 2), out=update)
        A += update
        # rounding leaves ulps where the exact update has zeros
        for k in (i[go], j[go]):
            A[k, :, cols[go]] = 0.0
            A[:, k, cols[go]] = 0.0
        accepted += take
        smallest = np.where(take, np.minimum(smallest, pivot), smallest)
        total += np.where(take, pivot, 0.0)
    slack = 8 * m * np.finfo(float).eps * (total + m * scale)
    rank = 2 * accepted
    certified = ((m - rank) * delta + slack < thr) \
        & (smallest / 4.0 ** (m - 1) - slack > thr)
    if not certified.all():
        s = np.linalg.svd(S[~certified], compute_uv=False)
        rank[~certified] = np.sum(s > thr[~certified, None], axis=-1)
    return rank if pivots is None else (rank, found)


def null_space(A: np.ndarray, rcond: float) -> np.ndarray:
    """Orthonormal kernel basis of A, as columns, from a full SVD.

    A singular value counts as nonzero when it is above rcond times the
    largest one; the basis is the remaining rows of vh, transposed.
    """
    # These are the semantics of scipy.linalg.null_space.
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    num = int(np.sum(s > rcond * np.max(s, initial=0.0)))
    return vh[num:].T


def row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of an (N, dim) array.

    The square root of each row's sum of squares; where some sum overflows,
    underflows below the smallest normal float or is NaN, those rows take
    hypot's norm, so no row gets an infinite or a zero norm that hypot
    would not give.
    """
    sq = np.einsum("ij,ij->i", A, A)
    norms = np.sqrt(sq)
    # two reductions cost less than the mask below on small arrays
    if not (sq.min(initial=np.inf) >= SMALLEST_NORMAL
            and sq.max(initial=0.0) < np.inf):
        bad = ~((sq >= SMALLEST_NORMAL) & (sq < np.inf))
        norms[bad] = np.hypot.reduce(A[bad], axis=1)
    return norms


def restrict_to_kernel(a: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The matrix of a 2-form on the kernel of a covector, samples last.

    From N nonzero finite covectors a (k, N) and exactly skew matrices W
    (k, k, N), returns S (k - 1, k - 1, N), S = P W P^T with P the
    orthonormal kernel basis of rows 1..k-1 of the Householder reflector
    I - v v^T / (1 + |u_0|), u = a / |a|, v = u + sign(u_0) e_0 with sign
    +1 at u_0 = +-0 (Golub & Van Loan, 5.1).  P = E - w v^T, with E rows
    1..k-1 of I and w = u[1:] / (1 + |u_0|), and v^T W v = 0, so S is the
    rank-2 update S = W[1:, 1:] + (w q^T - q w^T) with q = (W v)[1:].
    Formed as D = w q^T, then D - D^T, then W[1:, 1:] added, S is exactly
    skew in floating point.
    """
    u = a / row_norms(a.T)
    v0 = u[0] + np.where(u[0] < 0, -1.0, 1.0)
    w = u[1:] / (1.0 + np.abs(u[0]))
    # q = (W v)[1:], and v[1:] = u[1:]
    q = np.einsum("ijn,jn->in", W[1:, 1:], u[1:]) + W[1:, 0] * v0
    D = w[:, None] * q[None]
    S = D - D.transpose(1, 0, 2)
    S += W[1:, 1:]
    return S


def same_kernels(c0: np.ndarray, c1: np.ndarray,
                 tol: float = TOL) -> np.ndarray:
    """Rows i where the covectors c0[i] and c1[i] on R^dim share a kernel.

    Unit covectors u0, u1 share a kernel when |u0 - sign(u0.u1) u1| is at
    most tol * sqrt(2) * (2 dim - 2).  That distance is sqrt(2) times the
    smallest nonzero singular value of any orthonormal kernel bases, stacked,
    so this is the rank test LinSubspace.equals makes on them.  Lengths come
    from row_norms, which does not overflow or underflow where squares
    would; a zero row gives NaN and never shares a kernel.
    """
    c = np.concatenate([c0, c1])  # one row_norms call: half the overhead
    with np.errstate(invalid="ignore", divide="ignore"):
        u = c / row_norms(c)[:, None]
        u0, u1 = u[:len(c0)], u[len(c0):]
        d = u0 - np.sign(np.einsum("ij,ij->i", u0, u1))[:, None] * u1
        gap = np.sqrt(np.einsum("ij,ij->i", d, d))
    return gap <= tol * math.sqrt(2) * (2 * c0.shape[1] - 2)


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
    covec, W = _forms.jet(alpha, [point])
    if np.linalg.norm(covec) < TOL:
        raise NotContact("form vanishes at the point")
    xi = LinSubspace(alpha.chart.dim, null_space(covec, rcond=TOL).T)
    M = xi.basis @ W[0] @ xi.basis.T
    try:
        form = SympForm(M)
    except ValueError:
        raise NotContact("form is not contact at the point") from None
    return xi, form


def coords_in_basis(basis: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Coordinates of row-vectors in the span of basis rows (least squares)."""
    sol, *_ = np.linalg.lstsq(basis.T, np.atleast_2d(vectors).T, rcond=None)
    return sol.T

