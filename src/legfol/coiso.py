"""Coisotropic graph submanifolds in the standard contact chart.

A k-dimensional graph Y lives over source coordinates (x_1..x_n plus a chosen
set of free y-coordinates); the remaining y's and z are graph components. The
restricted 1-form lambda, dz - sum y_i dx_i on Y, is built in closed form from
the components (GraphSubmanifold.lambda_form).  Its coefficients and the
matrix of its d are arrays of the components' values and first partials
(GraphSubmanifold.lambda_jet), and the residual equations of the k = n + 1
model (residual_values) are the components of lambda ^ d lambda on them
(forms.frobenius).  The commuting frame of that model and its identities
(frame_residuals) read the components' first and second partials.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import forms as fm
from . import symplin as sl
from .fields import (
    SCAN_BLOCK_ROWS,
    Chart,
    Const,
    EvaluationError,
    Expr,
    ExprField,
    RowError,
    Var,
    as_field,
    brackets,
    compile_exprs,
    max_abs,
    mul,
    partials,
    sub,
)

RANK_TOL = 1e-8


def ambient_chart(n: int) -> Chart:
    names = tuple(f"x{i}" for i in range(1, n + 1)) \
        + tuple(f"y{i}" for i in range(1, n + 1)) + ("z",)
    return Chart(names)


def standard_alpha(n: int) -> fm.DiffForm:
    """dz - sum_i y_i dx_i on the (2n+1)-chart."""
    return fm.one_form(ambient_chart(n), {"z": 1.0, **{
        f"x{i}": mul(Const(-1.0), Var(f"y{i}")) for i in range(1, n + 1)}})


@dataclass(frozen=True)
class GraphSubmanifold:
    """Y = graph of f over (x_1..x_n, free y's) inside standard contact R^{2n+1}."""

    n: int
    k: int
    free_y: tuple[int, ...]
    components: Mapping[str, ExprField]  # dependent y's and z, on source chart
    # The chart of graph_chart(n, k, free_y), from a builder that has called
    # it and passes its free_y (graph_submanifold); built here when None
    source_chart: Optional[Chart] = field(default=None, repr=False,
                                          compare=False, kw_only=True)

    def __post_init__(self):
        free, src = graph_chart(self.n, self.k, self.free_y) \
            if self.source_chart is None else (self.free_y, self.source_chart)
        object.__setattr__(self, "free_y", free)
        object.__setattr__(self, "source_chart", src)
        expected = {f"y{i}" for i in range(1, self.n + 1)
                    if i not in free} | {"z"}
        comps = dict(self.components)
        if set(comps) != expected:
            raise ValueError(
                f"components must be exactly {sorted(expected)}, "
                f"got {sorted(comps)}")
        comps = {name: c.on_chart(src) for name, c in comps.items()}
        object.__setattr__(self, "components", comps)

    @functools.cached_property
    def ambient(self) -> Chart:
        return ambient_chart(self.n)

    @functools.cached_property
    def embedding(self) -> tuple[Expr, ...]:
        """The ambient coordinates on Y, as expressions on the source chart."""
        return tuple(Var(name) if name in self.source_chart.var_names
                     else self.components[name].expr
                     for name in self.ambient.var_names)

    @functools.cached_property
    def lambda_form(self) -> fm.DiffForm:
        """dz - sum y_i dx_i on Y (_lambda_coeffs)."""
        src = self.source_chart
        return fm.DiffForm(src, 1, {(i,): e for i, e in enumerate(
            _lambda_coeffs(src.var_names, self.embedding))})

    @functools.cached_property
    def dependent(self) -> tuple[Expr, ...]:
        """The dependent y_a in index order, then z: what the graph jet
        evaluates."""
        return tuple(self.components[f"y{a}"].expr
                     for a in range(1, self.n + 1)
                     if a not in self.free_y) + (self.components["z"].expr,)

    def lambda_jet(self, points, parts: Optional[tuple] = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """lambda's coefficients (k, N) and the matrix W (k, k, N) of
        d lambda at N points, samples last, from the values and first
        partials of the dependent components: parts, fields.partials of
        self.dependent at the points, evaluated here when not given.

        d(lambda) is the pullback of sum dx_j ^ dy_j, so W = Dx^T Dy -
        Dy^T Dx with Dx and Dy the Jacobians of the embedding's x and y
        parts; Dx = [I | 0], so W = M - M^T with M[:n] = Dy and M[n:] = 0.
        No second derivative of z is read.
        """
        n, k = self.n, self.k
        dep = [a - 1 for a in range(1, n + 1) if a not in self.free_y]
        free = [f - 1 for f in self.free_y]
        vals, J = (parts or partials(
            self.source_chart, self.dependent, points))[:2]
        N = vals.shape[1]
        W = np.zeros((k, k, N))
        W[dep] = J[:-1]  # W[:n] = Dy; the i-th free y is coordinate n + i
        W[free, range(n, k)] = 1.0
        top = W[:n, :n]
        top -= top.transpose(1, 0, 2).copy()
        np.negative(W[:n, n:].transpose(1, 0, 2), out=W[n:, :n])
        coeffs = J[-1].copy()  # dz/ds, less y_j on x_j
        coeffs[dep] -= vals[:-1]
        coeffs[free] -= np.reshape(points, (N, k))[:, n:].T
        return coeffs, W


@functools.lru_cache(maxsize=fm.DERIVATION_MEMO)
def _lambda_coeffs(names: tuple[str, ...], embedding: tuple[Expr, ...]
                   ) -> tuple[Expr, ...]:
    """The coefficients of dz - sum y_i dx_i on a graph, on its source
    coordinates names, from its embedding (x's, y's, then z): dz/dx_j - y_j
    on x_j, where y_j is a component or the free coordinate itself, and
    dz/dy_f on a free y_f.  Memoized per distinct embedding."""
    n, z = len(embedding) // 2, embedding[-1]
    return tuple(sub(z.diff(v), embedding[n + i]) if i < n else z.diff(v)
                 for i, v in enumerate(names))


def graph_chart(n: int, k: int, free_y: Sequence[int] | None = None
                ) -> tuple[tuple[int, ...], Chart]:
    """The free y indices of a k-dimensional graph over n, sorted (by
    default the last k - n), and its source chart: x_1..x_n, then the free
    y's.  Raises ValueError where n, k or free_y is out of range."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not n + 1 <= k <= 2 * n:
        raise ValueError(f"k={k} outside [n+1, 2n] for n={n}")
    free = tuple(sorted(range(2 * n - k + 1, n + 1) if free_y is None
                        else free_y))
    if not len(set(free)) == len(free) == k - n or any(
            not 1 <= j <= n for j in free):
        raise ValueError("free_y must be k-n distinct indices in 1..n")
    return free, Chart(tuple(f"x{i}" for i in range(1, n + 1))
                       + tuple(f"y{j}" for j in free))


def graph_submanifold(n: int, k: int,
                      components: Mapping[str, ExprField | float] | None = None,
                      free_y: Sequence[int] | None = None,
                      source: tuple[tuple[int, ...], Chart] | None = None
                      ) -> GraphSubmanifold:
    """Build a graph; unspecified components default to zero.  source is
    graph_chart(n, k, free_y) where the caller has built it."""
    free, src = source or graph_chart(n, k, free_y)
    needed = [f"y{i}" for i in range(1, n + 1) if i not in free] + ["z"]
    given = dict(components or {})
    comps = {name: as_field(src, given.pop(name, 0.0)) for name in needed}
    if given:
        raise ValueError(f"unexpected components {sorted(given)}")
    return GraphSubmanifold(n, k, free, comps, source_chart=src)


# ---------------------------------------------------------------------------
# Singular-locus scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularScanResult:
    box: float
    step: float
    hits: np.ndarray  # (num_hits, k)
    clusters: tuple[tuple[int, ...], ...]  # index lists into hits
    dims: tuple[int, ...]
    flags: tuple[str, ...]

    @property
    def num_hits(self) -> int:
        return len(self.hits)


def _link(cells: np.ndarray) -> np.ndarray:
    """Single-linkage components of distinct integer grid cells.

    Two cells join when their offset d has d.d <= 9, that is when they lie
    at most three grid steps apart.  Returns each cell's root: the smallest
    index in its component.
    """
    cells = np.asarray(cells, dtype=np.int64)
    m, k = cells.shape
    if m < 2:
        return np.arange(m)
    # One slot per cell of the bounding box, padded by 3 on every side so
    # that no offset wraps; -1 marks an empty slot.
    rel = cells - cells.min(axis=0) + 3
    shape = rel.max(axis=0) + 4
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    flat = rel @ strides
    table = np.full(int(np.prod(shape)), -1)
    table[flat] = np.arange(m)
    # The offsets of the radius-3 ball that come after 0 in lexicographic
    # order: half of the ball, so that every pair is found once.
    offsets = np.indices((7,) * k).reshape(k, -1).T[7 ** k // 2 + 1:] - 3
    ball = offsets[np.sum(offsets * offsets, axis=1) <= 9]
    # One offset at a time keeps the temporaries as small as the hits.
    a, b = [], []
    for offset in (ball @ strides).tolist():
        partner = table[flat + offset]
        found = np.flatnonzero(partner >= 0)
        a.append(found)
        b.append(partner[found])
    a, b = np.concatenate(a), np.concatenate(b)
    parent = np.arange(m)
    while True:  # hook larger roots onto smaller ones, then pointer jumping
        pa, pb = parent[a], parent[b]
        apart = pa != pb
        if not apart.any():
            break
        a, b, pa, pb = a[apart], b[apart], pa[apart], pb[apart]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    # Every parent is at most its child, so each root is the smallest index
    # of its component.
    return parent


def _groups(labels: np.ndarray) -> list[list[int]]:
    """Indices grouped by label: groups in label order, members ascending."""
    if not len(labels):
        return []
    members = np.argsort(labels, kind="stable")
    cuts = (np.flatnonzero(np.diff(labels[members])) + 1).tolist()
    members = members.tolist()
    return [members[s:e] for s, e in zip([0, *cuts], [*cuts, len(members)])]


def _cells(flat: np.ndarray, size: int, dim: int) -> np.ndarray:
    """The cells of the grid {0..size-1}^dim at C-order flat indices, as an
    (len(flat), dim) integer array; every index is 0 when dim = 0."""
    if not dim:
        return np.zeros((len(flat), 0), dtype=np.int64)
    return np.stack(np.unravel_index(flat, (size,) * dim), axis=1)


def _raise_scan_fault(compiled, axis: np.ndarray, read: list[int],
                      flat: np.ndarray):
    """Raise batch's EvaluationError on the first SCAN_BLOCK_ROWS-row block of
    the full grid with a failing point: the first of the failing sub-grid
    block flat to fail, with each unread coordinate at axis[0]."""
    side, k = len(axis), compiled.chart.dim
    cells = np.zeros((len(flat), k), dtype=np.int64)
    cells[:, read] = _cells(flat, side, len(read))
    try:
        compiled.batch(axis[cells])
    except EvaluationError as exc:
        first = np.ravel_multi_index(cells[exc.row], (side,) * k)
        start = first - first % SCAN_BLOCK_ROWS
        compiled.batch(axis[_cells(np.arange(
            start, min(start + SCAN_BLOCK_ROWS, side ** k)), side, k)])
    raise AssertionError("a point that failed on the sub-grid passed batch")


def singular_scan(Y: GraphSubmanifold, box: float = 1.0, step: float = 0.05,
                  tol: float = 1e-6) -> SingularScanResult:
    """Grid scan for zeros of the restricted form, with PCA dimension estimates.

    A point is a hit when every coefficient of the restricted form is below
    tol * (1 + local gradient norm).  The coefficients and gradients are
    evaluated only on the sub-grid of the source coordinates they read; the
    graph's components are evaluated with them, so an undefined component
    raises.  Hits form single-linkage components: two hits are linked when
    their grid index offset d has d.d <= 9, that is when they lie at most
    three grid steps apart.  The rule is integer arithmetic, so it does not
    depend on box or step.  The full hit set is (sub-grid hits) x (the cube
    of the unread axes), and its components are the sub-grid hits'
    components times that cube, so only the sub-grid hits are clustered.
    Memory follows the hits and one block of the sub-grid, not the grid.
    """
    src = Y.source_chart
    k = src.dim
    # the restricted form's coefficients, their gradients coefficient by
    # coefficient, then the graph's components
    coeffs = tuple(Y.lambda_form.coeff((i,)) for i in range(k))
    compiled = compile_exprs(src, coeffs + tuple(
        c.diff(v) for c in coeffs for v in src.var_names) + tuple(
        c.expr for c in Y.components.values()))
    axis = np.arange(-box, box + step / 2, step)
    side = len(axis)
    read = list(compiled.reads)
    unread = [j for j in range(k) if j not in read]
    # The sub-grid of the read coordinates, in C order, in blocks of flat
    # indices; each block's columns are read off the axis by its cells, and
    # each unread coordinate gets None.
    size = side ** len(read)
    cols = [None] * k
    found = []
    with np.errstate(all="ignore"):
        for start in range(0, size, SCAN_BLOCK_ROWS):
            flat = np.arange(start, min(start + SCAN_BLOCK_ROWS, size))
            for j, idx in zip(read, _cells(flat, side, len(read)).T):
                cols[j] = axis[idx]
            try:
                out = compiled.columns(*cols)
                ok = all(np.isfinite(v).all() for v in out)
            except RowError:
                ok = False
            if not ok:
                _raise_scan_fault(compiled, axis, read, flat)
            gsq = 0.0
            for g in out[k:k + k * k]:  # field order; g * g is numpy's g ** 2
                gsq = gsq + g * g
            thresh = tol * (1.0 + np.sqrt(gsq))
            hit = np.ones(len(flat), dtype=bool)
            for v in out[:k]:
                hit &= np.abs(v) <= thresh
            found.append(flat[hit])
    sub = np.concatenate(found)
    if not len(sub):
        return SingularScanResult(box=box, step=step, hits=np.empty((0, k)),
                                  clusters=(), dims=(), flags=())
    # Every unread coordinate is constant on the outputs, so the hits are
    # (sub-grid hits) x (unread cube): full-grid flat index base + offset.
    strides = side ** np.arange(k - 1, -1, -1)
    sub_cells = _cells(sub, side, len(read))
    cube = _cells(np.arange(side ** len(unread)), side, len(unread))
    full = (sub_cells @ strides[read])[:, None] + cube @ strides[unread]
    order = np.argsort(full, axis=None)
    hits_arr = axis[_cells(full.ravel()[order], side, k)]
    # A link between two product cells links their sub-grid cells, and the
    # cube is connected, so the components are the sub-grid components times
    # the cube.  A component's smallest full index is its smallest sub-grid
    # hit's base, so root order is the order of smallest full indices.
    clusters = _groups(np.repeat(_link(sub_cells), len(cube))[order])
    dims, flags = [], []
    cutoff = (2.0 * step) ** 2
    for idx in clusters:  # the covariance of one point is 0: dimension 0
        eig = np.linalg.eigvalsh(np.cov(hits_arr[idx].T, bias=True))
        dim = int(np.sum(eig > cutoff))
        dims.append(dim)
        if dim == 2 * Y.n - Y.k:
            flags.append("generic")
        elif dim == Y.n and Y.k == Y.n + 1:
            flags.append("perturbable-legendrian")
        else:
            flags.append("other")
    return SingularScanResult(
        box=box, step=step, hits=hits_arr,
        clusters=tuple(tuple(i) for i in clusters),
        dims=tuple(dims), flags=tuple(flags))


# ---------------------------------------------------------------------------
# Residual equations for k = n + 1 graphs in the standard model
# ---------------------------------------------------------------------------


class NotStandardModel(ValueError):
    """Operation requires the k = n + 1 graph with free coordinate y_n."""


def _require_standard(Y: GraphSubmanifold):
    if Y.k != Y.n + 1:
        raise NotStandardModel(
            "residual equations require k = n + 1; use pointwise_coisotropy "
            "for other dimensions")
    if Y.free_y != (Y.n,):
        raise NotStandardModel(
            "residual equations require the free fiber coordinate y_n")


@np.errstate(all="ignore")  # a non-finite equation raises below
def residual_values(Y: GraphSubmanifold, points: Sequence[Sequence[float]],
                    parts: Optional[tuple] = None) -> dict:
    """The foliation-residual equations at N points: lambda ^ d lambda
    (forms.frobenius) on the graph's jet (lambda_jet, which reads parts when
    given), by whether a triple meets x_n and y_n: "eq_abc" (neither;
    redundant), "eq_abn", "eq_abyn" (one), "eq_a" (both); and "lambda_ab" =
    d lambda(V_a, V_b); each maps 1-based indices to (N,) arrays.
    "max_residual" is, per point, the largest |eq_abn|, |eq_abyn| and
    |eq_a|; "redundant_max" the largest |eq_abc|.  Raises EvaluationError,
    as a batch does, where an equation is not finite, and ValueError where
    the points are not an (N, n + 1) array."""
    _require_standard(Y)
    n = Y.n
    pts = np.asarray(points, dtype=float)
    a, W = Y.lambda_jet(pts, parts)
    # 1-based source coordinates: x_1..x_n, then y_n as n + 1
    frob = dict(zip(itertools.combinations(range(1, n + 2), 3),
                    fm.frobenius(a, W)))
    out = {"eq_abc": {t: v for t, v in frob.items() if t[2] < n},
           "eq_abn": {t[:2]: v for t, v in frob.items() if t[1] < n == t[2]},
           "eq_abyn": {t[:2]: v for t, v in frob.items() if t[1] < n < t[2]},
           "eq_a": {t[0]: v for t, v in frob.items() if t[1] == n},
           "lambda_ab": {(i + 1, j + 1): W[i, n] * W[j, n - 1]
                         - W[j, n] * W[i, n - 1] + W[i, j] for i, j
                         in itertools.combinations(range(n - 1), 2)}}

    def row_max(keys):
        cols = [v for key in keys for v in out[key].values()]
        return max_abs(np.reshape(cols, (len(cols), len(pts))), axis=0)

    bad = ~np.isfinite(row_max(tuple(out)))
    if bad.any():
        row = int(np.argmax(bad))
        raise EvaluationError(
            f"row {row}, point {pts[row].tolist()}: non-finite value")
    out["max_residual"] = row_max(("eq_abn", "eq_abyn", "eq_a"))
    out["redundant_max"] = row_max(("eq_abc",))
    return out


def pointwise_coisotropy(Y: GraphSubmanifold, point: Sequence[float],
                         tol: float = RANK_TOL) -> dict:
    """Classify T_pY intersected with the contact hyperplane, via linear algebra."""
    q, J = partials(  # J: (2n+1) x k x 1
        Y.source_chart, Y.embedding, [point])
    if max_abs(Y.lambda_form.coeff_array([point])) <= tol:
        return {"singular": True, "kind": "tangent to xi", "coisotropic": None}
    tangent = sl.span(J[..., 0].T, Y.ambient.dim)
    xi, omega = sl.contact_hyperplane(standard_alpha(Y.n), q[:, 0])
    W_amb = tangent.intersect(xi)
    W_coords = sl.coords_in_basis(xi.basis, W_amb.basis)
    cls = sl.classify_subspace(
        sl.LinSubspace(xi.dim, W_coords), omega)
    cls["singular"] = False
    cls["intersection_dim"] = W_amb.dim
    return cls


# ---------------------------------------------------------------------------
# The commuting vector fields and their identities
# ---------------------------------------------------------------------------


def frame_residuals(Y: GraphSubmanifold, points,
                    parts: Optional[tuple] = None) -> dict:
    """The commuting frame V_a and its identities at N points, samples
    last, from the graph's components with their first and second
    partials: parts, fields.partials of Y.dependent at order 2, evaluated
    here when not given.

    V_a = d/dx_a - (dy_a/dy_n) d/dx_n + (dy_a/dx_n) d/dy_n (a < n), so its
    components are first partials of y_a and its Jacobian JV second ones.
    lambda's coefficients a and the matrix W of d lambda come from
    lambda_jet; lambda's Jacobian d_j a_i is z_ij - d_j y_i, y_n being the
    coordinate n.  The embedding's Jacobian J_emb keeps the x's and y_n and
    maps the dependent y's and z by their partials.  Returns "frame": V
    (m, k, N); "dlambda": W (k, k, N); "i_V_alpha": alpha at the image on
    J_emb V_a, which is lambda(V_a) = V^i a_i (m, N); "i_V_dlambda":
    V^i W_ij (m, k, N); "bracket": [V_a, V_b] for a < b (fields.brackets),
    (pairs, k, N), and "ambient_bracket": J_emb [V_a, V_b]
    (pairs, 2n + 1, N); "lie_lambda": L_V lambda (forms.lie_coeffs),
    (m, k, N).
    """
    _require_standard(Y)
    n, k = Y.n, Y.k
    points = np.asarray(points, dtype=float)
    vals, J, H = parts or partials(
        Y.source_chart, Y.dependent, points, order=2)
    a, W = Y.lambda_jet(points, (vals, J))
    m, N = n - 1, vals.shape[1]
    V = np.zeros((m, k, N))
    V[range(m), range(m)] = 1.0
    V[:, n - 1] = -J[:m, n]
    V[:, n] = J[:m, n - 1]
    JV = np.zeros((m, k, k, N))
    JV[:, n - 1] = -H[:m, n]
    JV[:, n] = H[:m, n - 1]
    Ja = H[-1].copy()
    Ja[:m] -= J[:m]
    Ja[n - 1, n] -= 1.0
    bracket = brackets(V, JV)
    pushed = np.einsum("fjn,pjn->pfn", J, bracket)  # y_1..y_m, then z
    return {"frame": V, "dlambda": W,
            "i_V_alpha": np.einsum("ain,in->an", V, a),
            "i_V_dlambda": np.einsum("ain,ijn->ajn", V, W),
            "bracket": bracket,
            "ambient_bracket": np.concatenate(
                [bracket[:, :n], pushed[:, :m], bracket[:, n:],
                 pushed[:, m:]], axis=1),
            "lie_lambda": fm.lie_coeffs(V, JV, a, Ja)}


def verify_claim(Y: GraphSubmanifold, points: Sequence[Sequence[float]],
                 tol: float = 1e-8) -> dict:
    """Check the four identities satisfied by the commuting fields.

    One batch evaluates the graph's components with their first and second
    partials; the residual table and the frame's identities
    (frame_residuals, on the frame's ambient images J_emb V_a) are read off
    it.  Refuses when the residual equations fail at any sample (the
    identities are conditional on coisotropy).
    """
    _require_standard(Y)
    points = np.asarray(points, dtype=float)
    parts = partials(Y.source_chart, Y.dependent, points, order=2)
    table = residual_values(Y, points, parts)
    binding = table["max_residual"]
    bad = np.flatnonzero(binding > tol)
    if len(bad):
        return {
            "refused": True,
            "reason": "not coisotropic at sampled points",
            "diagnostics": [(points[i].tolist(), float(binding[i]))
                            for i in bad[:10]],
            "num_bad": len(bad),
        }
    frame = frame_residuals(Y, points, parts)
    res = {key: float(max_abs(v)) for key, v in (
        ("i_V_alpha", frame["i_V_alpha"]),
        ("i_V_dlambda", frame["i_V_dlambda"]),
        ("bracket", frame["ambient_bracket"]),
        ("lie_lambda", frame["lie_lambda"]),
        ("lambda_ab", np.array(list(table["lambda_ab"].values()))))}
    worst = max(res.values())
    return {**res, "refused": False, "max_residual": worst,
            "passed": worst <= tol, "tolerance": tol, "samples": len(points)}


# ---------------------------------------------------------------------------
# Characteristic foliations in all codimensions
# ---------------------------------------------------------------------------


def char_foliation_form(Y: GraphSubmanifold,
                        points: Sequence[Sequence[float]],
                        tol: float = RANK_TOL) -> dict:
    """Kernel dimension and integrability of d lambda on ker lambda.

    At a nonsingular sample, S is the matrix of d lambda on the hyperplane
    ker lambda in an orthonormal basis of it (symplin.restrict_to_kernel),
    from lambda's coefficients and the matrix of d lambda
    (GraphSubmanifold.lambda_jet).  The characteristic foliation is ker S,
    of dimension 2n-k+1 on a coisotropic Y.  With m = k - n, the
    integrability residual is the largest m! |p_1 ... p_m| over the
    samples, p the pivots of S's skew elimination (symplin.skew_rank):
    |(d lambda)^m| on the 2m basis vectors of its pivot rows, m! |Pf| of
    that principal minor.  It is 0 where rank S < 2m, which is
    (d lambda)^m = 0 on ker lambda, and 0 when 2m > k - 1.
    """
    n, k = Y.n, Y.k
    m = k - n
    a, W = Y.lambda_jet(points)  # samples last
    keep = max_abs(a, axis=0) > tol  # nonsingular samples only
    if not keep.all():
        a, W = a[:, keep], W[:, :, keep]
    S = sl.restrict_to_kernel(a, W).transpose(2, 0, 1)
    steps = m if 2 * m <= k - 1 else 0
    rank, pivots = sl.skew_rank(S, tol, steps)
    kernel_dims = (k - 1) - rank
    residual = math.factorial(m) * float(
        max_abs(np.prod(pivots, axis=0))) if steps else 0.0
    expected = 2 * n - k + 1
    return {
        "expected_kernel_dim": expected,
        "kernel_dims": kernel_dims.tolist(),
        "kernel_ok": bool(np.all(kernel_dims == expected)),
        "integrability_residual": residual,
        "samples_used": len(S),
    }


# ---------------------------------------------------------------------------
# Perturbing away a Legendrian singular component
# ---------------------------------------------------------------------------


def legendrian_model(n: int) -> GraphSubmanifold:
    """The flat graph over (x_1..x_n, y_1): restricted form -y_1 dx_1."""
    return graph_submanifold(n, n + 1, free_y=(1,))


def perturb_legendrian(Y: GraphSubmanifold,
                       bump: ExprField) -> GraphSubmanifold:
    """Replace z = 0 by z = bump(y_1), clearing the singular plane at 0.

    Requires the normal-form input (free fiber y_1, all components zero) and
    bump'(0) != 0 unless the bump is identically zero, in which case the
    graph is returned unchanged.
    """
    if Y.free_y != (1,) or Y.k != Y.n + 1:
        raise ValueError("input must be the Legendrian normal-form graph")
    for name, c in Y.components.items():
        if not (isinstance(c.expr, Const) and c.expr.value == 0.0):
            raise ValueError("input components must vanish (normal form)")
    src = Y.source_chart
    bump = bump.on_chart(src)
    if not bump.expr.variables() <= {"y1"}:
        raise ValueError("bump must depend on y1 only")
    if isinstance(bump.expr, Const) and bump.expr.value == 0.0:
        return Y
    slope = bump.diff("y1").compile()(np.zeros((1, src.dim)))[0]
    if abs(slope) < 1e-12:
        raise ValueError("perturbation does not clear singularity at 0")
    return GraphSubmanifold(Y.n, Y.k, Y.free_y, {**Y.components, "z": bump},
                            source_chart=src)


def perturbation_sup_norm(Y0: GraphSubmanifold, Y1: GraphSubmanifold,
                          points: Sequence[Sequence[float]]) -> float:
    """Max displacement between the two embeddings over sample points."""
    def image(Y):
        return compile_exprs(Y.source_chart, Y.embedding).batch(points)

    return float(max_abs(image(Y0) - image(Y1)))


# ---------------------------------------------------------------------------
# Singular-point normal data
# ---------------------------------------------------------------------------


def singular_normal_data(Y: GraphSubmanifold, point: Sequence[float],
                         tol: float = 1e-8,
                         normal_pair: Optional[tuple[str, str]] = None) -> dict:
    """Rank and kernel of the restricted two-form at a singular point.

    The orientation sign is that of the two-form on the declared normal pair
    of source coordinates (default: x_n and the last free y).
    """
    covec, W = Y.lambda_jet([point])
    if max_abs(covec) > tol:
        return {"singular": False, "tag": "not singular"}
    src = Y.source_chart
    k = src.dim
    rank = sl.skew_rank(W[:, :, 0], tol)
    if normal_pair is None:
        normal_pair = (f"x{Y.n}", f"y{Y.free_y[-1]}")
    i0, j0 = src.index(normal_pair[0]), src.index(normal_pair[1])
    val = W[i0, j0, 0]
    return {
        "singular": True,
        "rank": rank,
        "kernel_dim": k - rank,
        "normal_pair": normal_pair,
        "normal_value": float(val),
        "orientation_sign": int(np.sign(val)) if abs(val) > tol else 0,
        "generic": rank == 2 and k - rank == Y.n - 1,
    }
