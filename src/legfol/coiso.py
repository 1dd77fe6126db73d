"""Coisotropic graph submanifolds in the standard contact chart.

A k-dimensional graph Y lives over source coordinates (x_1..x_n plus a chosen
set of free y-coordinates); the remaining y's and z are graph components. The
restricted 1-form lambda, dz - sum y_i dx_i on Y, is built in closed form from
the components (GraphSubmanifold.lambda_form).  Its coefficients and the
matrix of its d are arrays of the components' values and first partials
(GraphSubmanifold.lambda_jet), and so are the residual equations of the
k = n + 1 model (residual_values).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import forms as fm
from . import symplin as sl
from .fields import (
    Chart,
    Const,
    EvaluationError,
    Expr,
    ExprField,
    RowError,
    VectorFieldExpr,
    as_field,
    brackets,
    compile_exprs,
    constant,
    coordinate,
    max_abs,
    values_and_partials,
)

RANK_TOL = 1e-8
# Grid rows evaluated per block in singular_scan, on the sub-grid of the
# coordinates its outputs read: bounds the memory of the coefficient and
# gradient arrays for any grid size, also when every coordinate is read.
SCAN_BLOCK_ROWS = 4096


def ambient_chart(n: int) -> Chart:
    names = tuple(f"x{i}" for i in range(1, n + 1)) \
        + tuple(f"y{i}" for i in range(1, n + 1)) + ("z",)
    return Chart(names)


def standard_alpha(n: int) -> fm.DiffForm:
    """dz - sum_i y_i dx_i on the (2n+1)-chart."""
    ch = ambient_chart(n)
    form = fm.one_form(ch, {"z": 1.0})
    for i in range(1, n + 1):
        form = form + fm.one_form(ch, {f"x{i}": -coordinate(ch, f"y{i}")})
    return form


@dataclass(frozen=True)
class GraphSubmanifold:
    """Y = graph of f over (x_1..x_n, free y's) inside standard contact R^{2n+1}."""

    n: int
    k: int
    free_y: tuple[int, ...]
    components: Mapping[str, ExprField]  # dependent y's and z, on source chart

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.n + 1 <= self.k <= 2 * self.n:
            raise ValueError(f"k={self.k} outside [n+1, 2n] for n={self.n}")
        free = tuple(sorted(self.free_y))
        if len(free) != self.k - self.n or any(
                not 1 <= j <= self.n for j in free):
            raise ValueError("free_y must be k-n distinct indices in 1..n")
        object.__setattr__(self, "free_y", free)
        expected = {f"y{i}" for i in range(1, self.n + 1)
                    if i not in free} | {"z"}
        comps = dict(self.components)
        if set(comps) != expected:
            raise ValueError(
                f"components must be exactly {sorted(expected)}, "
                f"got {sorted(comps)}")
        src = self.source_chart
        comps = {name: c.on_chart(src) for name, c in comps.items()}
        object.__setattr__(self, "components", comps)

    @functools.cached_property
    def source_chart(self) -> Chart:
        names = tuple(f"x{i}" for i in range(1, self.n + 1)) \
            + tuple(f"y{j}" for j in self.free_y)
        return Chart(names)

    @functools.cached_property
    def ambient(self) -> Chart:
        return ambient_chart(self.n)

    @functools.cached_property
    def embedding(self) -> tuple[Expr, ...]:
        """The ambient coordinates on Y, as expressions on the source chart."""
        return tuple(coordinate(self.source_chart, name).expr
                     if name in self.source_chart.var_names
                     else self.components[name].expr
                     for name in self.ambient.var_names)

    @functools.cached_property
    def lambda_form(self) -> fm.DiffForm:
        """dz - sum y_i dx_i on Y: dz/dx_j - y_j on x_j, where y_j is a
        component or the free coordinate itself, and dz/dy_f on a free
        y_f."""
        src, z = self.source_chart, self.components["z"]
        on_y = dict(zip(self.ambient.var_names, self.embedding))
        return fm.one_form(src, {
            v: z.diff(v) - on_y[v.replace("x", "y")] if v[0] == "x"
            else z.diff(v) for v in src.var_names})

    def lambda_jet(self, points) -> tuple[np.ndarray, np.ndarray]:
        """lambda's coefficients (k, N) and the matrix W (k, k, N) of
        d lambda at N points, samples last, from one batch of the
        components and their first partials.

        d(lambda) is the pullback of sum dx_j ^ dy_j, so W = Dx^T Dy -
        Dy^T Dx with Dx and Dy the Jacobians of the embedding's x and y
        parts; Dx = [I | 0], so W = M - M^T with M[:n] = Dy and M[n:] = 0.
        No second derivative of z is built.  The batch raises as forms.jet's
        does.
        """
        n, k = self.n, self.k
        dep = [a - 1 for a in range(1, n + 1) if a not in self.free_y]
        free = [f - 1 for f in self.free_y]
        vals, J = values_and_partials(self.source_chart, tuple(
            self.components[f"y{a + 1}"].expr for a in dep) + (
            self.components["z"].expr,), points)
        N = len(vals)
        J = J.transpose(1, 2, 0)  # (components, k, N)
        W = np.zeros((k, k, N))
        W[dep] = J[:-1]  # W[:n] = Dy; the i-th free y is coordinate n + i
        W[free, range(n, k)] = 1.0
        top = W[:n, :n]
        top -= top.transpose(1, 0, 2).copy()
        np.negative(W[:n, n:].transpose(1, 0, 2), out=W[n:, :n])
        coeffs = J[-1].copy()  # dz/ds, less y_j on x_j
        coeffs[dep] -= vals[:, :-1].T
        coeffs[free] -= np.reshape(points, (N, k))[:, n:].T
        return coeffs, W


def graph_submanifold(n: int, k: int,
                      components: Mapping[str, ExprField | float] | None = None,
                      free_y: Sequence[int] | None = None) -> GraphSubmanifold:
    """Build a graph; unspecified components default to zero."""
    if free_y is None:
        free_y = tuple(range(2 * n - k + 1, n + 1))
    free = tuple(sorted(free_y))
    src_names = tuple(f"x{i}" for i in range(1, n + 1)) \
        + tuple(f"y{j}" for j in free)
    src = Chart(src_names)
    needed = [f"y{i}" for i in range(1, n + 1) if i not in free] + ["z"]
    given = dict(components or {})
    comps = {name: as_field(src, given.pop(name, 0.0)) for name in needed}
    if given:
        raise ValueError(f"unexpected components {sorted(given)}")
    return GraphSubmanifold(n, k, free, comps)


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


def _raise_scan_fault(compiled, axis: np.ndarray, k: int):
    """Raise the EvaluationError of CompiledExprs.batch for the first block of
    SCAN_BLOCK_ROWS rows of the full k-dimensional grid that holds a failing
    point, with its row counted from the block's start."""
    size = len(axis) ** k
    for start in range(0, size, SCAN_BLOCK_ROWS):
        flat = np.arange(start, min(start + SCAN_BLOCK_ROWS, size))
        compiled.batch(axis[_cells(flat, len(axis), k)])
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
    lam = Y.lambda_form
    src = Y.source_chart
    k = src.dim
    coeff_fields = [lam.coeff((i,)) for i in range(k)]
    grad_fields = [c.diff(v) for c in coeff_fields for v in src.var_names]
    exprs = tuple(f.expr for f in coeff_fields + grad_fields) + tuple(
        c.expr for c in Y.components.values())
    compiled = compile_exprs(src, exprs)
    axis = np.arange(-box, box + step / 2, step)
    side = len(axis)
    names = frozenset().union(*(e.variables() for e in exprs))
    read = [j for j, v in enumerate(src.var_names) if v in names]
    unread = [j for j in range(k) if j not in read]
    # The sub-grid of the read coordinates, in C order, in blocks of flat
    # indices; each block's columns are read off the axis by its cells.  The
    # generated code never names an unread coordinate, so it gets None.
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
                _raise_scan_fault(compiled, axis, k)
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
def residual_values(Y: GraphSubmanifold,
                    points: Sequence[Sequence[float]]) -> dict:
    """The foliation-residual equations at N points: products of the graph
    components y_a (a < n) and z and their first partials, from one batch.

    Keys: "eq_abc" (triples, redundant), "eq_abn", "eq_abyn" (pairs), "eq_a"
    (singles) and "lambda_ab" (the commutator identity), each mapping index
    tuples to (N,) arrays.  "max_residual" holds, per point, the largest
    |eq_abn|, |eq_abyn| and |eq_a|; "redundant_max" the largest |eq_abc|,
    which is excluded from max_residual, being derivable from the others.
    Raises EvaluationError, as a batch does, at the first point where an
    equation is not finite.
    """
    _require_standard(Y)
    n = Y.n
    vals, J = values_and_partials(Y.source_chart, tuple(
        Y.components[f"y{a}" if a < n else "z"].expr
        for a in range(1, n + 1)), points)
    # source coordinates x_1..x_n, y_n: column b - 1 is x_b, column n is y_n
    y = {a: vals[:, a - 1] for a in range(1, n)}
    zx = {a: J[:, n - 1, a - 1] for a in range(1, n + 1)}
    pts = np.asarray(points, dtype=float).reshape(-1, n + 1)
    zyn, yn = J[:, n - 1, n], pts[:, n]
    yx = {(a, b): J[:, a - 1, b - 1] for a in range(1, n)
          for b in range(1, n + 1)}
    yyn = {a: J[:, a - 1, n] for a in range(1, n)}

    def A(a):  # dz/dx_a - y_a
        return zx[a] - y[a]

    out = {"eq_abc": {}, "eq_abn": {}, "eq_abyn": {}, "eq_a": {},
           "lambda_ab": {}}
    rng = range(1, n)
    for a, b, c in itertools.combinations(rng, 3):
        out["eq_abc"][(a, b, c)] = (
            A(a) * (yx[(b, c)] - yx[(c, b)])
            - A(b) * (yx[(a, c)] - yx[(c, a)])
            + A(c) * (yx[(a, b)] - yx[(b, a)]))
    for a, b in itertools.combinations(rng, 2):
        out["eq_abn"][(a, b)] = (
            A(a) * yx[(b, n)] - A(b) * yx[(a, n)]
            + (zx[n] - yn) * (yx[(a, b)] - yx[(b, a)]))
        out["eq_abyn"][(a, b)] = (
            A(a) * yyn[b] - A(b) * yyn[a]
            + zyn * (yx[(a, b)] - yx[(b, a)]))
        out["lambda_ab"][(a, b)] = (
            yyn[a] * yx[(b, n)] - yyn[b] * yx[(a, n)]
            + yx[(a, b)] - yx[(b, a)])
    for a in rng:
        out["eq_a"][a] = zx[a] - (zx[n] - yn) * yyn[a] + zyn * yx[(a, n)] - y[a]

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
    q, J = values_and_partials(  # J: 1 x (2n+1) x k
        Y.source_chart, Y.embedding, [point])
    if max_abs(Y.lambda_form.coeff_array([point])) <= tol:
        return {"singular": True, "kind": "tangent to xi", "coisotropic": None}
    tangent = sl.span(J[0].T, Y.ambient.dim)
    xi, omega = sl.contact_hyperplane(standard_alpha(Y.n), q[0])
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


def build_Vk(Y: GraphSubmanifold) -> list[VectorFieldExpr]:
    """The n-1 commuting fields on the source chart:
    d/dx_a - (dy_a/dy_n) d/dx_n + (dy_a/dx_n) d/dy_n.

    Their ambient images are the pushforwards J_emb V, which the checks take
    on arrays (verify_claim).
    """
    _require_standard(Y)
    n = Y.n
    src = Y.source_chart
    xn, yn = f"x{n}", f"y{n}"
    tilde = []
    for a in range(1, n):
        ya = Y.components[f"y{a}"]
        comps = [constant(src, 0.0) for _ in range(src.dim)]
        comps[src.index(f"x{a}")] = constant(src, 1.0)
        comps[src.index(xn)] = comps[src.index(xn)] - ya.diff(yn)
        comps[src.index(yn)] = ya.diff(xn)
        tilde.append(VectorFieldExpr(src, tuple(comps)))
    return tilde


def frame_residuals(Y: GraphSubmanifold,
                    points: Sequence[Sequence[float]]) -> dict:
    """The identities of the commuting frame V_a of build_Vk at N points.

    One batch evaluates the frame's components, the coefficients of lambda
    and their first partials; the rest is array contraction, with W the
    matrix of d lambda:
    - "frame": the fields' values V (N, m, k);
    - "dlambda": W (N, k, k), W_ij = d_i lambda_j - d_j lambda_i;
    - "i_V_dlambda": (i_V d lambda)_j = V^i W_ij, (N, m, k);
    - "bracket": [V_a, V_b] for a < b (fields.brackets), (N, pairs, k);
    - "lie_lambda": L_V lambda (forms.lie_coeffs), (N, m, k).
    """
    tilde = build_Vk(Y)
    src = Y.source_chart
    k, m = src.dim, len(tilde)
    lam = Y.lambda_form
    vals, J = values_and_partials(src, tuple(
        c.expr for V in tilde for c in V.components) + tuple(
        lam.coeff((i,)).expr for i in range(k)), points)
    N = len(vals)  # the frame is empty at n = 1, so -1 cannot be inferred
    V = vals[:, :m * k].reshape(N, m, k)
    JV = J[:, :m * k].reshape(N, m, k, k)
    lam_v, lam_J = vals[:, m * k:], J[:, m * k:]
    W = lam_J.transpose(0, 2, 1) - lam_J
    return {"frame": V, "dlambda": W, "i_V_dlambda": V @ W,
            "bracket": brackets(V, JV),
            "lie_lambda": fm.lie_coeffs(V, JV, lam_v, lam_J)}


def verify_claim(Y: GraphSubmanifold, points: Sequence[Sequence[float]],
                 tol: float = 1e-8) -> dict:
    """Check the four identities satisfied by the commuting fields.

    The frame's identities come from frame_residuals.  Its ambient images
    are the pushforwards J_emb V, on which alpha is evaluated at the image
    of each sample; brackets are pushed forward the same way.  Refuses when
    the residual equations fail at any sample (the identities are
    conditional on coisotropy).
    """
    points = np.asarray(points, dtype=float)
    table = residual_values(Y, points)
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
    frame = frame_residuals(Y, points)
    image, J_emb = values_and_partials(Y.source_chart, Y.embedding, points)
    J_emb_T = J_emb.transpose(0, 2, 1)  # pushforward: J_emb V = V @ J_emb^T
    # alpha at the image on J_emb V, as (J_emb^T alpha) . V
    alpha_back = J_emb_T @ standard_alpha(Y.n).coeff_array(image)[:, :, None]
    res = {
        "i_V_alpha": float(max_abs(frame["frame"] @ alpha_back)),
        "i_V_dlambda": float(max_abs(frame["i_V_dlambda"])),
        "bracket": float(max_abs(frame["bracket"] @ J_emb_T)),
        "lie_lambda": float(max_abs(frame["lie_lambda"])),
        "lambda_ab": float(max_abs(np.array(
            list(table["lambda_ab"].values())))),
        "refused": False,
    }
    res["max_residual"] = max(
        res[k] for k in ("i_V_alpha", "i_V_dlambda", "bracket",
                         "lie_lambda", "lambda_ab"))
    res["passed"] = res["max_residual"] <= tol
    res["tolerance"] = tol
    res["samples"] = len(points)
    return res


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
    of dimension 2n-k+1 on a coisotropic Y.  The integrability residual is
    the largest |(d lambda)^(k-n)| on 2(k-n) basis vectors of the
    hyperplane: (k-n)! |Pf| = (k-n)! sqrt(det) of a principal minor of S.
    """
    n, k = Y.n, Y.k
    a, W = Y.lambda_jet(points)  # samples last
    keep = max_abs(a, axis=0) > tol  # nonsingular samples only
    if not keep.all():
        a, W = a[:, keep], W[:, :, keep]
    S = sl.restrict_to_kernel(a, W).transpose(2, 0, 1)
    kernel_dims = (k - 1) - sl.skew_rank(S, tol)
    max_residual = 0.0
    deg = 2 * (k - n)
    if len(S) and deg <= k - 1:
        minors = np.array(list(itertools.combinations(range(k - 1), deg)))
        dets = np.linalg.det(S[:, minors[:, :, None], minors[:, None, :]])
        max_residual = math.factorial(k - n) * float(
            np.sqrt(np.max(dets, initial=0.0)))
    expected = 2 * n - k + 1
    return {
        "expected_kernel_dim": expected,
        "kernel_dims": kernel_dims.tolist(),
        "kernel_ok": bool(np.all(kernel_dims == expected)),
        "integrability_residual": max_residual,
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
    allowed = {"y1"}
    if not bump.expr.variables() <= allowed:
        raise ValueError("bump must depend on y1 only")
    if isinstance(bump.expr, Const) and bump.expr.value == 0.0:
        return Y
    slope = bump.diff("y1").compile()(np.zeros((1, src.dim)))[0]
    if abs(slope) < 1e-12:
        raise ValueError("perturbation does not clear singularity at 0")
    comps = {name: constant(src, 0.0) for name in Y.components}
    comps["z"] = bump
    out = GraphSubmanifold(Y.n, Y.k, Y.free_y, comps)
    return out


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
    covec, W = fm.jet(Y.lambda_form, [point])
    if max_abs(covec) > tol:
        return {"singular": False, "tag": "not singular"}
    src = Y.source_chart
    k = src.dim
    rank = sl.skew_rank(W[0], tol)
    if normal_pair is None:
        normal_pair = (f"x{Y.n}", f"y{Y.free_y[-1]}")
    i0, j0 = src.index(normal_pair[0]), src.index(normal_pair[1])
    val = W[0, i0, j0]
    return {
        "singular": True,
        "rank": rank,
        "kernel_dim": k - rank,
        "normal_pair": normal_pair,
        "normal_value": float(val),
        "orientation_sign": int(np.sign(val)) if abs(val) > tol else 0,
        "generic": rank == 2 and k - rank == Y.n - 1,
    }
