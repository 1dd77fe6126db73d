"""Coisotropic graph submanifolds in the standard contact chart.

A k-dimensional graph Y lives over source coordinates (x_1..x_n plus a chosen
set of free y-coordinates); the remaining y's and z are graph components. The
restricted 1-form lambda, dz - sum y_i dx_i on Y, is built in closed form from
the components (GraphSubmanifold.lambda_form) and read with its d by
forms.jet; the residual equations of the k = n + 1 model are products of
arrays of the components' values and partials (residual_values).
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
# Grid rows evaluated per batch in singular_scan: bounds the memory of the
# coefficient and gradient arrays for any grid size.
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


def _cluster(cells: np.ndarray) -> list[list[int]]:
    """Single-linkage clustering of distinct integer grid cells.

    Two cells join when their offset d has d.d <= 9, that is when they lie
    at most three grid steps apart.  Groups are ordered by their smallest
    index, members ascending.
    """
    cells = np.asarray(cells, dtype=np.int64)
    m, k = cells.shape
    if m == 0:
        return []
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
    members = np.argsort(parent, kind="stable")
    cuts = (np.flatnonzero(np.diff(parent[members])) + 1).tolist()
    members = members.tolist()
    return [members[s:e] for s, e in zip([0, *cuts], [*cuts, m])]


def singular_scan(Y: GraphSubmanifold, box: float = 1.0, step: float = 0.05,
                  tol: float = 1e-6) -> SingularScanResult:
    """Grid scan for zeros of the restricted form, with PCA dimension estimates.

    A point is a hit when every coefficient of the restricted form is below
    tol * (1 + local gradient norm).  Hits form single-linkage components:
    two hits are linked when their grid index offset d has d.d <= 9, that is
    when they lie at most three grid steps apart.  The rule is integer
    arithmetic, so it does not depend on box or step.
    """
    lam = Y.lambda_form
    src = Y.source_chart
    k = src.dim
    coeff_fields = [lam.coeff((i,)) for i in range(k)]
    grad_fields = [c.diff(v) for c in coeff_fields for v in src.var_names]
    compiled = compile_exprs(
        src, tuple(f.expr for f in coeff_fields + grad_fields))
    axis = np.arange(-box, box + step / 2, step)
    # The grid as k columns, one per source coordinate, in "ij" row order.
    cols = np.empty((k,) + (len(axis),) * k)
    for j in range(k):
        cols[j] = axis.reshape((-1,) + (1,) * (k - 1 - j))
    cols = cols.reshape(k, -1)
    is_hit = np.empty(cols.shape[1], dtype=bool)
    with np.errstate(all="ignore"):
        for start in range(0, len(is_hit), SCAN_BLOCK_ROWS):
            rows = slice(start, start + SCAN_BLOCK_ROWS)
            try:
                out = compiled.columns(*cols[:, rows])
                gsq = 0.0
                for g in out[k:]:  # in field order; g * g is numpy's g ** 2
                    gsq = gsq + g * g
                thresh = tol * (1.0 + np.sqrt(gsq))
                hit, total = True, gsq
                for v in out[:k]:
                    hit = hit & (np.abs(v) <= thresh)
                    total = total + v
                is_hit[rows] = hit
                # a non-finite output makes the total non-finite; an
                # overflowing total only costs a batch call
                ok = math.isfinite(np.add.reduce(total, axis=None))
            except RowError:
                ok = False
            if not ok:  # batch raises what it says about these points, if any
                compiled.batch(cols[:, rows].T)
    hits_arr = cols.T[is_hit]
    cells = np.unravel_index(np.flatnonzero(is_hit), (len(axis),) * k)
    clusters = _cluster(np.stack(cells, axis=1))
    dims, flags = [], []
    cutoff = (2.0 * step) ** 2
    for idx in clusters:
        cloud = hits_arr[idx]
        if len(cloud) == 1:
            dim = 0
        else:
            cov = np.cov(cloud.T, bias=True)
            cov = np.atleast_2d(cov)
            eig = np.linalg.eigvalsh(cov)
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
    V = vals[:, :m * k].reshape(-1, m, k)
    JV = J[:, :m * k].reshape(-1, m, k, k)
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

    At a nonsingular sample, S = P W P^T is the matrix of d lambda on the
    hyperplane ker lambda, with P an orthonormal basis of the hyperplane and
    W[i, j] = d lambda(e_i, e_j).  The characteristic foliation is ker S,
    of dimension 2n-k+1 on a coisotropic Y.  The integrability residual is
    the largest |(d lambda)^(k-n)| on 2(k-n) basis vectors of the
    hyperplane: (k-n)! |Pf| = (k-n)! sqrt(det) of a principal minor of S.
    """
    n, k = Y.n, Y.k
    covecs, W = fm.jet(Y.lambda_form, points)
    keep = max_abs(covecs, axis=1) > tol  # nonsingular samples only
    P = sl.hyperplane_bases(covecs[keep])
    S = P @ W[keep] @ P.transpose(0, 2, 1)
    # exactly skew: a principal minor's det is then Pf^2 up to rounding
    S = (S - S.transpose(0, 2, 1)) / 2
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
