"""Oracles that the paths of legfol are compared with: periodic reduction
of a point, finite differences for derivatives, the Jacobian for
pushforwards, the determinant convention for forms on vectors, a 2-form's
coefficients placed in a skew matrix, the standard symplectic form for the
linear algebra, the SVD count for ranks, a full SVD and one Householder
reflector for hyperplane kernel bases, the principal minors for the
integrability residual, and five symbolic engines that the package's arrays
and closed forms are held to: the exterior algebra of sparse forms (wedge,
wedge powers and d, which build the top form alpha ^ (d alpha)^n that
forms.top_coeff's Pfaffian is held to), the Cartan calculus (directional
derivative, bracket, pushforward, interior product and Lie derivative as
expression trees), a graph's commuting frame with its identities, the
residual equations of a coisotropic graph, and smooth maps with the
pullback of forms through them, which builds the restricted forms of a
graph (embedding) and of a germ's zero section (zero_section_map) the
general way."""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from legfol import coiso as co
from legfol import forms as fm
from legfol.fields import (
    Chart,
    ChartMismatch,
    Const,
    Expr,
    ExprField,
    Var,
    VectorFieldExpr,
    add,
    as_field,
    compile_exprs,
    mul,
    sub,
    vector_field,
)
from legfol.symplin import SympForm


# ---------------------------------------------------------------------------
# The exterior algebra of sparse symbolic forms: a second engine for the top
# coefficient (forms.top_coeff) and the d of a 1-form (forms.d_coeffs)
# ---------------------------------------------------------------------------


def _merge_sign(a, b):
    """Sign and sorted index of dx_a ^ dx_b; (0, ()) when a and b overlap."""
    inv = 0  # the inversions between the two sorted halves
    for x in a:
        for y in b:
            if x == y:
                return 0, ()
            inv += x > y
    return (-1) ** inv, tuple(sorted(a + b))


def zero_form(chart, degree: int):
    return fm.DiffForm(chart, degree, {})


def function_form(f):
    return fm.DiffForm(f.chart, 0, {(): f})


def scale(omega, factor):
    """factor * omega, for a number or an Expr factor."""
    fe = factor if isinstance(factor, Expr) else Const(float(factor))
    return fm.DiffForm(omega.chart, omega.degree, {
        i: mul(fe, c) for i, c in omega.coeffs.items()})


def difference(omega, tau):
    return omega + scale(tau, -1.0)


def wedge(omega, tau):
    """Graded-antisymmetric product under the determinant convention."""
    if omega.chart != tau.chart:
        raise ChartMismatch("wedge operands on different charts")
    deg = omega.degree + tau.degree
    if deg > omega.chart.dim:
        raise ValueError(
            f"wedge degree {deg} exceeds chart dim {omega.chart.dim}")
    out = {}
    for ia, ca in omega.coeffs.items():
        for ib, cb in tau.coeffs.items():
            sign, idx = _merge_sign(ia, ib)
            if sign == 0:
                continue
            term = mul(Const(float(sign)), mul(ca, cb))
            out[idx] = add(out[idx], term) if idx in out else term
    return fm.DiffForm(omega.chart, deg, out)


def wedge_power(omega, k: int):
    """omega ^ ... ^ omega (k factors); k = 0 gives the constant 1."""
    if k == 0:
        return fm.DiffForm(omega.chart, 0, {(): 1.0})
    acc = omega
    for _ in range(k - 1):
        acc = wedge(acc, omega)
    return acc


def exterior_d(omega):
    """Coefficientwise symbolic differentiation with alternating signs."""
    chart = omega.chart
    if omega.degree >= chart.dim:
        if omega.degree == chart.dim:
            return zero_form(chart, chart.dim)  # top forms are closed
        raise ValueError("degree out of range")
    out = {}
    for idx, c in omega.coeffs.items():
        for j, name in enumerate(chart.var_names):
            dc = c.diff(name)
            if isinstance(dc, Const) and dc.value == 0.0:
                continue
            sign, nidx = _merge_sign((j,), idx)
            if sign == 0:
                continue
            term = mul(Const(float(sign)), dc)
            out[nidx] = add(out[nidx], term) if nidx in out else term
    return fm.DiffForm(chart, omega.degree + 1, out)


def top_form(alpha, n: int):
    """alpha ^ (d alpha)^n by wedge powers."""
    return wedge(alpha, wedge_power(exterior_d(alpha), n))


def values(fields, points) -> np.ndarray:
    """Fields on one chart at N points, (N, len(fields)), in one batch."""
    exprs = tuple(f.expr for f in fields)
    return compile_exprs(fields[0].chart, exprs).batch(points)


def reduce_point(chart, point) -> np.ndarray:
    """A point with each periodic coordinate of the chart reduced modulo
    its period, one coordinate at a time; a point of the wrong length is a
    ValueError."""
    out = np.array(point, dtype=float)
    if out.shape != (chart.dim,):
        raise ValueError(f"point has shape {out.shape}, chart dim is "
                         f"{chart.dim}")
    for i, per in enumerate(chart.periods):
        if per is not None:
            out[i] = out[i] % per
    return out


def fd_partial(field, points, var: str, step: float = 1e-5) -> np.ndarray:
    """Central-difference partial derivative at N points, independent of the
    symbolic path."""
    if step <= 0:
        raise ValueError("step must be positive")
    offset = step * np.eye(field.chart.dim)[field.chart.index(var)]
    f, pts = field.compile(), np.asarray(points, dtype=float)
    return (f(pts + offset) - f(pts - offset)) / (2.0 * step)


def pushforward(map_, V, points) -> np.ndarray:
    """Jacobian of the map applied to V at N source points, (N, target dim)."""
    if V.chart != map_.source:
        raise ChartMismatch("vector field not on the map's source chart")
    J = values([f for row in map_.jacobian_fields for f in row], points)
    return np.einsum("pij,pj->pi", J.reshape(len(J), map_.target.dim, -1),
                     values(V.components, points))


def form_values(omega, points, vectors) -> np.ndarray:
    """omega at N points on k vectors each, (N,): the sum over multi-indices
    I of coeff_I times the determinant of the vectors' I-coordinates.
    vectors is (N, k, dim), or (k, dim) for the same vectors everywhere."""
    V = np.broadcast_to(np.asarray(vectors, dtype=float),
                        (len(points), omega.degree, omega.chart.dim))
    idxs = itertools.combinations(range(omega.chart.dim), omega.degree)
    return sum(c * np.linalg.det(V[:, :, list(idx)])
               for c, idx in zip(omega.coeff_array(points).T, idxs))


def form_matrices(omega, points) -> np.ndarray:
    """Matrices of a 2-form on the coordinate vectors at N points, (N, dim,
    dim): M[p, i, j] = omega(e_i, e_j), the coefficient of dx_i ^ dx_j above
    the diagonal and its negative below, evaluated in one batch."""
    if omega.degree != 2:
        raise ValueError("form_matrices needs a 2-form")
    dim = omega.chart.dim
    vals = compile_exprs(omega.chart, tuple(omega.coeffs.values())
                         ).batch(points)
    M = np.zeros((len(vals), dim, dim))
    for col, (i, j) in enumerate(omega.coeffs):
        M[:, i, j] = vals[:, col]
        M[:, j, i] = -vals[:, col]
    return M


def standard_symplectic(n: int) -> SympForm:
    """Block form on R^{2n} with coordinates (x1..xn, y1..yn)."""
    M = np.zeros((2 * n, 2 * n))
    for i in range(n):
        M[i, n + i] = 1.0
        M[n + i, i] = -1.0
    return SympForm(M)


def svd_hyperplane_bases(covecs: np.ndarray) -> np.ndarray:
    """Kernel bases of N nonzero covectors on R^dim, (N, dim - 1, dim): the
    last dim - 1 rows of vh from a full SVD of each 1 x dim matrix, which is
    what scipy's null_space(covecs[i][None], rcond).T returns for any
    rcond < 1."""
    C = np.asarray(covecs, dtype=float)
    return np.linalg.svd(C[:, None, :], full_matrices=True)[2][:, 1:]


def hyperplane_bases(covecs: np.ndarray) -> np.ndarray:
    """Orthonormal kernel bases of N covectors on R^dim: (N, dim - 1, dim).

    Block i is rows 1..dim-1 of the Householder reflector I - v v^T / (1 +
    |u_0|), where u = covecs[i] / |covecs[i]| and v = u + sign(u_0) e_0, sign
    +1 at u_0 = +-0, so |v|^2 = 2 (1 + |u_0|) (Golub & Van Loan, 5.1).  A
    zero or non-finite covector has no hyperplane and raises ValueError.
    char_foliation_form's S is P W P^T for these bases P.
    """
    C = np.asarray(covecs, dtype=float)
    length = np.hypot.reduce(C, axis=1, keepdims=True)
    if not np.all((length > 0) & (length < np.inf)):
        raise ValueError("hyperplane_bases needs nonzero finite covectors")
    u = C / length
    v = u + np.eye(C.shape[1])[0] * np.where(u[:, :1] < 0, -1.0, 1.0)
    w = u[:, 1:] / (1.0 + np.abs(u[:, :1]))
    return np.eye(C.shape[1])[1:] - w[:, :, None] * v[:, None, :]


def svd_count(M, tol: float):
    """Singular values above tol * max(1, largest |entry|) of a matrix, or
    of each matrix in an (N, r, c) stack: the rank symplin.skew_rank
    returns."""
    M = np.asarray(M, dtype=float)
    scale = np.maximum(1.0, np.max(np.abs(M), axis=(-2, -1), initial=0.0))
    s = np.linalg.svd(M, compute_uv=False)
    return np.sum(s > tol * scale[..., None], axis=-1)


# ---------------------------------------------------------------------------
# The symbolic Cartan calculus: a second engine for the array contractions
# ---------------------------------------------------------------------------


def apply(V, f: Expr) -> Expr:
    """Directional derivative V(f) of an expression on V's chart,
    symbolically."""
    V.chart.require(f)
    acc = Const(0.0)
    for name, comp in zip(V.chart.var_names, V.components):
        acc = add(acc, mul(comp.expr, f.diff(name)))
    return acc


def lie_bracket(V, W) -> VectorFieldExpr:
    """[V, W] = (V . grad) W - (W . grad) V, computed symbolically."""
    if V.chart != W.chart:
        raise ChartMismatch("bracket operands on different charts")
    return vector_field(V.chart, [
        sub(apply(V, wi.expr), apply(W, vi.expr))
        for wi, vi in zip(W.components, V.components)])


def pushforward_field(map_, V) -> tuple:
    """Symbolic pushforward of V along the map: one source-chart ExprField
    per target coordinate, meaningful pointwise along the image."""
    if V.chart != map_.source:
        raise ChartMismatch("vector field not on the map's source chart")
    comps = []
    for row in map_.jacobian_fields:
        acc = Const(0.0)
        for entry, v in zip(row, V.components):
            acc = add(acc, mul(entry.expr, v.expr))
        comps.append(ExprField(map_.source, acc))
    return tuple(comps)


def interior(V, omega):
    """Contraction in the first slot: (i_V w)(u...) = w(V, u...)."""
    if V.chart != omega.chart:
        raise ChartMismatch("interior product operands on different charts")
    if omega.degree < 1:
        raise ValueError("interior product needs degree >= 1")
    out = {}
    for idx, c in omega.coeffs.items():
        for pos, i in enumerate(idx):
            rest = idx[:pos] + idx[pos + 1:]
            term = mul(Const(float((-1) ** pos)),
                       mul(V.components[i].expr, c))
            out[rest] = add(out[rest], term) if rest in out else term
    return fm.DiffForm(omega.chart, omega.degree - 1, out)


def lie_derivative(V, omega):
    """Cartan's formula: L_V w = d(i_V w) + i_V(dw)."""
    if V.chart != omega.chart:
        raise ChartMismatch("Lie derivative operands on different charts")
    if omega.degree == 0:
        return fm.DiffForm(V.chart, 0, {(): apply(V, omega.coeff(()))})
    term1 = exterior_d(interior(V, omega))
    if omega.degree == omega.chart.dim:
        return term1
    return term1 + interior(V, exterior_d(omega))


# ---------------------------------------------------------------------------
# The commuting frame of a graph and its identities as expression trees: a
# second engine for coiso.frame_residuals and claim
# ---------------------------------------------------------------------------


def build_Vk(Y) -> list[VectorFieldExpr]:
    """The n-1 commuting fields on the source chart of a k = n + 1 graph
    with free y_n: d/dx_a - (dy_a/dy_n) d/dx_n + (dy_a/dx_n) d/dy_n."""
    if Y.k != Y.n + 1 or Y.free_y != (Y.n,):
        raise ValueError("the frame needs the k = n + 1 graph with free y_n")
    n = Y.n
    src = Y.source_chart
    xn, yn = f"x{n}", f"y{n}"
    tilde = []
    for a in range(1, n):
        ya = Y.components[f"y{a}"].expr
        comps = [0.0] * src.dim
        comps[src.index(f"x{a}")] = 1.0
        comps[src.index(xn)] = sub(Const(0.0), ya.diff(yn))
        comps[src.index(yn)] = ya.diff(xn)
        tilde.append(vector_field(src, comps))
    return tilde


def frame_identities(Y, points) -> dict:
    """The arrays of coiso.frame_residuals from the symbolic engines, at N
    points, samples last: the frame of build_Vk; alpha (coiso.standard_alpha)
    at the image of each point on the pushforward of each field through the
    embedding; i_V d lambda and L_V lambda on lambda's form and its
    exterior_d; the brackets, and their pushforwards through the embedding.
    """
    tilde = build_Vk(Y)
    lam = Y.lambda_form
    dlam = exterior_d(lam)
    emb = embedding(Y)
    alpha = co.standard_alpha(Y.n)
    src, N = Y.source_chart, len(points)

    def stack(rows, width):
        """Source-chart expressions in rows of width, at the points: (rows,
        width, N)."""
        flat = tuple(e for row in rows for e in row)
        if not flat:
            return np.zeros((len(rows), width, N))
        return compile_exprs(src, flat).batch(points).T.reshape(
            len(rows), width, N)

    def exprs(fields):
        return [f.expr for f in fields]

    def alpha_on(V):
        acc = Const(0.0)
        for (i,), c in alpha.coeffs.items():
            acc = add(acc, mul(emb.compose_field(c),
                               pushforward_field(emb, V)[i].expr))
        return [acc]

    brackets = [lie_bracket(F, G)
                for F, G in itertools.combinations(tilde, 2)]
    k = src.dim
    return {
        "frame": stack([exprs(V.components) for V in tilde], k),
        "i_V_alpha": stack([alpha_on(V) for V in tilde], 1)[:, 0],
        "i_V_dlambda": stack([[interior(V, dlam).coeff((j,))
                               for j in range(k)] for V in tilde], k),
        "lie_lambda": stack([[lie_derivative(V, lam).coeff((j,))
                              for j in range(k)] for V in tilde], k),
        "bracket": stack([exprs(B.components) for B in brackets], k),
        "ambient_bracket": stack([exprs(pushforward_field(emb, B))
                                  for B in brackets], Y.ambient.dim),
    }


def principal_minor_residual(S: np.ndarray, m: int) -> np.ndarray:
    """m! |Pf| = m! sqrt(det), the largest over the principal 2m-minors of
    each skew matrix in an (N, d, d) stack, (N,): |(d lambda)^m| at its
    largest on 2m of the basis vectors of ker lambda, the integrability
    residual that char_foliation_form's pivot product is held to."""
    minors = np.array(list(itertools.combinations(range(S.shape[1]), 2 * m)))
    dets = np.linalg.det(S[:, minors[:, :, None], minors[:, None, :]])
    return math.factorial(m) * np.sqrt(np.max(dets, axis=1, initial=0.0))


# ---------------------------------------------------------------------------
# The residual equations as expression trees: a second engine for
# coiso.residual_values
# ---------------------------------------------------------------------------


def residual_fields(Y) -> dict:
    """The foliation-residual equations of a k = n + 1 graph with free
    fiber coordinate y_n, as expressions on its source chart.

    Keys: "eq_abc" (triples), "eq_abn", "eq_abyn" (pairs), "eq_a" (singles)
    and "lambda_ab" (the commutator identity), each mapping index tuples to
    Exprs, built from the partials of the graph components.
    """
    n = Y.n
    yn_name = f"y{n}"
    y = {a: Y.components[f"y{a}"].expr for a in range(1, n)}
    z = Y.components["z"].expr
    zx = {a: z.diff(f"x{a}") for a in range(1, n + 1)}
    zyn = z.diff(yn_name)
    yx = {(a, b): y[a].diff(f"x{b}")
          for a in range(1, n) for b in range(1, n + 1)}
    yyn = {a: y[a].diff(yn_name) for a in range(1, n)}
    zxn = sub(zx[n], Var(yn_name))  # dz/dx_n - y_n

    def A(a):  # dz/dx_a - y_a
        return sub(zx[a], y[a])

    def skew(a, b):  # dy_a/dx_b - dy_b/dx_a
        return sub(yx[(a, b)], yx[(b, a)])

    out = {"eq_abc": {}, "eq_abn": {}, "eq_abyn": {}, "eq_a": {},
           "lambda_ab": {}}
    rng = range(1, n)
    for a, b, c in itertools.combinations(rng, 3):
        out["eq_abc"][(a, b, c)] = add(sub(
            mul(A(a), skew(b, c)), mul(A(b), skew(a, c))),
            mul(A(c), skew(a, b)))
    for a, b in itertools.combinations(rng, 2):
        out["eq_abn"][(a, b)] = add(sub(
            mul(A(a), yx[(b, n)]), mul(A(b), yx[(a, n)])),
            mul(zxn, skew(a, b)))
        out["eq_abyn"][(a, b)] = add(sub(
            mul(A(a), yyn[b]), mul(A(b), yyn[a])), mul(zyn, skew(a, b)))
        out["lambda_ab"][(a, b)] = sub(add(sub(
            mul(yyn[a], yx[(b, n)]), mul(yyn[b], yx[(a, n)])),
            yx[(a, b)]), yx[(b, a)])
    for a in rng:
        out["eq_a"][a] = sub(add(sub(zx[a], mul(zxn, yyn[a])),
                                 mul(zyn, yx[(a, n)])), y[a])
    return out


# ---------------------------------------------------------------------------
# Smooth maps and the pullback of forms: a second engine for the restricted
# forms that coiso and germ build in closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothMapExpr:
    """A smooth map between charts, one source-chart ExprField per target
    coordinate."""

    source: Chart
    target: Chart
    components: tuple[ExprField, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise ValueError("component count must equal target dim")
        for c in self.components:
            if c.chart != self.source:
                raise ChartMismatch("map component on wrong chart")

    @functools.cached_property
    def jacobian_fields(self) -> tuple[tuple[ExprField, ...], ...]:
        """d(target_i)/d(source_j) at [i][j], as fields on the source chart."""
        return tuple(tuple(c.diff(v) for v in self.source.var_names)
                     for c in self.components)

    def compose_field(self, f: Expr) -> Expr:
        """Pull a target-chart expression back through the map,
        symbolically, to one on the source chart."""
        self.target.require(f)
        return f.subs({name: comp.expr for name, comp
                       in zip(self.target.var_names, self.components)})


def pullback(phi: SmoothMapExpr, omega):
    """phi^* omega on the source chart, symbolically: the sum over omega's
    coefficients c_I of (c_I o phi) d(phi_i1) ^ ... ^ d(phi_ik)."""
    if omega.chart != phi.target:
        raise ChartMismatch("form not on the map's target chart")
    src = phi.source
    if omega.degree > src.dim:
        return zero_form(src, src.dim)
    dphi = [fm.DiffForm(src, 1, {(j,): f for j, f in enumerate(row)})
            for row in phi.jacobian_fields]
    out = zero_form(src, omega.degree)
    for idx, c in omega.coeffs.items():
        term = fm.DiffForm(src, 0, {(): 1.0})
        for i in idx:
            term = wedge(term, dphi[i])
        out = out + scale(term, phi.compose_field(c))
    return out


def embedding(Y) -> SmoothMapExpr:
    """A graph's inclusion into its ambient chart."""
    src = Y.source_chart
    return SmoothMapExpr(src, Y.ambient, tuple(
        ExprField(src, e) for e in Y.embedding))


def zero_section_map(g) -> SmoothMapExpr:
    """A germ's zero section as the inclusion of the base coordinates into
    its chart."""
    total = g.chart
    src = Chart(tuple(v for v in total.var_names
                      if v not in g.zero_section_vars))
    return SmoothMapExpr(src, total, tuple(
        as_field(src, 0.0 if v in g.zero_section_vars else Var(v))
        for v in total.var_names))
