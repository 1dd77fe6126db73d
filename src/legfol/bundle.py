"""Flat disk bundles over circle/torus bases given as periodic boxes.

The horizontal distribution is declared by one lift per base coordinate;
parallel transport integrates the lift ODE along piecewise-linear base paths
with an adaptive Runge-Kutta pair, for many fiber points at once. Holonomy
maps are sampled point clouds with finite-difference Jacobians, since fiber
diffeomorphisms have no finite description.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import coiso as co
from . import forms as fm
from . import symplin as sl
from .fields import (
    Chart,
    CompiledExprs,
    Expr,
    ExprField,
    RowError,
    VectorFieldExpr,
    brackets,
    compile_exprs,
    constant,
    coordinate,
    max_abs,
    partials,
    vector_field,
)

ODE_TOL = 1e-8  # the ODE's rtol and atol
MAX_STEPS = 10 ** 6  # accepted RK steps per row
# RK iterations between two checks of a row's pace: a row that, at the pace
# of its last window, needs more steps to end its segment than its budget
# has left has stalled
PACE_WINDOW = 1000


@dataclass(frozen=True)
class FlatDiskBundle:
    """A disk bundle over a periodic box with a declared horizontal lift."""

    base_dim: int
    periods: tuple[float, ...]
    radius: float
    lift_u: tuple[ExprField, ...]  # du/ds_j along the j-th lift
    lift_v: tuple[ExprField, ...]
    orientation: int = 1

    def __post_init__(self):
        if self.base_dim < 1:
            raise ValueError("base_dim must be >= 1")
        if len(self.periods) != self.base_dim:
            raise ValueError("one period per base coordinate")
        if any(p <= 0 for p in self.periods):
            raise ValueError("periods must be positive")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if len(self.lift_u) != self.base_dim or len(self.lift_v) != self.base_dim:
            raise ValueError("one lift component pair per base coordinate")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        total = self.total_chart
        object.__setattr__(
            self, "lift_u", tuple(c.on_chart(total) for c in self.lift_u))
        object.__setattr__(
            self, "lift_v", tuple(c.on_chart(total) for c in self.lift_v))

    @functools.cached_property
    def fiber_chart(self) -> Chart:
        return Chart(("u", "v"))

    @functools.cached_property
    def total_chart(self) -> Chart:
        return _total_chart(self.periods)

    def lift(self, j: int) -> VectorFieldExpr:
        """Horizontal lift of d/ds_j (zero-based index)."""
        return vector_field(self.total_chart, [
            float(i == j) for i in range(self.base_dim)] + [
            self.lift_u[j], self.lift_v[j]])

    @functools.cached_property
    def _transported(self) -> dict:
        """Transported requests on this bundle, by the bytes of their path
        and starts: read-only BatchTransport rows."""
        return {}

    @functools.cached_property
    def _ccl_reports(self) -> dict:
        """ccl_check reports on this bundle, by id(beta) and tol: (beta,
        report).  Holding beta keeps its id unique."""
        return {}

    @functools.cached_property
    def _ccl_orbits(self) -> Holonomy:
        """ccl_check's sampled holonomy of every generator at _ccl_samples,
        one read-only Holonomy in generator order: no form changes it, so
        every form's check reads it.  A call that raises memoizes nothing."""
        found = [holonomy(self, g, _ccl_samples(self))
                 for g in range(self.base_dim)]
        orbits = Holonomy(*map(np.concatenate, zip(*(
            vars(h).values() for h in found))))
        for a in vars(orbits).values():
            a.flags.writeable = False
        return orbits

    def lifts(self) -> list[VectorFieldExpr]:
        return [self.lift(j) for j in range(self.base_dim)]

    @functools.cached_property
    def lift_exprs(self) -> tuple[Expr, ...]:
        """The components of every lift, lift by lift, built once per
        bundle: what flatness_check and the singular germ's invariance probe
        evaluate."""
        return tuple(c.expr for lift in self.lifts() for c in lift.components)


def _total_chart(periods: tuple[float, ...]) -> Chart:
    """The chart (s1, ..., sb, u, v) over the base box of these periods."""
    names = tuple(f"s{j}" for j in range(1, len(periods) + 1)) + ("u", "v")
    return Chart(names, periods + (None, None))


def trivial_bundle(base_dim: int = 1, periods: Sequence[float] | None = None,
                   radius: float = 1.0) -> FlatDiskBundle:
    periods = tuple(periods) if periods else (1.0,) * base_dim
    zero = constant(_total_chart(periods), 0.0)
    return FlatDiskBundle(base_dim, periods, radius,
                          (zero,) * base_dim, (zero,) * base_dim)


def rotation_bundle(rates: Sequence[float], periods: Sequence[float] | None = None,
                    radius: float = 1.0) -> FlatDiskBundle:
    """Lifts d/ds_j + c_j (-v d/du + u d/dv): fiber rotation at rate c_j."""
    rates = tuple(float(c) for c in rates)
    b = len(rates)
    periods = tuple(periods) if periods else (1.0,) * b
    total = _total_chart(periods)
    u = coordinate(total, "u")
    v = coordinate(total, "v")
    return FlatDiskBundle(
        b, periods, radius,
        tuple(-c * v for c in rates),
        tuple(c * u for c in rates))


def flatness_check(bundle: FlatDiskBundle,
                   points: Sequence[Sequence[float]]) -> float:
    """Max vertical component of pairwise lift brackets over sample points,
    from the lifts' values and first partials (fields.brackets)."""
    total = bundle.total_chart
    vals, J = partials(total, bundle.lift_exprs, points)
    m, d = bundle.base_dim, total.dim
    V, JV = vals.reshape(m, d, -1), J.reshape(m, d, d, -1)
    return float(max_abs(brackets(V, JV)[:, bundle.base_dim:]))


@dataclass(frozen=True)
class TransportResult:
    end: tuple[float, float]
    escaped: bool
    steps: int
    nfev: int


@dataclass(frozen=True)
class BatchTransport:
    """Per-row outcome of transport_batch: (N, 2) endpoints, and (N,) escape
    flags, accepted steps and right-hand-side evaluations."""

    end: np.ndarray
    escaped: np.ndarray
    steps: np.ndarray
    nfev: np.ndarray


# The Dormand-Prince RK5(4) pair with Shampine's quartic interpolant, the
# tableau of scipy's RK45: stage times C, stage weights A, the fifth-order
# weights B, the error weights E (B minus the fourth-order weights, over all
# seven stages) and the dense-output coefficients P.
RK_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
RK_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
RK_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
RK_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                 1/40])
RK_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# Step-size control: the error is that of the fourth-order solution.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
ERROR_EXPONENT = -1 / 5
MAX_STEP = 1.0


def _rms(x: np.ndarray) -> np.ndarray:
    """Column-wise RMS norm of a (2, N) array."""
    return np.sqrt(np.add.reduce(x * x, axis=0)) / 2 ** 0.5


def _dense(K: np.ndarray, t_old, h, y_old, t) -> np.ndarray:
    """The quartic interpolant of the steps in K (rows, stages, 2) at t."""
    x = (t - t_old) / h
    powers = np.cumprod(np.repeat(x[:, None], 4, axis=1), axis=1)
    Q = np.einsum("nsk,sj->nkj", K, RK_P)
    return h[:, None] * np.einsum("nkj,nj->nk", Q, powers) + y_old


def _escape_time(K, t_old, h, y_old, t_new, r2) -> np.ndarray:
    """Where |y|^2 - r^2 turns from <= 0 to >= 0 on each row's last step, by
    bisection on the step's dense output down to adjacent floats."""
    def g(t):
        y = _dense(K, t_old, h, y_old, t)
        return y[:, 0] ** 2 + y[:, 1] ** 2 - r2

    lo, hi = t_old.copy(), t_new.copy()
    while True:
        mid = lo + (hi - lo) / 2
        open_ = (lo < mid) & (mid < hi)
        if not open_.any():
            break
        below = g(mid) < 0
        lo = np.where(open_ & below, mid, lo)
        hi = np.where(open_ & ~below, mid, hi)
    return np.where(np.abs(g(lo)) < np.abs(g(hi)), lo, hi)


class IntegrationError(ArithmeticError):
    """The adaptive RK45 integration of a row failed: its step budget ran
    out, its pace would run it out, or its step size fell below the
    spacing of floats at its time.  A numerical fault, never a
    refusal."""


@np.errstate(all="ignore")  # the stages check the values they compute
def _integrate_segment(lifts: Sequence, block: np.ndarray, y0: np.ndarray,
                       P: np.ndarray, dP: np.ndarray, r2: np.ndarray,
                       budget: np.ndarray):
    """Integrate the lift ODE y' = sum_j dP_j lift_j(P + t dP, y) from t = 0
    to 1 for every row at once, where row i's segment starts at base point
    P[i] and runs along dP[i].

    The rows form contiguous blocks: block[i], non-decreasing, indexes the
    _lift_rhs of row i's bundle in ``lifts``, and all of them share one
    kernel.  The state is samples-last: y is (2, rows), the stages (7, 2,
    rows) and the lifts' constants (C, rows).  A stage is one kernel call
    over the live rows, summed in place into its slot of the stage array
    in base-coordinate order.  A step's base points P + t dP are built only
    if the kernel reads a base coordinate (its ``reads``); otherwise it
    gets None for them.  The two calls that pick the first step always get
    theirs.  A step's stages are checked together.  If a call fails a
    check or a step is not finite, the step runs again stage by stage, with
    its base points built: at the first such stage, each block's rows go
    through its lift's ``batch``, in block order, to raise that block's
    EvaluationError.

    Each row takes the steps scipy's solve_ivp(method="RK45", max_step=1,
    rtol=ODE_TOL, atol=ODE_TOL) takes for it alone, with the terminal event
    |y|^2 = r2[i] crossed upwards.  Every RK iteration evaluates every live
    row, so a row that ends after ``it`` iterations has nfev 2 + 6 it.  A
    row that takes more than its ``budget`` of accepted steps raises
    IntegrationError, and so does one that stalls: every PACE_WINDOW
    iterations, a row whose accepted steps in the window, at the pace it
    advanced in t, would take it past its budget before t = 1 (a step size
    collapsed near a blow-up, which RK45 accepts without end).  Returns per
    row the end point, the escape flag, the accepted steps and nfev.
    """
    kernel = lifts[0].kernel
    if any(f.kernel is not kernel for f in lifts):
        raise ValueError("the lifts of one sweep must share one kernel")
    n = len(y0)
    end = np.empty((n, 2))
    escaped = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=int)
    nfev = np.zeros(n, dtype=int)
    # State of the rows still integrating; rows[i] is the row of entry i.
    rows = np.arange(n)
    P, dP = P.T.copy(), dP.T.copy()
    consts = np.array([f.consts for f in lifts]).T[:, block]
    b = len(P)
    on_base = any(j < b for j in lifts[0].reads)
    unread = (None,) * b

    def stage(x, y, out, checked=True):
        """The lift's (du, dv) at base points x (None if unread) and fiber
        points y, into out."""
        cols = (*(unread if x is None else x), *y)
        try:
            comps = kernel(*cols, *consts)
            # (du, dv) = sum_j dP_j (lift_u[j], lift_v[j]), in j order
            np.multiply(dP[0], comps[0], out=out[0])
            np.multiply(dP[0], comps[b], out=out[1])
            for j in range(1, b):
                out[0] += dP[j] * comps[j]
                out[1] += dP[j] * comps[b + j]
            # a non-finite lift value makes the total non-finite; an
            # overflowing total only costs batch calls
            ok = not checked or math.isfinite(np.add.reduce(out, axis=None))
        except RowError if checked else ():
            ok = False
        if not ok:  # batch raises what it says about a block, if any
            points = np.column_stack(cols)
            for i, f in enumerate(lifts):
                f.batch(points[block == i])
        return out

    def rk_stages(K, y, h, checked=False):
        """Stages 1-6 of a step into K, K[0] given; returns y_new.  Checked
        once, together; if that fails, they run again, each checked.  The
        stages' base points X[:, s - 1], at t + C_s h and at t_new, are
        built where the lift reads them and for a checked run."""
        X = None
        if on_base or checked:
            T = times[:, :len(h)]
            T[:5] = t + np.multiply.outer(RK_C[1:], h)
            T[5] = t_new
            X = P[:, None] + T * dP[:, None]
        try:
            for s in range(1, 6):
                dy = np.einsum("s,skn->kn", RK_A[s, :s], K[:s]) * h
                stage(None if X is None else X[:, s - 1], y + dy, K[s],
                      checked)
            y_new = y + h * np.einsum("s,skn->kn", RK_B, K[:6])
            stage(None if X is None else X[:, 5], y_new, K[6], checked)
            if checked or math.isfinite(np.add.reduce(K, axis=None)):
                return y_new
        except RowError:
            pass
        return rk_stages(K, y, h, True)

    y = y0.T.copy()
    t = np.zeros(n)
    f = stage(P + t * dP, y, np.empty((2, n)))
    # initial step selection
    scale = ODE_TOL + np.abs(y) * ODE_TOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.minimum(
        np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), 1.0)
    d2 = _rms((stage(P + h0 * dP, y + h0 * f, np.empty((2, n)))
               - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** (1 / 5))
    h_abs = np.minimum(np.minimum(100 * h0, h1), MAX_STEP)
    st = np.zeros(n, dtype=int)
    g = np.add.reduce(y * y, axis=0) - r2
    rejected, any_rejected = np.zeros(n, dtype=bool), False
    stages, times = np.empty((7, 2, n)), np.empty((6, n))
    # st <= it, so no row can exceed its budget before it exceeds the least
    least_budget = budget.min() if n else 0
    # each row's time and accepted steps at the start of the pace window
    t_mark, st_mark = t, st.copy()
    it = 0
    while rows.size:
        it += 1
        # a new step starts clamped to [min_step, MAX_STEP]; a retry of a
        # rejected one is not clamped, and fails below min_step
        min_step = 10 * np.spacing(t)
        h = np.minimum(np.maximum(h_abs, min_step), MAX_STEP)
        if any_rejected:
            h = np.where(rejected, h_abs, h)
            if (h < min_step).any():
                raise IntegrationError(
                    "transport integration failed: Required step size is "
                    "less than spacing between numbers.")
        t_new = np.minimum(t + h, 1.0)
        h = t_new - t
        K = stages[:, :, :len(rows)]
        K[0] = f
        y_new = rk_stages(K, y, h)
        f_new = K[6]  # a view: K[0] takes a copy at the next step
        scale = ODE_TOL + np.maximum(np.abs(y), np.abs(y_new)) * ODE_TOL
        err = _rms(np.einsum("s,skn->kn", RK_E, K) * h / scale)
        # scipy's step factor: at most MAX_FACTOR (1 after a rejection) if
        # err < 1, else at least MIN_FACTOR.  grow >= SAFETY where err < 1,
        # grow <= SAFETY elsewhere and MIN_FACTOR < SAFETY < 1, so one clip
        # of grow gives both.
        grow = SAFETY * err ** ERROR_EXPONENT  # inf where err == 0
        ok = err < 1
        h_abs = h * np.maximum(MIN_FACTOR, np.minimum(
            np.where(rejected, 1.0, MAX_FACTOR) if any_rejected
            else MAX_FACTOR, grow))
        rejected = ~ok
        any_rejected = not ok.all()
        st += ok
        if it > least_budget and (st > budget).any():
            raise IntegrationError("step budget exceeded")
        g_new = np.add.reduce(y_new * y_new, axis=0) - r2
        up = ok & (g <= 0) & (g_new >= 0)
        y_old, t_old = y, t
        if any_rejected:
            y = np.where(ok, y_new, y)
            f = np.where(ok, f_new, K[0])  # f may share f_new's memory
            t = np.where(ok, t_new, t)
            g = np.where(ok, g_new, g)
        else:
            y, f, t, g = y_new, f_new, t_new, g_new
        if it % PACE_WINDOW == 0:
            if ((1.0 - t) * (st - st_mark)
                    > (budget - st) * (t - t_mark)).any():
                raise IntegrationError(
                    "transport integration stalled: at its pace a row "
                    "would exceed its step budget")
            t_mark, st_mark = t, st.copy()
        done = up | (t >= 1.0)
        if done.any():
            if up.any():
                # freeze the row where it leaves the disk
                args = (np.moveaxis(K[:, :, up], 2, 0).copy(), t_old[up],
                        h[up], y_old[:, up].T)  # (rows, stages, 2), (rows, 2)
                y[:, up] = _dense(
                    *args, _escape_time(*args, t_new[up], r2[up])).T
            out = rows[done]
            end[out], escaped[out] = y[:, done].T, up[done]
            steps[out], nfev[out] = st[done], 2 + 6 * it
            keep = ~done
            rows, t, g, budget = rows[keep], t[keep], g[keep], budget[keep]
            y, f, P, dP = y[:, keep], f[:, keep], P[:, keep], dP[:, keep]
            h_abs, rejected = h_abs[keep], rejected[keep]
            st, r2, block = st[keep], r2[keep], block[keep]
            t_mark, st_mark = t_mark[keep], st_mark[keep]
            consts = consts[:, keep]
    return end, escaped, steps, nfev


def _disk_points(bundle: FlatDiskBundle, points) -> np.ndarray:
    """Fiber points (u, v) inside the fiber disk, as an (N, 2) float
    array."""
    pts = np.array(points, dtype=float)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("fiber points must be pairs (u, v)")
    if np.any(np.hypot(pts[:, 0], pts[:, 1]) >= bundle.radius):
        raise ValueError("start point outside the fiber disk")
    return pts


def _path(bundle: FlatDiskBundle, path) -> np.ndarray:
    """A base path's vertices as a (V, base_dim) float array, V >= 2."""
    verts = [np.asarray(v, dtype=float) for v in path]
    if len(verts) < 2:
        raise ValueError("path needs at least two vertices")
    for v in verts:
        if v.shape != (bundle.base_dim,):
            raise ValueError("path vertex has wrong dimension")
    return np.stack(verts)


def _lift_rhs(bundle: FlatDiskBundle) -> CompiledExprs:
    """The lift ODE's right-hand side for _integrate_segment: the compiled
    lift_u then lift_v, which holds no reference to the bundle."""
    return compile_exprs(bundle.total_chart, tuple(
        c.expr for c in bundle.lift_u + bundle.lift_v))


def _radius_sq(bundle: FlatDiskBundle) -> np.float64:
    """The fiber radius squared in float64 (by pow, as Python's float **):
    inf where it overflows, where no row can escape."""
    with np.errstate(over="ignore"):
        return np.float64(bundle.radius) ** 2


def _sweep(parts) -> BatchTransport:
    """transport_batch for the rows of several bundles at once.  ``parts``
    holds per bundle its _lift_rhs, its fiber radius squared, an (N, V,
    base_dim) array of one path per row and N starts, with one V and
    base_dim for all.  Returns the rows of every part in order."""
    rhs, r2, paths, starts = zip(*parts)
    sizes = [len(x) for x in starts]
    block = np.repeat(np.arange(len(parts)), sizes)
    r2 = np.repeat(r2, sizes)
    paths, y = np.concatenate(paths), np.concatenate(starts)
    n = len(y)
    escaped = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=int)
    nfev = np.zeros(n, dtype=int)
    for k in range(paths.shape[1] - 1):
        live = np.flatnonzero(~escaped)
        if not live.size:
            break
        P = paths[live, k]
        y[live], escaped[live], seg_steps, seg_nfev = _integrate_segment(
            rhs, block[live], y[live], P, paths[live, k + 1] - P, r2[live],
            MAX_STEPS - steps[live])
        steps[live] += seg_steps
        nfev[live] += seg_nfev
    return BatchTransport(end=y, escaped=escaped, steps=steps, nfev=nfev)


def transport_batch(bundle: FlatDiskBundle, paths,
                    starts: Sequence[Sequence[float]]) -> BatchTransport:
    """Integrate the horizontal-lift ODE along piecewise-linear base paths
    for N fiber points at once: the one-bundle case of _sweep.

    ``paths`` is one path for every row, or an (N, V, base_dim) array of one
    path per row, all with V vertices.  Every row takes the adaptive RK45
    steps it would take alone, restarted at each of its path's vertices, and
    stops where it first leaves the fiber disk.
    """
    y = _disk_points(bundle, starts)
    n = len(y)
    paths = np.asarray(paths, dtype=float)
    if paths.ndim == 2:  # one path for every row
        paths = np.broadcast_to(paths, (n,) + paths.shape)
    if paths.ndim != 3 or len(paths) != n:
        raise ValueError("need one path for every row or one per row")
    if paths.shape[1] < 2:
        raise ValueError("path needs at least two vertices")
    if paths.shape[2] != bundle.base_dim:
        raise ValueError("path vertex has wrong dimension")
    return _sweep([(_lift_rhs(bundle), _radius_sq(bundle), paths, y)])


def plan_transport(plan: dict, bundle: FlatDiskBundle, path,
                   starts: Sequence[Sequence[float]]) -> None:
    """Record in a run's plan a request that a check will make on this
    bundle.  The plan maps (base_dim, vertex count, lift kernel) to a group,
    {id(bundle): (bundle, requests)}, where requests maps a memo key to
    (path, starts); sweep_plan integrates each group in one sweep.  Raises
    ValueError for a request that transport_batch would refuse."""
    path, starts = _path(bundle, path), _disk_points(bundle, starts)
    group = plan.setdefault(
        (bundle.base_dim, len(path), _lift_rhs(bundle).kernel), {})
    group.setdefault(id(bundle), (bundle, {}))[1].setdefault(
        (path.tobytes(), starts.tobytes()), (path, starts))


def _sweep_rows(parts) -> None:
    """Integrate the requests of every (bundle, requests) part in one sweep
    and memoize each request's rows on its bundle, read-only; a sweep that
    raises memoizes nothing."""
    res = _sweep([(_lift_rhs(b), _radius_sq(b), np.concatenate([
        np.broadcast_to(p, (len(x),) + p.shape) for p, x in reqs.values()]),
        np.concatenate([x for _, x in reqs.values()])) for b, reqs in parts])
    cuts = np.cumsum([len(x) for _, reqs in parts for _, x in reqs.values()])
    for a in vars(res).values():
        a.flags.writeable = False  # shared by every reader of a request
    rows = itertools.starmap(BatchTransport, zip(*(
        np.split(a, cuts[:-1]) for a in vars(res).values())))
    for b, reqs in parts:
        b._transported.update(zip(reqs, rows))


def sweep_plan(plan: dict) -> None:
    """Integrate the requests of a run's plan, one sweep per group.  A group
    whose sweep raises memoizes nothing: its requests are integrated where a
    check makes them, on their own, so a fault stays with its check."""
    for group in plan.values():
        with contextlib.suppress(ValueError, RuntimeError, ArithmeticError):
            _sweep_rows(group.values())


def _transport_rows(bundle: FlatDiskBundle, path,
                    starts: Sequence[Sequence[float]]) -> BatchTransport:
    """transport_batch's rows through the bundle's memo of requests, keyed
    by the bytes of the path and of the starts; a request that misses is
    integrated in one sweep of its own."""
    path, starts = _path(bundle, path), _disk_points(bundle, starts)
    memo, key = bundle._transported, (path.tobytes(), starts.tobytes())
    if key not in memo:
        _sweep_rows([(bundle, {key: (path, starts)})])
    return memo[key]


def parallel_transport(bundle: FlatDiskBundle,
                       path: Sequence[Sequence[float]],
                       x0: Sequence[float]) -> TransportResult:
    """Integrate the horizontal-lift ODE along a piecewise-linear base path,
    through the bundle's memo of requests."""
    res = _transport_rows(bundle, path, [x0])
    return TransportResult(tuple(res.end[0].tolist()), *(
        x[0].item() for x in (res.escaped, res.steps, res.nfev)))


def generator_loop(bundle: FlatDiskBundle, index: int
                   ) -> list[np.ndarray]:
    """The loop running once around base coordinate `index` (zero-based)."""
    if not 0 <= index < bundle.base_dim:
        raise ValueError("generator index out of range")
    return [np.zeros(bundle.base_dim),
            np.eye(bundle.base_dim)[index] * bundle.periods[index]]


@dataclass(frozen=True)
class Holonomy:
    """A holonomy map sampled at N points: (N, 2) points and images, (N,)
    escape flags, (N,) flags of the mapped samples (whose five rows all
    start and stay in the disk), (N, 2, 2) Jacobians (NaN where not
    mapped), and (N,) steps and nfev summed over each sample's rows."""

    point: np.ndarray
    image: np.ndarray
    escaped: np.ndarray
    mapped: np.ndarray
    jacobian: np.ndarray
    steps: np.ndarray
    nfev: np.ndarray


FD_STEP = 1e-5
CCL_SAMPLES = 8  # ccl_check's invariance samples
CCL_GRID_STEP = 0.1  # ccl_check's fiber grid step, in fiber radii
# Each sample's rows in holonomy's batch: x, x + h e1, x - h e1, x + h e2,
# x - h e2, for the central-difference Jacobian.
_FD_OFFSETS = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
                        [0.0, -1.0]])


def _fd_rows(bundle: FlatDiskBundle,
             pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every sample's five rows, (N * 5, 2), and which start inside the
    disk; a row outside voids its sample's Jacobian."""
    rows = (pts[:, None, :] + FD_STEP * _FD_OFFSETS).reshape(-1, 2)
    return rows, np.hypot(rows[:, 0], rows[:, 1]) < bundle.radius


def holonomy(bundle: FlatDiskBundle, generator: int,
             samples: Sequence[Sequence[float]]) -> Holonomy:
    """Sampled holonomy around a generator loop, with FD Jacobians.

    The five transports per sample are rows of one memoized request.
    """
    loop = generator_loop(bundle, generator)
    pts = _disk_points(bundle, samples)
    rows, inside = _fd_rows(bundle, pts)
    res = _transport_rows(bundle, loop, rows[inside])
    end = np.zeros_like(rows)
    end[inside] = res.end
    void = ~inside
    void[inside] = res.escaped
    counts = np.zeros((2, len(rows)), dtype=int)
    counts[:, inside] = res.steps, res.nfev
    end, void = end.reshape(-1, 5, 2), void.reshape(-1, 5)
    mapped = ~void.any(axis=1)
    J = np.stack([end[:, 1] - end[:, 2], end[:, 3] - end[:, 4]],
                 axis=2) / (2 * FD_STEP)
    J[~mapped] = np.nan
    steps, nfev = counts.reshape(2, -1, 5).sum(axis=2)
    return Holonomy(pts, end[:, 0], void[:, 0], mapped, J, steps, nfev)


# ---------------------------------------------------------------------------
# CCL validation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _fiber_grid(radius: float, step: float) -> np.ndarray:
    """The fiber grid inside 0.98 of the radius: read-only, and shared."""
    axis = np.arange(-radius, radius + step / 2, step)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = pts[np.hypot(pts[:, 0], pts[:, 1]) < radius * 0.98]
    grid.flags.writeable = False
    return grid


@functools.cache
def _ccl_draws() -> tuple[np.ndarray, np.ndarray]:
    """ccl_check's seeded draws: radii in units of the fiber radius, and
    angles."""
    rng = np.random.default_rng(0)
    draws = (rng.uniform(0.2, 0.7, CCL_SAMPLES),
             rng.uniform(0, 2 * np.pi, CCL_SAMPLES))
    for a in draws:
        a.flags.writeable = False  # shared by every call
    return draws


def _ccl_samples(bundle: FlatDiskBundle) -> np.ndarray:
    """ccl_check's invariance samples: CCL_SAMPLES seeded points of the
    annulus 0.2 r <= |x| < 0.7 r."""
    unit, angles = _ccl_draws()
    radii = unit * bundle.radius
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


def ccl_check(bundle: FlatDiskBundle, beta: fm.DiffForm,
              tol: float = 1e-6) -> dict:
    """Validate the three defining conditions of a fiber 1-form.

    (1) invariance under the sampled holonomy of each generator,
    (2) vanishing exactly at the fiber origin,
    (3) positive exterior derivative on the oriented fiber frame.
    Failures are report entries, never exceptions.  (2) and (3) are read on
    the fiber grid of step CCL_GRID_STEP fiber radii inside 0.98 of the
    radius, (1) at CCL_SAMPLES seeded points of the annulus 0.2 r <= |x| <
    0.7 r.

    The report is memoized on the bundle per form object and tol, and each
    call gets its own copy; a call that raises memoizes nothing.
    """
    memo = bundle._ccl_reports
    key = (id(beta), tol)
    if key not in memo:
        memo[key] = beta, _ccl_report(bundle, beta, tol)
    return {k: dict(v) if isinstance(v, dict) else v
            for k, v in memo[key][1].items()}


def _ccl_report(bundle: FlatDiskBundle, beta: fm.DiffForm,
                tol: float) -> dict:
    """ccl_check's report: the form's jet on the fiber grid, then its
    coefficients at the mapped samples and images of the bundle's memoized
    _ccl_orbits, pulled back through their Jacobians."""
    fiber = bundle.fiber_chart
    if beta.chart != fiber or beta.degree != 1:
        raise ValueError("beta must be a 1-form on the fiber chart (u, v)")
    step = CCL_GRID_STEP * bundle.radius
    grid = _fiber_grid(bundle.radius, step)
    b, W = fm.jet(beta, np.vstack([[0.0, 0.0], grid]))
    origin_norm = float(np.linalg.norm(b[:1]))
    away = np.hypot(grid[:, 0], grid[:, 1]) >= 2 * step
    min_away = float(np.min(np.linalg.norm(b[1:][away], axis=1)))
    vanishing_ok = origin_norm <= tol and min_away > tol

    # d beta on the frame (d/du, d/dv)
    db_vals = bundle.orientation * W[1:, 0, 1]
    positivity_ok = bool(np.min(db_vals) > tol)

    orbits = bundle._ccl_orbits
    mapped = orbits.mapped
    escapes = int(np.sum(~mapped))
    # beta at the mapped samples' points, then at their images
    b_x, b_img = beta.coeff_array(np.concatenate([
        orbits.point[mapped], orbits.image[mapped]])).reshape(2, -1, 2)
    # pullback through the sampled map: (Phi^* beta)_x = J^T beta_img
    inv_residual = float(np.max(np.linalg.norm(
        np.einsum("nji,nj->ni", orbits.jacobian[mapped], b_img) - b_x,
        axis=1), initial=0.0))
    invariance_ok = escapes == 0 and inv_residual <= max(tol, 1e-6)
    return {
        "vanishing": {"origin_norm": origin_norm, "min_away": min_away,
                      "ok": vanishing_ok},
        "positivity": {"min_dbeta": float(np.min(db_vals)),
                       "ok": positivity_ok},
        "invariance": {"max_residual": inv_residual, "escapes": escapes,
                       "steps": int(orbits.steps.sum()),
                       "nfev": int(orbits.nfev.sum()), "ok": invariance_ok},
        "ok": vanishing_ok and positivity_ok and invariance_ok,
    }


def plan_ccl(plan: dict, bundles: Sequence[FlatDiskBundle]) -> None:
    """Plan in a run's plan (see plan_transport) the holonomy rows of
    ccl_check(bundle, beta) for every generator of each bundle."""
    for bundle in bundles:
        rows, inside = _fd_rows(bundle, _ccl_samples(bundle))
        for g in range(bundle.base_dim):
            plan_transport(plan, bundle, generator_loop(bundle, g),
                           rows[inside])


# ---------------------------------------------------------------------------
# Flat structure extracted from a graph near a generic singular component
# ---------------------------------------------------------------------------


def extract_flat_structure(Y: "co.GraphSubmanifold",
                           points: Sequence[Sequence[float]],
                           scan_box: float = 0.5, scan_step: float = 0.05,
                           tol: float = 1e-8) -> dict:
    """Kernel distribution of the restricted two-form near a generic singularity.

    Verifies the singular component is generic, then reports the rank-(n-1)
    kernel distribution at sample points, its integrability residual and the
    covariant-constancy residual of the restricted form along the spanning
    frame: the frame residuals of coiso.frame_residuals, which verify_claim
    shares.
    """
    scan = co.singular_scan(Y, box=scan_box, step=scan_step)
    if not scan.clusters:
        raise ValueError("no singular component found in the scan region")
    if any(flag != "generic" for flag in scan.flags):
        raise ValueError("non-generic singular structure")
    frame = co.frame_residuals(Y, points)
    W = frame["dlambda"]  # samples last
    M = W.transpose(2, 0, 1)
    if np.any(sl.skew_rank(M, tol) != 2):
        raise ValueError("non-generic singular structure")
    return {
        "rank": Y.source_chart.dim - 2,
        # rank 2 is certified, so each kernel is the last k - 2 rows of vh
        "kernel_bases": np.linalg.svd(M)[2][:, 2:],
        "membership_residual": float(max_abs(frame["i_V_dlambda"])),
        # i_[V_a, V_b] d lambda
        "integrability_residual": float(max_abs(
            np.einsum("pin,ijn->pjn", frame["bracket"], W))),
        "covariant_constancy_residual": float(max_abs(frame["lie_lambda"])),
        "scan_flags": scan.flags,
    }
