"""Flat disk bundles over circle/torus bases given as periodic boxes.

The horizontal distribution is declared by one lift per base coordinate;
parallel transport integrates the lift ODE along piecewise-linear base paths
with an adaptive Runge-Kutta pair, for many fiber points at once. Holonomy
maps are sampled point clouds with finite-difference Jacobians, since fiber
diffeomorphisms have no finite description.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import coiso as co
from . import forms as fm
from . import symplin as sl
from .fields import (
    Chart,
    ExprField,
    RowError,
    VectorFieldExpr,
    compile_exprs,
    constant,
    lie_bracket,
    sup_abs,
)

ODE_TOL = 1e-8  # the ODE's rtol and atol
MAX_STEPS = 10 ** 6


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

    @property
    def fiber_chart(self) -> Chart:
        return Chart(("u", "v"))

    @property
    def total_chart(self) -> Chart:
        names = tuple(f"s{j}" for j in range(1, self.base_dim + 1)) + ("u", "v")
        return Chart(names, self.periods + (None, None))

    def lift(self, j: int) -> VectorFieldExpr:
        """Horizontal lift of d/ds_j (zero-based index)."""
        total = self.total_chart
        comps = [constant(total, 0.0) for _ in range(total.dim)]
        comps[j] = constant(total, 1.0)
        comps[self.base_dim] = self.lift_u[j]
        comps[self.base_dim + 1] = self.lift_v[j]
        return VectorFieldExpr(total, tuple(comps))

    @functools.cached_property
    def _transported(self) -> dict:
        """Transported rows on this bundle, by _row_keys: (end, escaped,
        steps, nfev)."""
        return {}

    @functools.cached_property
    def _planned(self) -> dict:
        """This bundle's place in a run's plan, by path vertex count: (the
        plan group, this bundle's _Block in it).  See plan_transport."""
        return {}

    @functools.cached_property
    def _ccl_reports(self) -> dict:
        """ccl_check reports on this bundle, by id(beta) and tol: (beta,
        report).  Holding beta keeps its id unique."""
        return {}

    @functools.cached_property
    def _germs(self) -> dict:
        """germ.build_singular_germ results on this bundle, by id(beta):
        (beta, germ)."""
        return {}

    def lifts(self) -> list[VectorFieldExpr]:
        return [self.lift(j) for j in range(self.base_dim)]


def trivial_bundle(base_dim: int = 1, periods: Sequence[float] | None = None,
                   radius: float = 1.0) -> FlatDiskBundle:
    periods = tuple(periods) if periods else (1.0,) * base_dim
    names = tuple(f"s{j}" for j in range(1, base_dim + 1)) + ("u", "v")
    total = Chart(names, periods + (None, None))
    zero = constant(total, 0.0)
    return FlatDiskBundle(base_dim, periods, radius,
                          (zero,) * base_dim, (zero,) * base_dim)


def rotation_bundle(rates: Sequence[float], periods: Sequence[float] | None = None,
                    radius: float = 1.0) -> FlatDiskBundle:
    """Lifts d/ds_j + c_j (-v d/du + u d/dv): fiber rotation at rate c_j."""
    rates = tuple(float(c) for c in rates)
    b = len(rates)
    periods = tuple(periods) if periods else (1.0,) * b
    names = tuple(f"s{j}" for j in range(1, b + 1)) + ("u", "v")
    total = Chart(names, periods + (None, None))
    from .fields import coordinate
    u = coordinate(total, "u")
    v = coordinate(total, "v")
    return FlatDiskBundle(
        b, periods, radius,
        tuple(-c * v for c in rates),
        tuple(c * u for c in rates))


def flatness_check(bundle: FlatDiskBundle,
                   points: Sequence[Sequence[float]]) -> float:
    """Max vertical component of pairwise lift brackets over sample points."""
    lifts = bundle.lifts()
    iu, iv = bundle.base_dim, bundle.base_dim + 1
    vertical = [
        br.components[i]
        for br in itertools.starmap(lie_bracket,
                                    itertools.combinations(lifts, 2))
        for i in (iu, iv)]
    return sup_abs(bundle.total_chart, vertical, points)


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
    """Row-wise RMS norm of an (N, 2) array."""
    return np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1]) / 2 ** 0.5


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
    out, or its step size fell below the spacing of floats at its time.
    A numerical fault, never a refusal."""


@np.errstate(all="ignore")  # rhs checks the values it computes
def _integrate_segment(rhs: Sequence, block: np.ndarray, y0: np.ndarray,
                       P: np.ndarray, dP: np.ndarray, r2: np.ndarray,
                       budget: np.ndarray):
    """Integrate y' = rhs(P + t dP, y) from t = 0 to 1 for every row at
    once, where row i's segment starts at base point P[i] and runs along
    dP[i].

    The rows form contiguous blocks: block[i], non-decreasing, indexes the
    right-hand side of row i in ``rhs``.  Each rhs(x, y, dP, out) takes its
    block's live rows, base points and dP transposed (base_dim, rows),
    writes y' to out and returns it.

    Each row takes the steps scipy's solve_ivp(method="RK45", max_step=1,
    rtol=ODE_TOL, atol=ODE_TOL) takes for it alone, with the terminal event
    |y|^2 = r2[i] crossed upwards.  A row that takes more than its
    ``budget`` of accepted steps raises IntegrationError.  Returns per row
    the end point, the escape flag, the accepted steps and nfev.
    """
    n = len(y0)
    end = np.empty((n, 2))
    escaped = np.zeros(n, dtype=bool)
    steps = np.zeros(n, dtype=int)
    nfev = np.zeros(n, dtype=int)
    # State of the rows still integrating; rows[i] is the row of entry i.
    rows = np.arange(n)
    P, dP = P.T.copy(), dP.T.copy()

    def live_blocks():  # (rhs, rows, dP of the rows) of each live block
        at = np.searchsorted(block, np.arange(len(rhs) + 1)).tolist()
        return [(f, slice(a, b), dP[:, a:b])
                for f, a, b in zip(rhs, at, at[1:]) if a < b]

    calls = live_blocks()

    def stage(x, y, out):
        for f, at, dp in calls:
            f(x[:, at], y[at], dp, out[at])
        return out

    y = y0.copy()
    t = np.zeros(n)
    f = stage(P + t * dP, y, np.empty((n, 2)))
    # initial step selection
    scale = ODE_TOL + np.abs(y) * ODE_TOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = np.minimum(
        np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), 1.0)
    d2 = _rms((stage(P + h0 * dP, y + h0[:, None] * f, np.empty((n, 2)))
               - f) / scale) / h0
    h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                  np.maximum(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d1, d2)) ** (1 / 5))
    h_abs = np.minimum(np.minimum(100 * h0, h1), MAX_STEP)
    nf = np.full(n, 2)
    st = np.zeros(n, dtype=int)
    g = y[:, 0] ** 2 + y[:, 1] ** 2 - r2
    rejected, any_rejected = np.zeros(n, dtype=bool), False
    stages, times = np.empty((n, 7, 2)), np.empty((6, n))
    while rows.size:
        # a new step starts clamped to [min_step, MAX_STEP]; a retry of a
        # rejected one is not clamped, and fails below min_step
        min_step = 10 * np.spacing(t)
        h = np.minimum(np.maximum(h_abs, min_step), MAX_STEP)
        if any_rejected:
            h = np.where(rejected, h_abs, h)
        if (h < min_step).any():
            raise IntegrationError("transport integration failed: Required "
                                   "step size is less than spacing between "
                                   "numbers.")
        t_new = np.minimum(t + h, 1.0)
        h = t_new - t
        hc = h[:, None]
        m = len(rows)
        K, T = stages[:m], times[:, :m]
        # X[:, s - 1]: the base points of stage s, at t + C_s h, and of t_new
        T[:5] = t + np.multiply.outer(RK_C[1:], h)
        T[5] = t_new
        X = P[:, None] + T * dP[:, None]
        K[:, 0] = f
        for s in range(1, 6):
            dy = np.einsum("nsk,s->nk", K[:, :s], RK_A[s, :s]) * hc
            stage(X[:, s - 1], y + dy, K[:, s])
        y_new = y + hc * np.einsum("nsk,s->nk", K[:, :6], RK_B)
        f_new = stage(X[:, 5], y_new, K[:, 6])
        nf += 6
        scale = ODE_TOL + np.maximum(np.abs(y), np.abs(y_new)) * ODE_TOL
        err = _rms(np.einsum("nsk,s->nk", K, RK_E) * hc / scale)
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
        if (st > budget).any():
            raise IntegrationError("step budget exceeded")
        g_new = y_new[:, 0] ** 2 + y_new[:, 1] ** 2 - r2
        up = ok & (g <= 0) & (g_new >= 0)
        y_old, t_old = y, t
        if any_rejected:
            y = np.where(ok[:, None], y_new, y)
            f = np.where(ok[:, None], f_new, f)
            t = np.where(ok, t_new, t)
            g = np.where(ok, g_new, g)
        else:  # f_new lives in the stage buffer
            y, f, t, g = y_new, f_new.copy(), t_new, g_new
        if up.any():
            # freeze the row where it leaves the disk
            args = K[up], t_old[up], h[up], y_old[up]
            y[up] = _dense(*args, _escape_time(*args, t_new[up], r2[up]))
        done = up | (t >= 1.0)
        if done.any():
            out = rows[done]
            end[out], escaped[out] = y[done], up[done]
            steps[out], nfev[out] = st[done], nf[done]
            keep = ~done
            rows, y, t, f, g = rows[keep], y[keep], t[keep], f[keep], g[keep]
            P, dP, budget = P[:, keep], dP[:, keep], budget[keep]
            h_abs, rejected = h_abs[keep], rejected[keep]
            st, nf, r2, block = st[keep], nf[keep], r2[keep], block[keep]
            calls = live_blocks()
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


def _lift_rhs(bundle: FlatDiskBundle):
    """The lift ODE's right-hand side for _integrate_segment.  It holds the
    compiled lift, not the bundle."""
    b = bundle.base_dim
    lift = compile_exprs(bundle.total_chart, tuple(
        c.expr for c in bundle.lift_u + bundle.lift_v))

    def rhs(x, yt, dP, out):
        # (du, dv) = sum_j dP_j (lift_u[j], lift_v[j]), summed in j order
        cols = (*x, yt[:, 0], yt[:, 1])
        try:
            comps = lift.columns(*cols)
            u = v = 0.0
            for j in range(b):
                u = u + dP[j] * comps[j]
                v = v + dP[j] * comps[b + j]
            out[:, 0], out[:, 1] = u, v
            # a non-finite lift value makes its stage value, so the total,
            # non-finite; an overflowing total only costs a batch call
            ok = math.isfinite(np.add.reduce(out, axis=None))
        except RowError:
            ok = False
        if not ok:  # batch raises what it says about these points, if any
            lift.batch(np.column_stack(cols))
        return out
    return rhs


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
    return _sweep([(_lift_rhs(bundle), bundle.radius ** 2, paths, y)])


def _row_keys(path: np.ndarray, starts: np.ndarray) -> list[tuple]:
    """The memo key of each row: its path and start."""
    path_key, raw = path.tobytes(), starts.tobytes()
    return [(path_key, raw[i:i + 16])  # 16 bytes: one (u, v) row
            for i in range(0, len(raw), 16)]


class _Block(NamedTuple):
    """One bundle's share of a sweep: its row memo, its _lift_rhs, its fiber
    radius squared and its rows, {key: (path, start)}.  It holds no
    reference to the bundle, so a run's plan makes no reference cycle."""

    memo: dict
    rhs: Callable
    r2: float
    rows: dict


def plan_transport(plan: dict, bundle: FlatDiskBundle, path,
                   starts: Sequence[Sequence[float]]) -> None:
    """Record in a run's plan rows that a later request on this bundle will
    make.  The plan maps (base_dim, vertex count) to a group: one _Block per
    bundle that has rows of that shape planned.  The first request that
    misses the row memo of a bundle in a group integrates every planned row
    of the group in its sweep.  Raises ValueError for a row that
    transport_batch would refuse."""
    path, starts = _path(bundle, path), _disk_points(bundle, starts)
    if len(path) not in bundle._planned:
        block = _Block(bundle._transported, _lift_rhs(bundle),
                       bundle.radius ** 2, {})
        group = plan.setdefault((bundle.base_dim, len(path)), [])
        group.append(block)
        bundle._planned[len(path)] = group, block
    bundle._planned[len(path)][1].rows.update(zip(
        _row_keys(path, starts), zip(itertools.repeat(path), starts)))


def _sweep_blocks(blocks: Sequence[_Block]) -> None:
    """Integrate the rows of every block in one sweep and memoize each row
    in its block's memo; a sweep that raises memoizes nothing."""
    blocks = [b for b in blocks if b.rows]
    res = _sweep([(b.rhs, b.r2, *map(np.stack, zip(*b.rows.values())))
                  for b in blocks])
    rows = zip(res.end.tolist(), res.escaped.tolist(), res.steps.tolist(),
               res.nfev.tolist())
    for b in blocks:
        b.memo.update(zip(b.rows, itertools.islice(rows, len(b.rows))))


def _transport_rows(bundle: FlatDiskBundle, path,
                    starts: Sequence[Sequence[float]]) -> BatchTransport:
    """transport_batch's rows through the bundle's row memo, keyed by path
    and start.

    A miss integrates the missing rows in one sweep with every missing row
    of the bundle's plan group: the rows planned on every bundle of the run
    with the same base_dim and vertex count, this one included.  That
    consumes the group's plan.  If the sweep raises, nothing is memoized
    and the missing rows are integrated on their own, so a fault in one
    check's rows, or in one bundle's, never becomes another's.
    """
    path, starts = _path(bundle, path), _disk_points(bundle, starts)
    memo = bundle._transported
    keys = _row_keys(path, starts)
    missing = {k: (path, x) for k, x in zip(keys, starts) if k not in memo}
    if missing:
        alone = _Block(memo, _lift_rhs(bundle), bundle.radius ** 2, missing)
        group, own = bundle._planned.get(len(path), ([], None))
        joint = [b._replace(rows={
            **(missing if b is own else {}),
            **{k: row for k, row in b.rows.items() if k not in b.memo}})
            for b in group] + ([] if own else [alone])
        try:
            _sweep_blocks(joint)
        except (ValueError, RuntimeError, ArithmeticError):
            if sum(len(b.rows) for b in joint) == len(missing):
                raise
            _sweep_blocks([alone])
        finally:
            for b in group:
                b.rows.clear()
    rows = [memo[k] for k in keys]
    return BatchTransport(end=np.array([r[0] for r in rows]).reshape(-1, 2),
                          escaped=np.array([r[1] for r in rows], dtype=bool),
                          steps=np.array([r[2] for r in rows], dtype=int),
                          nfev=np.array([r[3] for r in rows], dtype=int))


def parallel_transport(bundle: FlatDiskBundle,
                       path: Sequence[Sequence[float]],
                       x0: Sequence[float]) -> TransportResult:
    """Integrate the horizontal-lift ODE along a piecewise-linear base path,
    through the bundle's row memo."""
    res = _transport_rows(bundle, path, [x0])
    end = res.end[0]
    return TransportResult(
        end=(float(end[0]), float(end[1])), escaped=bool(res.escaped[0]),
        steps=int(res.steps[0]), nfev=int(res.nfev[0]))


def generator_loop(bundle: FlatDiskBundle, index: int
                   ) -> list[np.ndarray]:
    """The loop running once around base coordinate `index` (zero-based)."""
    if not 0 <= index < bundle.base_dim:
        raise ValueError("generator index out of range")
    start = np.zeros(bundle.base_dim)
    end = start.copy()
    end[index] = bundle.periods[index]
    return [start, end]


@dataclass(frozen=True)
class HolonomySample:
    """One sample of a holonomy map; steps and nfev are summed over the
    sample's transported rows (the point and its finite-difference
    neighbours inside the disk)."""

    point: tuple[float, float]
    image: tuple[float, float]
    escaped: bool
    jacobian: Optional[np.ndarray]
    steps: int
    nfev: int


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
             samples: Sequence[Sequence[float]]) -> list[HolonomySample]:
    """Sampled holonomy around a generator loop, with FD Jacobians.

    The five transports per sample are rows of the bundle's row memo.
    """
    loop = generator_loop(bundle, generator)
    pts = _disk_points(bundle, samples)
    rows, inside = _fd_rows(bundle, pts)
    res = _transport_rows(bundle, loop, rows[inside])
    end = np.zeros_like(rows)
    end[inside] = res.end
    void = ~inside
    void[inside] = res.escaped
    counts = np.zeros((len(rows), 2), dtype=int)
    counts[inside] = np.stack([res.steps, res.nfev], axis=1)
    end, void = end.reshape(-1, 5, 2), void.reshape(-1, 5)
    J = np.stack([end[:, 1] - end[:, 2], end[:, 3] - end[:, 4]],
                 axis=2) / (2 * FD_STEP)
    return [HolonomySample(tuple(x), tuple(e), escaped,
                           None if bad else j, steps, nfev)
            for x, e, escaped, bad, j, (steps, nfev) in zip(
                pts.tolist(), end[:, 0].tolist(), void[:, 0].tolist(),
                void.any(axis=1).tolist(), J,
                counts.reshape(-1, 5, 2).sum(axis=1).tolist())]


# ---------------------------------------------------------------------------
# CCL validation
# ---------------------------------------------------------------------------


def _fiber_grid(radius: float, step: float) -> np.ndarray:
    axis = np.arange(-radius, radius + step / 2, step)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) < radius * 0.98]


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
    fiber = bundle.fiber_chart
    if beta.chart != fiber or beta.degree != 1:
        raise ValueError("beta must be a 1-form on the fiber chart (u, v)")
    step = CCL_GRID_STEP * bundle.radius
    grid = _fiber_grid(bundle.radius, step)
    origin_norm = float(np.linalg.norm(beta.coeff_array([[0.0, 0.0]])))
    away = grid[np.hypot(grid[:, 0], grid[:, 1]) >= 2 * step]
    min_away = float(np.min(np.linalg.norm(beta.coeff_array(away), axis=1)))
    vanishing_ok = origin_norm <= tol and min_away > tol

    # d beta on the frame (d/du, d/dv) is its one coefficient
    db_vals = bundle.orientation * fm.exterior_d(beta).coeff_array(grid)[:, 0]
    positivity_ok = bool(np.min(db_vals) > tol)

    samples = _ccl_samples(bundle)
    found = [hs for g in range(bundle.base_dim)
             for hs in holonomy(bundle, g, samples)]
    mapped = [hs for hs in found if hs.jacobian is not None]
    escapes = len(found) - len(mapped)
    at_point = beta.coeff_array([hs.point for hs in mapped])
    at_image = beta.coeff_array([hs.image for hs in mapped])
    # pullback through the sampled map: (Phi^* beta)_x = J^T beta_img
    inv_residual = max((float(np.linalg.norm(hs.jacobian.T @ b_img - b_x))
                        for hs, b_x, b_img in zip(mapped, at_point, at_image)),
                       default=0.0)
    invariance_ok = escapes == 0 and inv_residual <= max(tol, 1e-6)
    return {
        "vanishing": {"origin_norm": origin_norm, "min_away": min_away,
                      "ok": vanishing_ok},
        "positivity": {"min_dbeta": float(np.min(db_vals)),
                       "ok": positivity_ok},
        "invariance": {"max_residual": inv_residual, "escapes": escapes,
                       "steps": sum(hs.steps for hs in found),
                       "nfev": sum(hs.nfev for hs in found),
                       "ok": invariance_ok},
        "ok": vanishing_ok and positivity_ok and invariance_ok,
    }


def plan_ccl(plan: dict, bundles: Sequence[FlatDiskBundle]) -> None:
    """Plan in a run's plan (see plan_transport) the holonomy rows of
    ccl_check(bundle, beta) for every generator of each bundle.  A lone
    one-generator bundle with nothing else planned in its group makes them
    one request anyway, so there is nothing to join and no plan."""
    if sum(b.base_dim == 1 for b in bundles) == 1 \
            and not any(b.rows for b in plan.get((1, 2), ())):
        bundles = [b for b in bundles if b.base_dim > 1]
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
    frame.
    """
    scan = co.singular_scan(Y, box=scan_box, step=scan_step)
    if not scan.clusters:
        raise ValueError("no singular component found in the scan region")
    if any(flag != "generic" for flag in scan.flags):
        raise ValueError("non-generic singular structure")
    lam = Y.lambda_form
    dlam = fm.exterior_d(lam)
    tilde, _ = co.build_Vk(Y)
    k = Y.source_chart.dim
    M = fm.form_matrices(dlam, points)
    if np.any(sl.skew_rank(M, tol) != 2):
        raise ValueError("non-generic singular structure")

    src = Y.source_chart
    return {
        "rank": k - 2,
        # rank 2 is certified, so each kernel is the last k - 2 rows of vh
        "kernel_bases": np.linalg.svd(M)[2][:, 2:],
        "membership_residual": sup_abs(src, [
            c for V in tilde for c in fm.interior(V, dlam).coeffs.values()],
            points),
        "integrability_residual": sup_abs(src, [
            c for Va, Vb in itertools.combinations(tilde, 2)
            for c in fm.interior(lie_bracket(Va, Vb), dlam).coeffs.values()],
            points),
        "covariant_constancy_residual": sup_abs(src, [
            c for V in tilde
            for c in fm.lie_derivative(V, lam).coeffs.values()], points),
        "scan_flags": scan.flags,
    }
