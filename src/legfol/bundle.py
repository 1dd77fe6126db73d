"""Flat disk bundles over circle/torus bases given as periodic boxes.

The horizontal distribution is declared by one lift per base coordinate;
parallel transport integrates the lift ODE along piecewise-linear base paths
with an adaptive Runge-Kutta pair. Holonomy maps are sampled point clouds
with finite-difference Jacobians, since fiber diffeomorphisms have no finite
description.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import null_space

from . import coiso as co
from . import forms as fm
from . import symplin as sl
from .fields import (
    Chart,
    ChartMismatch,
    ExprField,
    VectorFieldExpr,
    compile_exprs,
    constant,
    lie_bracket,
)

DEFAULT_ODE_TOL = 1e-8
MAX_STEPS = 10 ** 6


class TransportEscape(RuntimeError):
    """The horizontal lift left the fiber disk."""


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
    def base_chart(self) -> Chart:
        names = tuple(f"s{j}" for j in range(1, self.base_dim + 1))
        return Chart(names, self.periods)

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

    def lifts(self) -> list[VectorFieldExpr]:
        return [self.lift(j) for j in range(self.base_dim)]

    def horizontal_lift(self, X: VectorFieldExpr) -> VectorFieldExpr:
        """Lift of a base vector field to the total chart."""
        if X.chart != self.base_chart:
            raise ChartMismatch("vector field not on the base chart")
        total = self.total_chart
        comps_x = [c.on_chart(total) for c in X.components]
        u = constant(total, 0.0)
        v = constant(total, 0.0)
        for j in range(self.base_dim):
            u = u + comps_x[j] * self.lift_u[j]
            v = v + comps_x[j] * self.lift_v[j]
        return VectorFieldExpr(total, tuple(comps_x + [u, v]))


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
    vertical = tuple(
        br.components[i].expr
        for br in itertools.starmap(lie_bracket,
                                    itertools.combinations(lifts, 2))
        for i in (iu, iv))
    vals = compile_exprs(bundle.total_chart, vertical).batch(points)
    return float(np.max(np.abs(vals), initial=0.0))


@dataclass(frozen=True)
class TransportResult:
    start: tuple[float, float]
    end: tuple[float, float]
    path: tuple[tuple[float, ...], ...]
    escaped: bool
    steps: int
    nfev: int
    tol: float


def parallel_transport(bundle: FlatDiskBundle,
                       path: Sequence[Sequence[float]],
                       x0: Sequence[float],
                       ode_tol: float = DEFAULT_ODE_TOL) -> TransportResult:
    """Integrate the horizontal-lift ODE along a piecewise-linear base path."""
    verts = [np.asarray(v, dtype=float) for v in path]
    if len(verts) < 2:
        raise ValueError("path needs at least two vertices")
    for v in verts:
        if v.shape != (bundle.base_dim,):
            raise ValueError("path vertex has wrong dimension")
    x = np.asarray(x0, dtype=float)
    if np.hypot(*x) >= bundle.radius:
        raise ValueError("start point outside the fiber disk")
    r2 = bundle.radius ** 2
    steps = 0
    nfev = 0
    escaped = False
    b = bundle.base_dim
    lift = compile_exprs(bundle.total_chart, tuple(
        c.expr for c in bundle.lift_u + bundle.lift_v)).scalar
    for P, Q in zip(verts[:-1], verts[1:]):
        dP = Q - P
        p0, dp = P.tolist(), dP.tolist()

        def rhs(t, y):
            comps = lift(*[a + t * d for a, d in zip(p0, dp)], *y.tolist())
            du = sum(d * c for d, c in zip(dp, comps[:b]))
            dv = sum(d * c for d, c in zip(dp, comps[b:]))
            return [du, dv]

        def escape(t, y):
            return y[0] ** 2 + y[1] ** 2 - r2

        escape.terminal = True
        escape.direction = 1
        sol = solve_ivp(rhs, (0.0, 1.0), x, method="RK45",
                        rtol=ode_tol, atol=ode_tol, events=escape,
                        max_step=1.0, dense_output=False)
        if not sol.success:
            raise RuntimeError(f"transport integration failed: {sol.message}")
        steps += len(sol.t) - 1
        nfev += sol.nfev
        if steps > MAX_STEPS:
            raise RuntimeError("step budget exceeded")
        x = sol.y[:, -1]
        if sol.status == 1:  # escape event fired
            escaped = True
            break
    return TransportResult(
        start=(float(x0[0]), float(x0[1])), end=(float(x[0]), float(x[1])),
        path=tuple(tuple(map(float, v)) for v in verts),
        escaped=escaped, steps=steps, nfev=nfev, tol=ode_tol)


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
    point: tuple[float, float]
    image: tuple[float, float]
    escaped: bool
    jacobian: Optional[np.ndarray]

    @property
    def jacobian_det(self) -> Optional[float]:
        if self.jacobian is None:
            return None
        return float(np.linalg.det(self.jacobian))


def holonomy(bundle: FlatDiskBundle, generator: int,
             samples: Sequence[Sequence[float]],
             ode_tol: float = DEFAULT_ODE_TOL,
             fd_step: float = 1e-5) -> list[HolonomySample]:
    """Sampled holonomy around a generator loop, with FD Jacobians."""
    loop = generator_loop(bundle, generator)
    out = []
    for x in samples:
        res = parallel_transport(bundle, loop, x, ode_tol)
        if res.escaped:
            out.append(HolonomySample(tuple(map(float, x)), res.end, True, None))
            continue
        J = np.zeros((2, 2))
        ok = True
        for col, e in enumerate(np.eye(2)):
            try:
                hi = parallel_transport(bundle, loop, np.asarray(x) + fd_step * e,
                                        ode_tol)
                lo = parallel_transport(bundle, loop, np.asarray(x) - fd_step * e,
                                        ode_tol)
            except ValueError:
                ok = False
                break
            if hi.escaped or lo.escaped:
                ok = False
                break
            J[:, col] = (np.array(hi.end) - np.array(lo.end)) / (2 * fd_step)
        out.append(HolonomySample(tuple(map(float, x)), res.end, False,
                                  J if ok else None))
    return out


def covariant_derivative(bundle: FlatDiskBundle, X: VectorFieldExpr,
                         beta: fm.DiffForm) -> fm.DiffForm:
    """Lie derivative of a total-chart form along the horizontal lift of X."""
    if beta.chart != bundle.total_chart:
        raise ChartMismatch("form not on the bundle's total chart")
    return fm.lie_derivative(bundle.horizontal_lift(X), beta)


# ---------------------------------------------------------------------------
# CCL validation
# ---------------------------------------------------------------------------


def _fiber_grid(radius: float, step: float) -> np.ndarray:
    axis = np.arange(-radius, radius + step / 2, step)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    return pts[np.hypot(pts[:, 0], pts[:, 1]) < radius * 0.98]


def ccl_check(bundle: FlatDiskBundle, beta: fm.DiffForm,
              grid_step: float = 0.1, tol: float = 1e-6,
              ode_tol: float = DEFAULT_ODE_TOL,
              invariance_samples: int = 8) -> dict:
    """Validate the three defining conditions of a fiber 1-form.

    (1) invariance under the sampled holonomy of each generator,
    (2) vanishing exactly at the fiber origin,
    (3) positive exterior derivative on the oriented fiber frame.
    Failures are report entries, never exceptions.
    """
    fiber = bundle.fiber_chart
    if beta.chart != fiber or beta.degree != 1:
        raise ValueError("beta must be a 1-form on the fiber chart (u, v)")
    grid = _fiber_grid(bundle.radius, grid_step)

    def beta_covec(p):
        c = np.zeros(2)
        for (i,), f in beta.coeffs.items():
            c[i] = f.eval(p)
        return c

    origin_norm = float(np.linalg.norm(beta_covec([0.0, 0.0])))
    away = grid[np.hypot(grid[:, 0], grid[:, 1]) >= 2 * grid_step]
    min_away = float(np.min(np.linalg.norm(beta.coeff_array(away), axis=1)))
    vanishing_ok = origin_norm <= tol and min_away > tol

    # d beta on the frame (d/du, d/dv) is its one coefficient
    db_vals = bundle.orientation * fm.exterior_d(beta).coeff_array(grid)[:, 0]
    positivity_ok = bool(np.min(db_vals) > tol)

    rng = np.random.default_rng(0)
    radii = rng.uniform(0.2, 0.7, invariance_samples) * bundle.radius
    angles = rng.uniform(0, 2 * np.pi, invariance_samples)
    samples = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    inv_residual = 0.0
    escapes = 0
    for g in range(bundle.base_dim):
        for hs in holonomy(bundle, g, samples, ode_tol):
            if hs.escaped or hs.jacobian is None:
                escapes += 1
                continue
            x = np.array(hs.point)
            img = np.array(hs.image)
            # pullback through the sampled map: (Phi^* beta)_x = J^T beta_img
            resid = np.linalg.norm(hs.jacobian.T @ beta_covec(img)
                                   - beta_covec(x))
            inv_residual = max(inv_residual, float(resid))
    invariance_ok = escapes == 0 and inv_residual <= max(tol, 1e-6)
    return {
        "vanishing": {"origin_norm": origin_norm, "min_away": min_away,
                      "ok": vanishing_ok},
        "positivity": {"min_dbeta": float(np.min(db_vals)),
                       "ok": positivity_ok},
        "invariance": {"max_residual": inv_residual, "escapes": escapes,
                       "ok": invariance_ok},
        "ok": vanishing_ok and positivity_ok and invariance_ok,
    }


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
    eye = np.eye(k)
    bases = []
    membership = 0.0
    integrability = 0.0
    cov_const = 0.0
    for p in points:
        M = np.zeros((k, k))
        for i in range(k):
            for j in range(i + 1, k):
                M[i, j] = dlam.evaluate(p, [eye[i], eye[j]])
                M[j, i] = -M[i, j]
        if sl.numeric_rank(M, tol) != 2:
            raise ValueError("non-generic singular structure")
        bases.append(null_space(M, rcond=tol).T)
        for V in tilde:
            membership = max(membership, fm.interior(V, dlam).max_coeff(p))
            cov_const = max(cov_const, fm.lie_derivative(V, lam).max_coeff(p))
        for Va, Vb in itertools.combinations(tilde, 2):
            br = lie_bracket(Va, Vb)
            integrability = max(
                integrability, fm.interior(br, dlam).max_coeff(p))
    return {
        "rank": k - 2,
        "kernel_bases": bases,
        "membership_residual": membership,
        "integrability_residual": integrability,
        "covariant_constancy_residual": cov_const,
        "scan_flags": scan.flags,
    }
