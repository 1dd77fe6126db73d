"""The batched checks against the per-sample loops they replaced.

Each reference below is the loop a check ran before it moved onto the
compiled batch.  It evaluates its fields over the samples through the batch,
forms on vectors by the determinant convention (oracles.form_values), and
then loops over the samples, with one SVD or scipy null space per sample.
The batched checks must give the same verdicts, refusals, kernel
dimensions, counts, diagnostics and mismatch lists (in the same order),
residuals within 1e-12 relative (1e-15 absolute near zero), and raise
EvaluationError on the same samples.  Two checks replaced a comparison
rather than a loop: zero-section's closed-form kernel test is held to the
SVD comparison it replaced (svd_same_kernels), and interpolation's one pencil
build over tau to one build per parameter value (walk_pencil).  The closed
form of the kernel bases, one Householder reflector
(oracles.hyperplane_bases), is held to the SVD (oracles.svd_hyperplane_bases),
and char-foliation's rank-2 update of d lambda (symplin.restrict_to_kernel)
to P W P^T on those bases.  char-foliation's kernel, d lambda on ker lambda,
is held to a per-sample loop of that definition on every graph
(walk_char_kernel), and to the defining-form loop it replaced
(walk_char_foliation) on the coisotropic graphs, where the paper says the
two kernels agree.
"""

import copy
import dataclasses
import functools
import gc
import importlib.util
import itertools
import math
import re
import time
import tracemalloc
import weakref
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import null_space

from legfol import bundle as bd
from legfol import coiso as co
from legfol import forms as fm
from legfol import germ as gm
from legfol import runner
from legfol import symplin as sl
from legfol.fields import (
    Chart,
    CompiledExprs,
    EvaluationError,
    ExprField,
    compile_exprs,
    constant,
    coordinate,
    parse_field,
    vector_field,
)
from legfol.scenario import Scenario, parse_scenario
from oracles import (
    build_Vk,
    difference,
    embedding,
    exterior_d,
    form_values,
    hyperplane_bases,
    interior,
    lie_bracket,
    lie_derivative,
    principal_minor_residual,
    pullback,
    pushforward_field,
    residual_fields,
    scale,
    svd_count,
    svd_hyperplane_bases,
    top_form,
    values,
    wedge,
    wedge_power,
)


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# The per-sample loops
# ---------------------------------------------------------------------------


def max_coeffs(form, points):
    """Largest |coefficient| of a form at each point, (N,), 0 for none."""
    return np.max(np.abs(form.coeff_array(points)), axis=1, initial=0.0)


def walk_residuals(Y, points):
    """Per point, every residual equation's value and the two maxima, from
    the symbolic equations of oracles.residual_fields."""
    fams = residual_fields(Y)
    labels = [(key, idx) for key, fam in fams.items() for idx in fam]
    vals = compile_exprs(Y.source_chart, tuple(  # no labels when n = 1
        fams[key][idx].expr for key, idx in labels)).batch(points)
    out = []
    for row in vals:
        r = {key: {} for key in fams}
        for (key, idx), v in zip(labels, row):
            r[key][idx] = float(v)
        binding = [v for key in ("eq_abn", "eq_abyn", "eq_a")
                   for v in r[key].values()]
        r["max_residual"] = max((abs(v) for v in binding), default=0.0)
        r["redundant_max"] = max(
            (abs(v) for v in r["eq_abc"].values()), default=0.0)
        out.append(r)
    return out


def walk_claim(Y, points, tol):
    bad = []
    for p, r in zip(points, walk_residuals(Y, points)):
        if r["max_residual"] > tol:
            bad.append((list(map(float, p)), r["max_residual"]))
    if bad:
        return {"refused": True, "diagnostics": bad[:10],
                "num_bad": len(bad)}
    tilde = build_Vk(Y)
    alpha = co.standard_alpha(Y.n)
    lam = Y.lambda_form
    dlam = exterior_d(lam)
    emb = embedding(Y)
    # each field's ambient image, extended off the graph by keeping its
    # source-variable coefficients constant in the other directions
    ambient = [vector_field(Y.ambient, [c.on_chart(Y.ambient) for c in
                                        pushforward_field(emb, Vt)])
               for Vt in tilde]
    image = values(emb.components, points)
    res = dict.fromkeys(("i_V_alpha", "i_V_dlambda", "bracket",
                         "lie_lambda", "lambda_ab"), 0.0)

    def update(key, per_point):
        res[key] = float(np.max(np.abs(per_point), initial=res[key]))

    for Vt, Va in zip(tilde, ambient):
        update("i_V_alpha", interior(Va, alpha).coeff(()).compile()(image))
        update("i_V_dlambda", max_coeffs(interior(Vt, dlam), points))
        update("lie_lambda", max_coeffs(lie_derivative(Vt, lam), points))
    for Vt, Wt in itertools.combinations(tilde, 2):
        update("bracket", values(
            pushforward_field(emb, lie_bracket(Vt, Wt)), points))
    lambda_ab = list(residual_fields(Y)["lambda_ab"].values())
    if lambda_ab:
        update("lambda_ab", values(lambda_ab, points))
    res["refused"] = False
    return res


def walk_contraction_matrix(omega, coeffs):
    """The matrix of i_(.) omega from omega's coefficients at one point, in
    coeff_array's column order."""
    dim = omega.chart.dim
    rows = {idx: r for r, idx in enumerate(
        itertools.combinations(range(dim), omega.degree - 1))}
    M = np.zeros((len(rows), dim))
    for idx, v in zip(itertools.combinations(range(dim), omega.degree),
                      coeffs):
        for pos, i in enumerate(idx):
            M[rows[idx[:pos] + idx[pos + 1:]], i] += (-1) ** pos * v
    return M


def walk_char_foliation(Y, points, tol):
    n, k = Y.n, Y.k
    alpha = co.standard_alpha(n)
    dalpha = exterior_d(alpha)
    emb = embedding(Y)
    omega = pullback(emb, wedge(alpha, wedge_power(dalpha, k - n - 1)))
    integ = pullback(emb, wedge_power(dalpha, k - n)) \
        if 2 * (k - n) <= k else None
    lam = Y.lambda_form
    deg = 2 * (k - n)
    dims, at, frames = [], [], []
    for p, covec, lmax, oc in zip(points, lam.coeff_array(points),
                                  max_coeffs(lam, points),
                                  omega.coeff_array(points)):
        if lmax <= tol:
            continue
        M = walk_contraction_matrix(omega, oc)
        s = np.linalg.svd(M, compute_uv=False)
        dims.append(k - int(np.sum(s > tol * max(1.0, np.max(np.abs(M))))))
        W = null_space(covec.reshape(1, -1), rcond=1e-12).T
        if integ is not None and deg <= len(W):
            for combo in itertools.combinations(range(len(W)), deg):
                at.append(p)
                frames.append(W[list(combo)])
    worst = float(np.max(np.abs(form_values(integ, at, frames)))) \
        if frames else 0.0
    return {"kernel_dims": dims, "integrability_residual": worst,
            "samples_used": len(dims)}


def walk_char_kernel(Y, points, tol):
    """dim ker(d lambda on ker lambda) at each nonsingular sample: the
    covector, scipy's kernel basis B of it and the SVD rank of B M B^T, with
    M the walked matrix of d lambda."""
    lam = Y.lambda_form
    dlam = exterior_d(lam)
    dims = []
    for covec, M in zip(lam.coeff_array(points),
                        walk_form_matrices(dlam, points)):
        if np.max(np.abs(covec)) <= tol:
            continue
        B = null_space(covec[None], rcond=1e-12).T
        S = B @ M @ B.T
        s = np.linalg.svd(S, compute_uv=False)
        rank = int(np.sum(s > tol * max(1.0, np.max(np.abs(S)))))
        dims.append(len(B) - rank)
    return dims


def walk_zero_section(g, expected, points, tol):
    restricted = g.restricted
    base = restricted.chart
    diff = difference(restricted, expected)
    idxs = [(i,) for i in range(base.dim)]  # coordinate order
    residuals = np.abs(values([diff.coeff(idx) for idx in idxs], points))
    mismatches = []
    max_resid = 0.0
    for p, row in zip(points, residuals):
        for idx, r in zip(idxs, row):
            if r > tol:
                mismatches.append(
                    {"point": list(map(float, p)),
                     "index": [base.var_names[i] for i in idx],
                     "residual": float(r)})
            max_resid = max(max_resid, r)
    kernel_ok = True
    singular_points = 0
    for covec, exp_covec in zip(restricted.coeff_array(points),
                                expected.coeff_array(points)):
        if np.linalg.norm(exp_covec) <= 1e-8:
            singular_points += 1
            if np.linalg.norm(covec) > 1e-8:
                kernel_ok = False
            continue
        k0 = sl.span(null_space(covec.reshape(1, -1), rcond=1e-12).T,
                     base.dim)
        k1 = sl.span(null_space(exp_covec.reshape(1, -1), rcond=1e-12).T,
                     base.dim)
        if not k0.equals(k1, 1e-8):
            kernel_ok = False
    return {"max_residual": max_resid, "mismatches": mismatches[:10],
            "kernel_ok": kernel_ok, "singular_samples": singular_points,
            "passed": not mismatches and kernel_ok}


def walk_flatness(bundle, points):
    lifts = bundle.lifts()
    iu, iv = bundle.base_dim, bundle.base_dim + 1
    worst = 0.0
    for a, b in itertools.combinations(range(len(lifts)), 2):
        br = lie_bracket(lifts[a], lifts[b])
        vertical = values([br.components[iu], br.components[iv]], points)
        worst = max(worst, float(np.max(np.abs(vertical))))
    return worst


def walk_foliation_residual(Y, points):
    alpha = co.standard_alpha(Y.n)
    three = pullback(embedding(Y), wedge(alpha, exterior_d(alpha)))
    return float(np.max(max_coeffs(three, points)))


def walk_ccl_grid(bundle, beta, grid_step=0.1):
    """min |beta| away from the origin and min d beta over the fiber grid."""
    grid = bd._fiber_grid(bundle.radius, grid_step)
    away = grid[np.hypot(grid[:, 0], grid[:, 1]) >= 2 * grid_step]
    min_away = min(np.linalg.norm(c) for c in beta.coeff_array(away))
    dbeta = exterior_d(beta)
    frame = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    min_db = min(bundle.orientation * form_values(dbeta, grid, frame))
    return min_away, min_db


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def graph(n, k=None, **texts):
    k = n + 1 if k is None else k
    src = co.graph_submanifold(n, k).source_chart
    return co.graph_submanifold(
        n, k, {key: parse_field(src, t) for key, t in texts.items()})


def random_coisotropic(n, rng):
    """z(x_n, y_n) with the other y's zero: coisotropic for every choice."""
    a, b, c = (rng.uniform(0.5, 2.0, 3) * rng.choice([-1, 1], 3)).tolist()
    return graph(n, z=f"({a!r} * x{n}^2 + {b!r} * y{n}^2) / 2"
                      f" + {c!r} * sin(x{n}) * y{n}")


def samples(Y, rng, count=40):
    return rng.uniform(-0.9, 0.9, (count, Y.source_chart.dim))


def assert_close_dicts(got, want):
    assert set(got) == set(want)
    for key, value in want.items():
        assert close(got[key], value), key


# ---------------------------------------------------------------------------
# residuals and claim
# ---------------------------------------------------------------------------


class TestResiduals:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_coisotropic(self, n, rng):
        Y = random_coisotropic(n, rng)
        self.compare(Y, samples(Y, rng))

    @pytest.mark.parametrize("texts", [{"y1": "1.3 * x1 * x2"},
                                       {"z": "x1^2"},
                                       {"y1": "x1 * x3", "z": "x1^2 + x2 * y3"},
                                       {"y1": "x2 * x4", "y2": "sin(x3)",
                                        "z": "x1 * y4"}])
    def test_not_coisotropic(self, texts, rng):
        n = 2 + (len(texts) > 1) + (len(texts) > 2)
        Y = graph(n, **texts)
        self.compare(Y, samples(Y, rng))

    def test_overflow_raises_as_a_batch_does(self):
        # finite partials whose product overflows at row 3 only
        Y = graph(2, y1="exp(400 * y2)", z="exp(400 * x2)")
        pts = np.zeros((5, 3))
        pts[3] = [0.1, 0.9, 0.9]
        want = outcome(walk_residuals, Y, pts)
        assert want == (EvaluationError,
                        "row 3, point [0.1, 0.9, 0.9]: non-finite value")
        assert outcome(co.residual_values, Y, pts) == want

    def compare(self, Y, pts):
        table = co.residual_values(Y, pts)
        for row, (p, want) in enumerate(zip(pts, walk_residuals(Y, pts))):
            one = co.residual_values(Y, [p])
            for key in ("max_residual", "redundant_max"):
                assert close(table[key][row], want[key])
                assert close(one[key][0], want[key])
            for key in residual_fields(Y):
                assert set(table[key]) == set(want[key])
                for idx, v in want[key].items():
                    assert close(table[key][idx][row], v)
                    assert close(one[key][idx][0], v)


class TestClaim:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_coisotropic(self, n, rng):
        Y = random_coisotropic(n, rng)
        pts = samples(Y, rng)
        got, want = co.verify_claim(Y, pts, 1e-9), walk_claim(Y, pts, 1e-9)
        assert not got["refused"] and not want["refused"]
        assert got["passed"]
        assert_close_dicts(
            {key: got[key] for key in want if key != "refused"},
            {key: v for key, v in want.items() if key != "refused"})

    @pytest.mark.parametrize("tol", [1e-8, 0.05, 0.5])
    def test_twisted_refusal(self, tol, rng):
        # at tol 0.05 and 0.5 only some samples are bad
        Y = graph(2, y1="1.3 * x1 * x2")
        pts = samples(Y, rng)
        got, want = co.verify_claim(Y, pts, tol), walk_claim(Y, pts, tol)
        assert got["refused"] and want["refused"]
        assert got["num_bad"] == want["num_bad"]
        assert len(got["diagnostics"]) == len(want["diagnostics"])
        for (gp, gr), (wp, wr) in zip(got["diagnostics"],
                                      want["diagnostics"]):
            assert gp == wp
            assert close(gr, wr)
        if tol > 1e-8:
            assert 0 < got["num_bad"] < len(pts)


# ---------------------------------------------------------------------------
# char-foliation
# ---------------------------------------------------------------------------


def with_singular_sample(Y, pts):
    """Prepend a sample where every free y vanishes (and x_n, for the
    random hypersurfaces), a zero of the restricted form."""
    p = np.zeros(Y.source_chart.dim)
    p[0] = 0.3
    return np.vstack([p, pts])


class TestCharFoliation:
    @pytest.mark.parametrize("n, k", [(2, 3), (2, 4), (3, 4), (3, 5), (3, 6),
                                      (4, 6)])
    def test_flat(self, n, k, rng):
        Y = co.graph_submanifold(n, k)
        self.compare(Y, with_singular_sample(Y, samples(Y, rng)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_coisotropic(self, n, rng):
        Y = random_coisotropic(n, rng)
        self.compare(Y, with_singular_sample(Y, samples(Y, rng)))

    @pytest.mark.parametrize("Y, coisotropic", [
        (graph(2, y1="1.3 * x1 * x2"), False),
        (graph(2, 4, z="x1 * y2 + sin(y1)"), True),
        (graph(3, 5, z="x1 * y3 + x2^2 * y2"), True),
    ], ids=["twisted", "curved-n2k4", "curved-n3k5"])
    def test_curved(self, Y, coisotropic, rng):
        self.compare(Y, samples(Y, rng), coisotropic)

    @pytest.mark.parametrize("n, k", [(2, 3), (3, 4), (3, 5), (3, 6)],
                             ids=["hyper2", "hyper3", "flat-codim2",
                                  "flat-codim1"])
    def test_benchmark_shapes_make_no_svd(self, n, k, rng, svd_calls):
        """The graph shapes of the pointwise-identities benchmark: every
        sample's rank is certified by the skew elimination, so no SVD runs,
        and the kernel dimensions are the SVD's."""
        Y = random_coisotropic(n, rng) if k == n + 1 \
            else co.graph_submanifold(n, k)
        pts = rng.uniform(-0.9, 0.9, (1000, Y.source_chart.dim))
        got = co.char_foliation_form(Y, pts, 1e-8)
        assert svd_calls == []
        assert got["kernel_dims"] == walk_char_kernel(Y, pts, 1e-8)
        assert got["kernel_ok"]

    def compare(self, Y, pts, coisotropic=True):
        got = co.char_foliation_form(Y, pts, 1e-8)
        dims = walk_char_kernel(Y, pts, 1e-8)
        want = walk_char_foliation(Y, pts, 1e-8)
        assert got["kernel_dims"] == dims
        if coisotropic:
            assert want["kernel_dims"] == dims
        else:  # d lambda is nondegenerate on ker lambda
            assert dims and set(dims) == {0}
        assert got["samples_used"] == want["samples_used"]
        # The pivot residual is m! |Pf| of one principal 2m-minor of S: at
        # 2m = k - 1 that of S itself, which the walk's orthonormal basis of
        # ker lambda does not change, 0 above it, and otherwise at most the
        # minors' largest on the same S.
        m = Y.k - Y.n
        if 2 * m >= Y.k - 1:
            assert close(got["integrability_residual"],
                         want["integrability_residual"])
        else:
            a, W = Y.lambda_jet(pts)
            keep = np.max(np.abs(a), axis=0) > 1e-8
            S = sl.restrict_to_kernel(a[:, keep], W[:, :, keep])
            bound = np.max(principal_minor_residual(
                S.transpose(2, 0, 1), m), initial=0.0)
            assert got["integrability_residual"] <= bound * (1 + 1e-12)
        assert got["kernel_ok"] == all(
            d == 2 * Y.n - Y.k + 1 for d in dims)


def svd_same_kernels(c0, c1, tol=1e-8):
    """The kernel comparison zero-section made before the closed form: equal
    spans of the stacked hyperplane bases, by a batched rank test, and c0
    nonzero."""
    A, B = svd_hyperplane_bases(c0), svd_hyperplane_bases(c1)
    same = sl.stacked_rank(np.concatenate([A, B], axis=1), tol) \
        == A.shape[1]
    return same & np.any(c0 != 0, axis=1)


def pencil_at(g0, g1, t):
    """(1-t) alpha_0 + t alpha_1 built for one t, with constant factors."""
    return scale(g0.alpha, 1.0 - t) + scale(g1.alpha, t)


def walk_pencil(g0, g1, points):
    """interpolation's loop before the one-build pencil: the oracle's top
    form of the pencil rebuilt and compiled for each t."""
    return np.array([top_form(pencil_at(g0, g1, t), g0.n).coeff_array(
        points)[:, 0] for t in gm.PENCIL_T])


def rebuilt_pencil(g0, g1, points):
    """The package's top coefficient of the pencil rebuilt and compiled
    for each t."""
    rows = []
    for t in gm.PENCIL_T:
        alpha_t = pencil_at(g0, g1, t)
        top = fm.top_coeff(tuple(alpha_t.coeff((i,)).expr
                                 for i in range(g0.chart.dim)),
                           g0.chart.var_names)
        rows.append(ExprField(g0.chart, top).compile()(points))
    return np.array(rows)


# ---------------------------------------------------------------------------
# zero-section
# ---------------------------------------------------------------------------


def nonsingular_germ(n, f_text):
    ch = gm.foliated_chart(n)
    line = vector_field(ch, [1.0] + [parse_field(ch, f"0.4 * x{i % n + 1}")
                                     for i in range(1, n + 1)])
    inp = gm.FoliatedInput(n=n, beta=fm.one_form(
        ch, {"t": parse_field(ch, f_text)}), line_field=line)
    return gm.build_nonsingular_germ(inp)


def singular_germ(rates=(0.7,)):
    b = bd.rotation_bundle(list(rates))
    fiber = b.fiber_chart
    area = fm.one_form(fiber, {"u": -coordinate(fiber, "v"),
                               "v": coordinate(fiber, "u")})
    return gm.build_singular_germ(b, area)


def section_form(g, **texts):
    base = g.restricted.chart
    return fm.one_form(base, {v: parse_field(base, t)
                              for v, t in texts.items()})


F = "2 + 0.3 * sin(x1) + 0.2 * cos(t)"
SECTION_CASES = [
    ("nonsingular-n1", lambda: nonsingular_germ(1, F), {"t": F}),
    ("nonsingular-n3", lambda: nonsingular_germ(3, F), {"t": F}),
    # differs where |x1| > 0.1: a coefficient mismatch with equal kernels
    ("nonsingular-shifted", lambda: nonsingular_germ(2, F),
     {"t": F + " + 1e-9 * x1"}),
    ("nonsingular-tilted", lambda: nonsingular_germ(2, F),
     {"t": F, "x2": "0.01 * x1"}),
    ("singular", singular_germ, {"u": "-v", "v": "u"}),
    ("singular-doubled", singular_germ, {"u": "-2 * v", "v": "2 * u"}),
    ("singular-tilted", singular_germ, {"u": "-v", "v": "u", "s1": "0.5"}),
    # nonzero at the fiber origin, where the restricted form vanishes
    ("singular-offset", singular_germ, {"u": "1 - v", "v": "u"}),
]


class TestZeroSection:
    @pytest.mark.parametrize("make, texts",
                             [case[1:] for case in SECTION_CASES],
                             ids=[case[0] for case in SECTION_CASES])
    def test_against_walk(self, make, texts, rng):
        g = make()
        expected = section_form(g, **texts)
        base = g.restricted.chart
        pts = rng.uniform(-0.9, 0.9, (30, base.dim))
        # a sample on the fiber origin, the singular set of singular builds
        pts[0, [base.index(v) for v in ("u", "v") if v in base.var_names]] = 0
        got = gm.zero_section_foliation_check(g, expected, pts, 1e-10)
        want = walk_zero_section(g, expected, pts, 1e-10)
        assert close(got.pop("max_residual"), want.pop("max_residual"))
        got_mis, want_mis = got.pop("mismatches"), want.pop("mismatches")
        assert [(m["point"], m["index"]) for m in got_mis] \
            == [(m["point"], m["index"]) for m in want_mis]
        for gm_, wm in zip(got_mis, want_mis):
            assert close(gm_["residual"], wm["residual"])
        assert got == want

    def test_zero_restricted_covector(self, rng):
        # alpha restricts to x1 dt, which vanishes on x1 = 0 where the
        # expected dt does not; elsewhere the two kernels agree
        total = gm.germ_chart(1)
        alpha = fm.one_form(total, {"t": coordinate(total, "x1"),
                                    "x1": -coordinate(total, "y1")})
        g = gm.GermForm(n=1, alpha=alpha, zero_section_vars=("y1",),
                        kind="custom")
        expected = section_form(g, t="1")
        pts = rng.uniform(0.1, 0.9, (10, 2))
        for zero_row, kernel_ok in ((False, True), (True, False)):
            pts[3, 1] = 0.0 if zero_row else 0.5
            got = gm.zero_section_foliation_check(g, expected, pts)
            want = walk_zero_section(g, expected, pts, 1e-10)
            assert got["kernel_ok"] is want["kernel_ok"] is kernel_ok
            assert not got["passed"]


# ---------------------------------------------------------------------------
# interpolation: one pencil build over tau against one build per t
# ---------------------------------------------------------------------------


class TestPencil:
    @pytest.mark.parametrize("rates", [(0.7,), (0.7, 1.3)], ids=["n2", "n3"])
    def test_singular_bit_equal(self, rates, rng, monkeypatch):
        g0 = singular_germ(rates)
        g1 = singular_germ(tuple(2.1 * r for r in rates))
        pts = gm.scan_points(g0, rng, 40)
        got = gm.pencil_values(g0, g1, pts)
        assert got.shape == (len(gm.PENCIL_T), 40)
        assert np.array_equal(got, walk_pencil(g0, g1, pts))
        # batches that start and end inside a value of t
        for block in (7, 50, 130):
            monkeypatch.setattr(gm, "SCAN_BLOCK_ROWS", block)
            assert np.array_equal(gm.pencil_values(g0, g1, pts), got)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_nonsingular_within_an_ulp(self, n, rng):
        g0 = nonsingular_germ(n, F)
        g1 = nonsingular_germ(n, "1.5 + 0.4 * cos(x1) * sin(t)")
        pts = gm.scan_points(g0, rng, 40)
        got = gm.pencil_values(g0, g1, pts)
        want = walk_pencil(g0, g1, pts)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        # one build over tau equals a build per t; scale(0) and scale(1)
        # fold constants that tau keeps, so only the end rows may differ
        rebuilt = rebuilt_pencil(g0, g1, pts)
        np.testing.assert_allclose(got, rebuilt, rtol=1e-15, atol=0)
        assert np.array_equal(got[1:-1], rebuilt[1:-1])

    def test_one_build_per_check(self, rng, monkeypatch):
        gm._pencil.cache_clear()  # an earlier test may have built this pair
        calls = []
        top_coeff = fm.top_coeff
        monkeypatch.setattr(fm, "top_coeff",
                            lambda *a: calls.append(a) or top_coeff(*a))
        g0, g1 = singular_germ(), singular_germ((2.1,))
        expected = section_form(g0, u="-v", v="u")
        res = gm.interpolation_contactness(g0, g1, expected,
                                           gm.scan_points(g0, rng, 20))
        assert res["passed"] and len(calls) == 1
        # the pencil's coefficients read tau; d is taken over the germ
        # coordinates only
        coeffs, names = calls[0]
        assert names == g0.chart.var_names
        assert any("tau" in c.variables() for c in coeffs)

    @pytest.mark.parametrize("samples, block", [
        (20, None), (1000, None), (5000, None), (20, 50), (20, 7)])
    def test_batches_per_check(self, samples, block, rng, monkeypatch):
        if block is not None:
            monkeypatch.setattr(gm, "SCAN_BLOCK_ROWS", block)
        block = max(samples, gm.SCAN_BLOCK_ROWS)
        g0, g1 = singular_germ(), singular_germ((2.1,))
        expected = section_form(g0, u="-v", v="u")
        pts = gm.scan_points(g0, rng, samples)
        # every batch by (rows, columns), and every forms.jet by its form
        # and points
        batches, jets = [], []
        batch, jet = CompiledExprs.batch, fm.jet

        def counted(self, points):
            batches.append(np.shape(points))
            return batch(self, points)

        def counted_jet(omega, points):
            jets.append((omega, np.asarray(points).tolist()))
            return jet(omega, points)

        monkeypatch.setattr(CompiledExprs, "batch", counted)
        monkeypatch.setattr(fm, "jet", counted_jet)
        runs = []
        for _ in range(2):
            misses = gm._pencil.cache_info().misses
            res = gm.interpolation_contactness(g0, g1, expected, pts)
            assert res["passed"]
            runs.append((gm._pencil.cache_info().misses - misses,
                         batches[:], jets[:]))
            del batches[:], jets[:]
        # the coefficients of g0's restricted form, the expected form and
        # g1's restricted form, one batch each in check order; then one
        # forms.jet per germ at the origin; then the pencil in batches of
        # whole values of t, per of them, at most max(N, block) rows each
        dim, base = g0.chart.dim, expected.chart.dim
        origin = [[0.0] * base]
        assert runs[0][2] == [(g0.restricted, origin), (g1.restricted, origin)]
        section, signs, pencil = (runs[0][1][:3], runs[0][1][3:5],
                                  runs[0][1][5:])
        assert section == [(samples, base)] * 3
        assert signs == [(1, base)] * 2
        per = max(1, gm.SCAN_BLOCK_ROWS // samples)
        assert len(pencil) == -(-len(gm.PENCIL_T) // per)
        assert all(c == dim + 1 and rows <= block and rows % samples == 0
                   for rows, c in pencil)
        assert sum(rows for rows, _ in pencil) == len(gm.PENCIL_T) * samples
        # a second run builds no pencil and makes the same batches
        assert runs[1] == (0, runs[0][1], runs[0][2])

    @pytest.mark.parametrize("block", [None, 50, 7])
    def test_fault_names_the_per_t_row(self, block, rng, monkeypatch):
        if block is not None:
            monkeypatch.setattr(gm, "SCAN_BLOCK_ROWS", block)
        # alpha_1 = E dt - y1 dx1 + E dy1, E = exp(700 x1): the pencil's top
        # coefficient holds (t E)(t d E / dx1), which overflows at t > 0
        # where x1 is large, and is finite everywhere at t = 0
        total = gm.germ_chart(1)
        g0 = nonsingular_germ(1, F)
        E = parse_field(total, "exp(700 * x1)")
        alpha1 = fm.one_form(total, {"t": E, "x1": -coordinate(total, "y1"),
                                     "y1": E})
        g1 = gm.GermForm(n=1, alpha=alpha1, zero_section_vars=("y1",),
                         kind="custom")
        pts = rng.uniform(-0.4, 0.4, (20, 3))
        pts[[6, 13], 1] = (0.5034, 0.8)  # failing from t = 0.5, from 0.1
        want = None
        compiled = gm._pencil(g0.chart, g0.coeffs, g1.coeffs)
        for t in gm.PENCIL_T:
            try:
                compiled.batch(np.column_stack([pts, np.full(20, t)]))
            except EvaluationError as exc:
                want = str(exc)
                break
        assert want is not None and ", 0.1]: " in want
        with pytest.raises(EvaluationError) as exc:
            gm.pencil_values(g0, g1, pts)
        assert str(exc.value) == want


def fiber_germ(u_text):
    """alpha = dz + a du + u dv on (u, v, z), the zero section z = 0 and
    the fiber pair (u, v); a is u_text."""
    total = gm.singular_germ_chart(1)
    alpha = fm.one_form(total, {"z": 1.0, "u": parse_field(total, u_text),
                                "v": coordinate(total, "u")})
    return gm.GermForm(n=1, alpha=alpha, zero_section_vars=("z",),
                       kind="custom", fiber_pair=("u", "v"))


def raised(fn, *args) -> str:
    with pytest.raises(EvaluationError) as exc:
        fn(*args)
    return str(exc.value)


class TestJointFaults:
    """interpolation evaluates g0's restricted form, the expected form and
    g1's restricted form alone, in the order the checks read them, and then
    each germ's jet at the singular set, g0's first: the first of them that
    fails raises its own error."""

    # each text fails at the base point whose u it names; a later form
    # fails on an earlier row
    FAULTS = {"g0": "-v + 1 / (u - 0.7)", "expected": "-v + 1 / (u - 0.5)",
              "g1": "-v + 1 / (u - 0.3)"}

    @pytest.mark.parametrize("faulty", [
        ("g0", "expected", "g1"), ("expected", "g1"), ("g1",),
        ("g0", "g1")])
    def test_section_fault_order(self, faulty, rng):
        text = {name: self.FAULTS[name] if name in faulty else "-v"
                for name in self.FAULTS}
        g0, g1 = fiber_germ(text["g0"]), fiber_germ(text["g1"])
        expected = section_form(g0, u=text["expected"], v="u")
        pts = gm.scan_points(g0, rng, 12)
        pts[[9, 5, 2], 0] = (0.7, 0.5, 0.3)
        base = pts[:, :2]
        first = {"g0": g0.restricted, "expected": expected,
                 "g1": g1.restricted}[faulty[0]]
        want = raised(first.coeff_array, base)
        assert raised(gm.interpolation_contactness, g0, g1, expected,
                      pts) == want
        if "g1" not in faulty:
            assert raised(gm.zero_section_foliation_check, g0, expected,
                          base) == want

    def test_coorientation_fault_order(self):
        # At the origin g0's u-coefficient overflows a product, which no
        # check catches, and g1's divides by zero, which the generated code
        # raises on at once; on the samples both equal the expected -v.
        huge = "exp(700 - 1000 * (u * u + v * v))"
        g0 = fiber_germ(f"-v + {huge} * {huge}")
        g1 = fiber_germ("-v * ((u * u + v * v) / (u * u + v * v))")
        expected = section_form(g0, u="-v", v="u")
        pts = np.array([[0.9, 0.9, 0.1], [-0.9, 0.8, 0.0],
                        [0.85, -0.9, -0.2]])
        origin = np.zeros((1, 2))
        for first, second in ((g0, g1), (g1, g0)):
            with pytest.raises(EvaluationError) as want:
                fm.jet(first.restricted, origin)
            assert raised(gm.interpolation_contactness, first, second,
                          expected, pts) == str(want.value)
        assert "non-finite" in raised(fm.jet, g0.restricted, origin)


# ---------------------------------------------------------------------------
# flatness, foliation residual, CCL grid
# ---------------------------------------------------------------------------


def sheared_bundle():
    total = Chart(("s1", "s2", "u", "v"), (1.0, 1.0, None, None))
    s1, u, v = (coordinate(total, name) for name in ("s1", "u", "v"))
    zero = constant(total, 0.0)
    return bd.FlatDiskBundle(2, (1.0, 1.0), 1.0, (zero, s1 * v),
                             (zero - u, zero))


def radial_bundle():
    """Lift d/ds + 0.6 (u d/du + v d/dv): the loop scales the fiber by
    e^0.6, so samples beyond radius e^-0.6 escape."""
    total = Chart(("s1", "u", "v"), (1.0, None, None))
    u, v = coordinate(total, "u"), coordinate(total, "v")
    return bd.FlatDiskBundle(1, (1.0,), 1.0, (0.6 * u,), (0.6 * v,))


class TestSatellitePorts:
    @pytest.mark.parametrize("make", [
        lambda: bd.rotation_bundle([0.9]),
        lambda: bd.rotation_bundle([0.9, 1.7]),
        lambda: bd.rotation_bundle([0.9, 1.7, -0.4], periods=[1.0, 2.0, 0.5]),
        sheared_bundle,
    ], ids=["circle", "torus", "three-torus", "sheared"])
    def test_flatness(self, make, rng):
        b = make()
        pts = rng.uniform(-1.5, 1.5, (40, b.total_chart.dim))
        assert close(bd.flatness_check(b, pts), walk_flatness(b, pts))

    @pytest.mark.parametrize("Y", [
        co.perturb_legendrian(co.legendrian_model(2), parse_field(
            co.legendrian_model(2).source_chart, "0.1 * y1 * exp(0 - y1^2)")),
        graph(2, z="(x2^2 + y2^2) / 2"),
        graph(3, 5, z="x1 * y3 + x2^2 * y2"),
    ], ids=["perturbed", "paraboloid", "curved-n3k5"])
    def test_foliation_residual(self, Y, rng):
        pts = samples(Y, rng)
        got = fm.frobenius(*Y.lambda_jet(pts))
        assert close(np.max(np.abs(got)), walk_foliation_residual(Y, pts))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("bump", [None, "0.3 * sin(2 * y1) + y1^3"],
                             ids=["default", "odd"])
    def test_perturb_residual(self, n, bump):
        """perturb's foliation_residual, forms.frobenius on the perturbed
        graph's jet at the check's samples, against the symbolic
        lambda ^ d lambda at the same samples."""
        got = runner._perturb(np.random.default_rng(7), n, 0.1, bump, 1.0,
                              0.5, 1e-10, 40)
        Y = co.legendrian_model(n)
        Yp = co.perturb_legendrian(Y, parse_field(
            Y.source_chart, bump or "0.1 * y1 * exp(0 - y1^2)"))
        pts = np.random.default_rng(7).uniform(-0.9, 0.9, (40, n + 1))
        assert close(got["foliation_residual"],
                     walk_frobenius(Yp.lambda_form, pts))

    @pytest.mark.parametrize("texts, orientation", [
        ({"u": "-v", "v": "u"}, 1),
        ({"u": "-v", "v": "u"}, -1),
        ({"u": "1 + u"}, 1),
        ({"u": "-v * (1 + u^2)", "v": "u * (1 + v^2)"}, 1),
    ], ids=["area", "area-flipped", "shear", "cubic"])
    def test_ccl_grid(self, texts, orientation):
        b = bd.trivial_bundle()
        if orientation == -1:
            b = bd.FlatDiskBundle(b.base_dim, b.periods, b.radius, b.lift_u,
                                  b.lift_v, orientation=-1)
        fiber = b.fiber_chart
        beta = fm.one_form(fiber, {v: parse_field(fiber, t)
                                   for v, t in texts.items()})
        res = bd.ccl_check(b, beta)
        min_away, min_db = walk_ccl_grid(b, beta)
        assert close(res["vanishing"]["min_away"], min_away)
        assert close(res["positivity"]["min_dbeta"], min_db)
        assert res["positivity"]["ok"] == (min_db > 1e-6)


# ---------------------------------------------------------------------------
# Germ preconditions, the CCL invariance residual and the 2-form matrices
# ---------------------------------------------------------------------------


def walk_frobenius(beta, points):
    ch = beta.chart
    if ch.dim < 3:
        return 0.0
    three = wedge(beta, exterior_d(beta))
    eye = np.eye(ch.dim)
    worst = float(np.max(max_coeffs(three, points)))
    for combo in itertools.combinations(range(ch.dim), 3):
        worst = max(worst, float(np.max(np.abs(form_values(
            three, points, [eye[i] for i in combo])))))
    return worst


def jet_frobenius(beta, points):
    """beta ^ d beta by the package's path for a 1-form: forms.jet, then
    forms.frobenius on its arrays, samples last; (C(dim, 3), N)."""
    b, W = fm.jet(beta, points)
    return fm.frobenius(b.T, W.transpose(1, 2, 0))


def walk_validate(inp, points, tol=1e-8):
    frob = walk_frobenius(inp.beta, points)
    if frob > tol:
        raise gm.GermBuildError(f"foliation form not integrable: {frob:g}")
    line = values(inp.line_field.components, points)
    pairings = form_values(inp.beta, points, line[:, None, :])
    for covec, pairing in zip(inp.beta.coeff_array(points), pairings):
        if np.linalg.norm(covec) <= tol:
            raise gm.GermBuildError("defining form vanishes at a sample")
        if pairing <= 0:
            raise gm.GermBuildError("line field not positively transverse")


def walk_local_data(inp, points, tol=1e-10):
    ch = inp.beta.chart
    for i in range(1, ch.dim):
        if np.any(np.abs(inp.beta.coeff((i,)).compile()(points)) > tol):
            raise gm.GermBuildError(
                "defining form has a leafwise component; chart is not "
                "adapted to the foliation")
    Lt = inp.line_field.components[0]
    return inp.beta.coeff((0,)), [inp.line_field.components[i] / Lt
                                  for i in range(1, ch.dim)]


def walk_invariance_probe(bundle, beta):
    """build_singular_germ's probe: per lift, the largest |L_lift beta|."""
    total = bundle.total_chart
    beta_tot = fm.DiffForm(total, 1, {
        (bundle.base_dim + d,): c.on_chart(total)
        for (d,), c in beta.coeffs.items()})
    probe = np.random.default_rng(0).uniform(-0.4, 0.4, (10, total.dim))
    return [float(np.max(max_coeffs(
        lie_derivative(bundle.lift(j), beta_tot), probe)))
        for j in range(bundle.base_dim)]


def walk_transport(bundle, path, x0):
    """parallel_transport as one solve_ivp per path segment and point, with
    the lift evaluated as a one-row batch at each stage."""
    verts = [np.asarray(v, dtype=float) for v in path]
    x = np.asarray(x0, dtype=float)
    if np.hypot(*x) >= bundle.radius:
        raise ValueError("start point outside the fiber disk")
    r2 = bundle.radius ** 2
    steps = nfev = 0
    escaped = False
    b = bundle.base_dim
    lift = compile_exprs(bundle.total_chart, tuple(
        c.expr for c in bundle.lift_u + bundle.lift_v)).batch
    for P, Q in zip(verts[:-1], verts[1:]):
        p0, dp = P.tolist(), (Q - P).tolist()

        def rhs(t, y):
            comps = lift([[*(a + t * d for a, d in zip(p0, dp)),
                           *y.tolist()]])[0]
            return [sum(d * c for d, c in zip(dp, comps[:b])),
                    sum(d * c for d, c in zip(dp, comps[b:]))]

        def escape(t, y):
            return y[0] ** 2 + y[1] ** 2 - r2

        escape.terminal = True
        escape.direction = 1
        sol = solve_ivp(rhs, (0.0, 1.0), x, method="RK45", rtol=bd.ODE_TOL,
                        atol=bd.ODE_TOL, events=escape, max_step=1.0)
        assert sol.success
        steps += len(sol.t) - 1
        nfev += sol.nfev
        x = sol.y[:, -1]
        if sol.status == 1:
            escaped = True
            break
    return bd.TransportResult(end=(float(x[0]), float(x[1])),
                              escaped=escaped, steps=steps, nfev=nfev)


def walk_holonomy(bundle, generator, samples):
    """holonomy as one walk_transport call per sample and finite-difference
    row (x, x + h e1, x - h e1, x + h e2, x - h e2) inside the disk, one
    sample at a time."""
    loop = bd.generator_loop(bundle, generator)
    out = []
    for x in samples:
        rows = []
        for offset in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
            try:
                rows.append(walk_transport(
                    bundle, loop,
                    np.asarray(x) + bd.FD_STEP * np.array(offset)))
            except ValueError:  # starts outside the disk
                rows.append(None)
        res = rows[0]
        mapped = all(r is not None and not r.escaped for r in rows)
        J = np.full((2, 2), np.nan)
        if mapped:
            ends = [np.array(r.end) for r in rows]
            J = np.stack([ends[1] - ends[2], ends[3] - ends[4]], axis=1) \
                / (2 * bd.FD_STEP)
        done = [r for r in rows if r is not None]
        out.append((x, res.end, res.escaped, mapped, J,
                    sum(r.steps for r in done), sum(r.nfev for r in done)))
    return bd.Holonomy(*map(np.array, zip(*out)))


def walk_ccl_invariance(bundle, beta, count=8):
    """ccl_check's holonomy part: (max residual, escapes, steps, nfev)."""
    rng = np.random.default_rng(0)
    radii = rng.uniform(0.2, 0.7, count) * bundle.radius
    angles = rng.uniform(0, 2 * np.pi, count)
    pts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)

    kept, escapes, steps, nfev = [], 0, 0, 0
    for g in range(bundle.base_dim):
        hol = walk_holonomy(bundle, g, pts)
        for i in range(len(pts)):
            steps, nfev = steps + int(hol.steps[i]), nfev + int(hol.nfev[i])
            if hol.escaped[i] or not hol.mapped[i]:
                escapes += 1
                continue
            kept.append((hol.point[i], hol.image[i], hol.jacobian[i]))
    worst = 0.0
    for x, image, J in kept:
        b, a = beta.coeff_array([image, x])
        worst = max(worst, float(np.linalg.norm(J.T @ b - a)))
    return worst, escapes, steps, nfev


def walk_form_matrices(w, points):
    """M[p, i, j] = w(e_i, e_j), one evaluation per entry over the points."""
    k = w.chart.dim
    eye = np.eye(k)
    M = np.zeros((len(points), k, k))
    for i, j in itertools.combinations(range(k), 2):
        M[:, i, j] = form_values(w, points, [eye[i], eye[j]])
        M[:, j, i] = -M[:, i, j]
    return M


def walk_flat_structure(Y, points, tol=1e-8):
    lam = Y.lambda_form
    dlam = exterior_d(lam)
    tilde = build_Vk(Y)
    bases = []
    for M in walk_form_matrices(dlam, points):
        if svd_count(M, tol) != 2:
            raise ValueError("non-generic singular structure")
        bases.append(null_space(M, rcond=tol).T)

    def worst(forms):
        return max((float(np.max(max_coeffs(w, points))) for w in forms),
                   default=0.0)

    memb = worst(interior(V, dlam) for V in tilde)
    cov = worst(lie_derivative(V, lam) for V in tilde)
    integ = worst(interior(lie_bracket(Va, Vb), dlam)
                  for Va, Vb in itertools.combinations(tilde, 2))
    return {"kernel_bases": bases, "membership_residual": memb,
            "integrability_residual": integ,
            "covariant_constancy_residual": cov}


def outcome(fn, *args):
    """("ok", value) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def foliated_input(n, line, **texts):
    ch = gm.foliated_chart(n)
    beta = fm.one_form(ch, {v: parse_field(ch, t) for v, t in texts.items()})
    return gm.FoliatedInput(n=n, beta=beta, line_field=vector_field(
        ch, [parse_field(ch, t) for t in line]))


def random_one_form(ch, rng):
    a, b, c = rng.uniform(-2, 2, 3).tolist()
    names = ch.var_names
    return fm.one_form(ch, {
        v: parse_field(ch, f"{a!r} * {names[(i + 1) % len(names)]}"
                           f" * {v} + {b!r} * sin({names[i - 1]})"
                           f" + {c!r} * exp({v} / 2)")
        for i, v in enumerate(names)})


def generic_hypersurface(n):
    return graph(n, z=f"(x{n}^2 + y{n}^2) / 2")


class TestGermPreconditions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_frobenius(self, n, rng):
        ch = gm.foliated_chart(n)
        pts = rng.uniform(-0.9, 0.9, (30, ch.dim))
        for beta in (random_one_form(ch, rng),
                     fm.one_form(ch, {"t": parse_field(ch, "2 + x1^2")})):
            assert close(np.max(np.abs(jet_frobenius(beta, pts)),
                                initial=0.0),
                         walk_frobenius(beta, pts))

    @pytest.mark.parametrize("inp, column, values, message", [
        (foliated_input(2, ["1", "x2", "0.3"], t="2 + sin(x1)"), None, None,
         None),
        # beta = x1 dt vanishes at x1 = 0 and pairs negatively for x1 < 0:
        # the sample that comes first decides the message
        (foliated_input(2, ["1", "0", "0"], t="x1"), 1, [0.5, 0.0, -0.5],
         "vanishes"),
        (foliated_input(2, ["1", "0", "0"], t="x1"), 1, [0.5, -0.5, 0.0],
         "not positively transverse"),
        # both fail at one sample: "vanishes" is checked first
        (foliated_input(1, ["t", "1"], t="x1"), 1, [0.5, 0.0], "vanishes"),
        # L_t = t < 0 at one sample
        (foliated_input(1, ["t", "1"], t="1"), 0, [0.5, -0.5],
         "not positively transverse"),
        (foliated_input(2, ["1", "0", "0"], t="1", x2="x1"), None, None,
         "not integrable"),
    ], ids=["ok", "vanish-first", "transverse-first", "both-at-once",
            "line-field", "twisted"])
    def test_validate(self, inp, column, values, message, rng):
        pts = rng.uniform(0.1, 0.9, (20, inp.beta.chart.dim))
        if column is not None:
            pts[5:5 + len(values), column] = values
        got = outcome(inp.validate, pts)
        assert got == outcome(walk_validate, inp, pts)
        if message is None:
            assert got == ("ok", None)
        else:
            assert got[0] is gm.GermBuildError and message in got[1]

    @pytest.mark.parametrize("texts, refused", [
        ({"t": "2 + x1"}, False),
        ({"t": "2 + x1", "x1": "1e-12 * x2"}, False),
        ({"t": "2 + x1", "x2": "1e-9 * x1"}, True),
    ], ids=["adapted", "below-tol", "leafwise"])
    def test_local_data(self, texts, refused, rng):
        # validate's last test: only the leafwise components refuse here
        inp = foliated_input(2, ["2", "x2", "0.5"], **texts)
        pts = rng.uniform(-0.9, 0.9, (25, 3))
        assert outcome(walk_validate, inp, pts) == ("ok", None)
        got, want = outcome(inp.validate, pts), \
            outcome(walk_local_data, inp, pts)
        if refused:
            assert got == want and got[0] is gm.GermBuildError
        else:
            assert got == ("ok", None) and want[0] == "ok"
            (f, Rs), (wf, wRs) = gm.extract_local_data(inp), want[1]
            assert f == wf and Rs == wRs

    @pytest.mark.parametrize("bundle, texts, refused", [
        (bd.rotation_bundle([0.7]), {"u": "-v", "v": "u"}, False),
        (bd.rotation_bundle([0.9, 1.7]), {"u": "-v", "v": "u"}, False),
        (bd.trivial_bundle(), {"u": "-v * (1 + u^2)", "v": "u * (1 + v^2)"},
         False),
        # a full turn: the holonomy is the identity, so CCL passes, but the
        # cubic form is not rotation invariant
        (bd.rotation_bundle([2 * np.pi]),
         {"u": "-v * (1 + u^2)", "v": "u * (1 + v^2)"}, True),
    ], ids=["circle-area", "torus-area", "trivial-cubic", "full-turn-cubic"])
    def test_invariance_probe(self, bundle, texts, refused):
        fiber = bundle.fiber_chart
        beta = fm.one_form(fiber, {v: parse_field(fiber, t)
                                   for v, t in texts.items()})
        assert any(w > 1e-8 for w in walk_invariance_probe(bundle, beta)) \
            == refused
        got = outcome(gm.build_singular_germ, bundle, beta)
        if refused:
            assert got[0] is gm.GermBuildError
            assert "no closed-form invariant extension" in got[1]
        else:
            assert got[0] == "ok"


class TestCCLInvariance:
    @pytest.mark.parametrize("make, texts", [
        (lambda: bd.rotation_bundle([0.7]), {"u": "-v", "v": "u"}),
        (lambda: bd.rotation_bundle([0.7]),
         {"u": "-v * (1 + u^2)", "v": "u * (1 + v^2)"}),
        (lambda: bd.rotation_bundle([0.9, 1.7]), {"u": "1 + u"}),
        (sheared_bundle, {"u": "-v", "v": "u"}),
        (radial_bundle, {"u": "-v", "v": "u"}),
    ], ids=["area", "cubic", "torus-shear-form", "sheared", "radial"])
    def test_against_walk(self, make, texts):
        b = make()
        fiber = b.fiber_chart
        beta = fm.one_form(fiber, {v: parse_field(fiber, t)
                                   for v, t in texts.items()})
        got = bd.ccl_check(b, beta)["invariance"]
        worst, escapes, steps, nfev = walk_ccl_invariance(b, beta)
        assert got["escapes"] == escapes
        assert (got["steps"], got["nfev"]) == (steps, nfev)
        # The oracle integrates on its own, so endpoints agree to a few ulp
        # (~1e-15), not bit for bit; the FD Jacobian divides that by
        # 2 FD_STEP = 2e-5, and |beta| <= 2 at the images.
        assert abs(got["max_residual"] - worst) <= 1e-10
        assert got["ok"] == (escapes == 0 and worst <= 1e-6)

    def test_radial_bundle_escapes(self):
        b = radial_bundle()
        fiber = b.fiber_chart
        beta = fm.one_form(fiber, {"u": parse_field(fiber, "-v"),
                                   "v": parse_field(fiber, "u")})
        assert 0 < bd.ccl_check(b, beta)["invariance"]["escapes"] < 8


def trig_bundle():
    """A lift with sin and exp terms, smooth across the period of s1."""
    total = Chart(("s1", "u", "v"), (1.0, None, None))
    return bd.FlatDiskBundle(1, (1.0,), 1.0, (parse_field(
        total, "-v * (1 + 0.3 * sin(6.283185307179586 * s1 + u))"),), (
        parse_field(total,
                    "u * exp(0.2 * v) - 0.1 * cos(6.283185307179586 * s1)"),))


def disk_points(rng, count, radius=0.95):
    pts = rng.uniform(-radius, radius, (count, 2))
    return pts[np.hypot(pts[:, 0], pts[:, 1]) < radius]


CONTRACTIBLE = [[0.0, 0.0], [0.3, 0.0], [0.3, 0.3], [0.0, 0.3], [0.0, 0.0]]


class TestBatchedTransport:
    """transport_batch against one solve_ivp per point: the same escapes,
    the same steps and nfev per row, endpoints within 1e-13."""

    @staticmethod
    def assert_rows_match(bundle, path, starts):
        got = bd.transport_batch(bundle, path, starts)
        for i, x in enumerate(starts):
            want = walk_transport(bundle, path, x)
            assert bool(got.escaped[i]) == want.escaped
            assert (got.steps[i], got.nfev[i]) == (want.steps, want.nfev)
            assert np.max(np.abs(got.end[i] - want.end)) <= 1e-13
        return got

    @pytest.mark.parametrize("make, generator", [
        (lambda: bd.rotation_bundle([0.7]), 0),
        (lambda: bd.rotation_bundle([0.9, 1.7]), 0),
        (lambda: bd.rotation_bundle([0.9, 1.7]), 1),
        (sheared_bundle, 0),
        (sheared_bundle, 1),
        (trig_bundle, 0),
    ], ids=["circle", "torus-0", "torus-1", "sheared-0", "sheared-1", "trig"])
    def test_generator_loops(self, make, generator, rng):
        b = make()
        self.assert_rows_match(b, bd.generator_loop(b, generator),
                               disk_points(rng, 30))

    def test_radial_mixes_escaped_and_kept_rows(self, rng):
        b = radial_bundle()
        got = self.assert_rows_match(b, bd.generator_loop(b, 0),
                                     disk_points(rng, 40))
        assert 0 < got.escaped.sum() < len(got.escaped)

    def test_contractible_loop(self, rng):
        b = bd.rotation_bundle([0.9, 1.7])
        got = self.assert_rows_match(b, CONTRACTIBLE, disk_points(rng, 20))
        assert np.all(got.steps >= 4)  # a restart at each of four segments

    def test_one_row_is_parallel_transport(self):
        b = bd.rotation_bundle([1.5707963267948966])
        got = bd.parallel_transport(b, bd.generator_loop(b, 0), [0.5, 0.0])
        want = walk_transport(b, bd.generator_loop(b, 0), [0.5, 0.0])
        assert dataclasses.replace(got, end=want.end) == want
        assert np.max(np.abs(np.subtract(got.end, want.end))) <= 1e-13

    def test_start_outside_disk_refused(self):
        b = bd.rotation_bundle([0.7])
        with pytest.raises(ValueError, match="outside the fiber disk"):
            bd.transport_batch(b, bd.generator_loop(b, 0),
                               [[0.1, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="outside the fiber disk"):
            bd.holonomy(b, 0, [[0.1, 0.0], [0.0, -1.2]])

    def test_tableau_is_scipys(self):
        from scipy.integrate._ivp import rk

        for ours, theirs in ((bd.RK_A, rk.RK45.A), (bd.RK_B, rk.RK45.B),
                             (bd.RK_C, rk.RK45.C), (bd.RK_E, rk.RK45.E),
                             (bd.RK_P, rk.RK45.P)):
            np.testing.assert_array_equal(ours, theirs)
        assert (bd.SAFETY, bd.MIN_FACTOR, bd.MAX_FACTOR) == (
            rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
        assert bd.ERROR_EXPONENT == -1 / (rk.RK45.error_estimator_order + 1)


class TestBatchedHolonomy:
    @staticmethod
    def assert_samples_match(bundle, generator, samples):
        got = bd.holonomy(bundle, generator, samples)
        want = walk_holonomy(bundle, generator, samples)
        assert got.point.shape == (len(samples), 2)
        for field in ("point", "escaped", "mapped", "steps", "nfev"):
            assert getattr(got, field).tolist() == \
                getattr(want, field).tolist(), field
        assert np.max(np.abs(got.image - want.image)) <= 1e-13
        # NaN exactly where a sample is not mapped; FD quotients scale the
        # endpoint bound by 1 / (2 FD_STEP)
        assert np.array_equal(np.isnan(got.jacobian),
                              np.isnan(want.jacobian))
        assert np.all(np.isnan(got.jacobian[~got.mapped]))
        assert np.max(np.abs(got.jacobian - want.jacobian)[got.mapped],
                      initial=0.0) <= 1e-13 / bd.FD_STEP
        return got

    @pytest.mark.parametrize("make, generator", [
        (lambda: bd.rotation_bundle([0.7]), 0),
        (lambda: bd.rotation_bundle([0.9, 1.7]), 1),
        (sheared_bundle, 1),
        (trig_bundle, 0),
    ], ids=["circle", "torus", "sheared", "trig"])
    def test_against_walk(self, make, generator, rng):
        self.assert_samples_match(make(), generator, disk_points(rng, 8, 0.7))

    def test_radial_escapes(self, rng):
        got = self.assert_samples_match(radial_bundle(), 0,
                                        disk_points(rng, 12))
        assert got.escaped.any() and got.mapped.any()

    def test_fd_rows_outside_disk(self):
        # x + h e1 and x - h e2 start outside the disk: no Jacobian, but an
        # image
        h = bd.FD_STEP
        samples = [[1 - h / 2, 0.0], [0.0, -(1 - h / 2)], [0.3, 0.2]]
        got = self.assert_samples_match(bd.rotation_bundle([0.7]), 0, samples)
        assert got.mapped.tolist() == [False, False, True]
        assert not got.escaped.any()


MEMO_SCENARIO = """scenario memo

bundle torus
  type = rotation
  rates = 0.9 1.7
end

form area
  on = fiber torus
  u = -v
  v = u
end

form shear
  on = fiber torus
  u = 1 + u
end

germ first
  type = singular
  bundle = torus
  form = area
end

germ flipped
  type = singular
  bundle = torus
  form = area
  orientation = -1
end

check area-ccl
  kind = ccl
  target = torus
  form = area
end

check shear-ccl
  kind = ccl
  target = torus
  form = shear
  expect = fail
end

check endpoint
  kind = transport
  target = torus
  generator = 1
  start = 0.5 0
  end = -0.0644 0.4958
  tol = 1e-3
end
"""


def counted_sweeps(monkeypatch):
    """The row count of every _integrate_segment call from now on: one per
    sweep, where every path has one segment."""
    rows, real = [], bd._integrate_segment

    def counted(rhs, block, y0, *args):
        rows.append(len(y0))
        return real(rhs, block, y0, *args)

    monkeypatch.setattr(bd, "_integrate_segment", counted)
    return rows


class TestHolonomyMemo:
    """The transport rows of a bundle (every generator loop's CCL rows and
    the transport checks' starts) are integrated in one sweep per run,
    whatever the check order; a second run integrates them again."""

    @pytest.fixture
    def batches(self, monkeypatch):
        return counted_sweeps(monkeypatch)

    def test_once_per_run(self, batches):
        report = runner.run_scenario(parse_scenario(MEMO_SCENARIO))
        assert report["passed"]
        # 8 CCL samples with 5 rows each on both generators, and the
        # transport check's start
        assert batches == [81]

    def test_check_order_does_not_matter(self, batches):
        sc = parse_scenario(MEMO_SCENARIO)
        flipped = Scenario(sc.name, tuple(
            b for b in sc.blocks if b.kind != "check") + tuple(
            sc.checks()[::-1]))
        first, second = runner.run_scenario(sc), runner.run_scenario(flipped)
        assert batches == [81, 81]
        assert second["checks"] == first["checks"][::-1]

    def test_germ_plans_its_bundle(self, batches):
        # no ccl check: the germ a check names brings in the CCL rows
        sc = parse_scenario(MEMO_SCENARIO)
        contact = parse_scenario(
            "check contact\n  kind = contact-scan\n  target = first\n"
            "  samples = 5\nend\n").blocks
        blocks = tuple(b for b in sc.blocks if b.kind != "check"
                       or b.name == "endpoint") + contact
        report = runner.run_scenario(Scenario(sc.name, blocks))
        assert report["passed"]
        assert batches == [81]

    def test_one_request_is_one_sweep(self, batches):
        # one generator and no transport check: the CCL rows of the one
        # holonomy request are the whole plan
        sc = parse_scenario(MEMO_SCENARIO.replace("rates = 0.9 1.7",
                                                  "rates = 0.9"))
        report = runner.run_scenario(Scenario(sc.name, tuple(
            b for b in sc.blocks if b.name != "endpoint")))
        assert report["passed"]
        assert batches == [40]

    def test_not_shared_between_runs(self, batches):
        sc = parse_scenario(MEMO_SCENARIO)
        first = runner.run_scenario(sc)
        second = runner.run_scenario(sc)
        assert batches == [81, 81]
        first.pop("wall_time"), second.pop("wall_time")
        assert first == second

    def test_key_covers_arguments(self, batches):
        b = bd.rotation_bundle([0.9, 1.7])
        pts = [[0.3, 0.1], [-0.2, 0.4]]
        first = bd.holonomy(b, 0, pts)
        again = bd.holonomy(b, 0, [list(p) for p in pts])
        assert again.image.tobytes() == first.image.tobytes()
        bd.holonomy(b, 1, pts)
        bd.holonomy(b, 0, pts[:1])
        # a request is keyed by its path and all its starts: the rows of
        # pts[:1] are a new request, with the same rows as before
        assert batches == [10, 10, 5]
        sub = bd.holonomy(b, 0, pts[:1])
        assert sub.image.tobytes() == first.image[:1].tobytes()
        # so is parallel_transport's one row, which reads the same end
        res = bd.parallel_transport(b, bd.generator_loop(b, 0), pts[0])
        assert res.end == tuple(first.image[0].tolist()) \
            and batches == [10, 10, 5, 1]
        # another bundle with the same lifts has its own memo
        bd.holonomy(bd.rotation_bundle([0.9, 1.7]), 0, pts)
        assert len(batches) == 5

    def test_equal_request_is_a_hit(self, batches):
        # the key is the request's bytes, not the objects that carry them
        b = bd.rotation_bundle([0.9])
        loop, start = bd.generator_loop(b, 0), [0.3, 0.1]
        first = bd.parallel_transport(b, loop, start)
        again = bd.parallel_transport(
            b, [list(map(float, v)) for v in loop], list(start))
        assert again == first and batches == [1]
        rows = bd._transport_rows(b, loop, np.array([start]))
        assert batches == [1] and not rows.end.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            rows.end[0, 0] = 0.0

    def test_transport_check_reports_steps(self):
        report = runner.run_scenario(parse_scenario(MEMO_SCENARIO))
        detail = report["checks"][2]["detail"]
        b = bd.rotation_bundle([0.9, 1.7])
        want = walk_transport(b, bd.generator_loop(b, 1), [0.5, 0.0])
        assert (detail["steps"], detail["nfev"]) == (want.steps, want.nfev)
        assert np.max(np.abs(np.subtract(detail["end"], want.end))) <= 1e-13

    def test_ccl_check_reports_steps(self):
        report = runner.run_scenario(parse_scenario(MEMO_SCENARIO))
        detail = report["checks"][0]["detail"]
        b = bd.rotation_bundle([0.9, 1.7])
        fiber = b.fiber_chart
        beta = fm.one_form(fiber, {"u": parse_field(fiber, "-v"),
                                   "v": parse_field(fiber, "u")})
        _, _, steps, nfev = walk_ccl_invariance(b, beta)
        assert (detail["steps"], detail["nfev"]) == (steps, nfev)


class TestMixedSweep:
    """One sweep of rows on different paths: each row equals the same row
    integrated alone, bit for bit, and the solve_ivp oracle within 1e-13."""

    @pytest.mark.parametrize("make, loops", [
        (lambda: bd.rotation_bundle([0.9, 1.7]), None),
        (sheared_bundle, None),
        # one generator: the loop and the loop run backwards, which shrinks
        # the fiber where the forward loop pushes rows out of the disk
        (radial_bundle, [[[0.0], [1.0]], [[1.0], [0.0]]]),
        (lambda: bd.rotation_bundle([0.9, 1.7]),
         [CONTRACTIBLE, CONTRACTIBLE[::-1]]),
    ], ids=["torus", "sheared", "radial", "contractible"])
    def test_rows_independent_of_neighbours(self, make, loops, rng):
        b = make()
        loops = np.array(loops if loops is not None else [
            bd.generator_loop(b, g) for g in range(b.base_dim)])
        starts = disk_points(rng, 24)
        paths = loops[np.arange(len(starts)) % len(loops)]
        got = bd.transport_batch(b, paths, starts)
        for i, (path, x) in enumerate(zip(paths, starts)):
            alone = bd.transport_batch(b, path, [x])
            assert got.end[i].tobytes() == alone.end[0].tobytes()
            assert (got.escaped[i], got.steps[i], got.nfev[i]) == \
                (alone.escaped[0], alone.steps[0], alone.nfev[0])
            want = walk_transport(b, path, x)
            assert (bool(got.escaped[i]), got.steps[i], got.nfev[i]) == \
                (want.escaped, want.steps, want.nfev)
            assert np.max(np.abs(got.end[i] - want.end)) <= 1e-13
        if b.base_dim == 1:
            assert 0 < got.escaped.sum() < len(starts)


def on_torus(bundle, radius=1.0):
    """A circle bundle's lift along s1 and none along s2, over the torus of
    periods (1, 1), with fiber radius ``radius``."""
    total = Chart(("s1", "s2", "u", "v"), (1.0, 1.0, None, None))
    zero = constant(total, 0.0)
    return bd.FlatDiskBundle(2, (1.0, 1.0), radius,
                             (bundle.lift_u[0].on_chart(total), zero),
                             (bundle.lift_v[0].on_chart(total), zero))


# Rotation, sheared, trig and radial bundles of one base_dim, on paths of one
# vertex count, with fiber radii 1, 1.3 and 0.8: the generator loops over
# the circle, and the CONTRACTIBLE loop both ways over the torus, where each
# row restarts at four vertices.  The first and last bundle of each share a
# lift kernel.
JOINT_SWEEPS = {
    "circle": (lambda: [bd.rotation_bundle([0.7], radius=1.3), trig_bundle(),
                        radial_bundle(), bd.rotation_bundle([-1.1])],
               [[[0.0], [1.0]], [[1.0], [0.0]]]),
    "torus": (lambda: [bd.rotation_bundle([0.9, 1.7], radius=0.8),
                       sheared_bundle(), on_torus(trig_bundle(), 1.3),
                       on_torus(radial_bundle()),
                       bd.rotation_bundle([-0.4, 0.6])],
              [CONTRACTIBLE, CONTRACTIBLE[::-1]]),
}


def sweep_by_kernel(parts):
    """Sweep (bundle, paths, starts) parts as sweep_plan sweeps a run plan:
    one _sweep per lift kernel, over the parts with that kernel in order.
    Returns each part's rows as a BatchTransport, in part order, and the
    number of sweeps."""
    groups = {}
    for i, (b, _, _) in enumerate(parts):
        groups.setdefault(bd._lift_rhs(b).kernel, []).append(i)
    out = {}
    for members in groups.values():
        res = bd._sweep([(bd._lift_rhs(b), b.radius ** 2, paths, starts)
                         for b, paths, starts in (parts[i] for i in members)])
        at = 0
        for i in members:
            rows = slice(at, at + len(parts[i][2]))
            out[i] = bd.BatchTransport(res.end[rows], res.escaped[rows],
                                       res.steps[rows], res.nfev[rows])
            at = rows.stop
    return [out[i] for i in range(len(parts))], len(groups)


class TestJointSweep:
    """One sweep of the rows of several bundles that share a lift kernel:
    each row equals the row swept with its own bundle alone, bit for bit,
    and the solve_ivp oracle within 1e-13."""

    @pytest.mark.parametrize("base", JOINT_SWEEPS)
    def test_rows_equal_their_bundles_alone(self, base, rng):
        make, loops = JOINT_SWEEPS[base]
        bundles, loops = make(), np.array(loops)
        parts = []
        for b in bundles:
            starts = disk_points(rng, 10, 0.95 * b.radius)
            parts.append((b, loops[np.arange(len(starts)) % len(loops)],
                          starts))
        got, sweeps = sweep_by_kernel(parts)
        assert sweeps == len(bundles) - 1  # the first and last joined
        for (b, paths, starts), res in zip(parts, got):
            for i, (path, x) in enumerate(zip(paths, starts)):
                alone = bd.transport_batch(b, path, [x])
                assert res.end[i].tobytes() == alone.end[0].tobytes()
                assert (res.escaped[i], res.steps[i], res.nfev[i]) == \
                    (alone.escaped[0], alone.steps[0], alone.nfev[0])
                want = walk_transport(b, path, x)
                assert (bool(res.escaped[i]), res.steps[i], res.nfev[i]) \
                    == (want.escaped, want.steps, want.nfev)
                assert np.max(np.abs(res.end[i] - want.end)) <= 1e-13
        escaped = np.concatenate([res.escaped for res in got])
        assert 0 < escaped.sum() < len(escaped)

    def test_one_sweep_per_kernel(self):
        # a sweep's lifts share one kernel: the plan groups rows by it
        b, other = bd.rotation_bundle([0.7]), trig_bundle()
        loop = np.array([bd.generator_loop(b, 0)])
        with pytest.raises(ValueError, match="share one kernel"):
            bd._sweep([(bd._lift_rhs(x), 1.0, loop, np.array([[0.3, 0.1]]))
                       for x in (b, other)])

    def test_plan_joins_bundles(self, monkeypatch, rng):
        # rows planned on four circles with three lift kernels: sweep_plan
        # integrates them in one sweep per kernel, which joins the two
        # rotations, and every bundle's request reads its memo
        batches = counted_sweeps(monkeypatch)
        bundles = JOINT_SWEEPS["circle"][0]()
        plan, rows = {}, []
        for b in bundles:
            rows.append(disk_points(rng, 6, 0.95 * b.radius))
            bd.plan_transport(plan, b, bd.generator_loop(b, 0), rows[-1])
        bd.sweep_plan(plan)
        sizes = [len(rows[0]) + len(rows[3]), len(rows[1]), len(rows[2])]
        assert batches == sizes
        got = [bd._transport_rows(b, bd.generator_loop(b, 0), x)
               for b, x in zip(bundles, rows)]
        assert batches == sizes  # no sweep after the plan
        for b, x, res in zip(bundles, rows, got):
            alone = bd.transport_batch(b, bd.generator_loop(b, 0), x)
            assert res.end.tobytes() == alone.end.tobytes()
            assert (res.escaped.tolist(), res.steps.tolist(),
                    res.nfev.tolist()) == (alone.escaped.tolist(),
                                           alone.steps.tolist(),
                                           alone.nfev.tolist())

    def test_run_frees_its_bundles(self, monkeypatch):
        # the plan is a local of the run's planning, so a run's bundles die
        # with the run, without the cyclic collector
        refs, real = [], bd.rotation_bundle

        def tracked(*args):
            bundle = real(*args)
            refs.append(weakref.ref(bundle))
            return bundle

        monkeypatch.setattr(bd, "rotation_bundle", tracked)
        gc.disable()
        try:
            assert runner.run_scenario(parse_scenario(THREE_CIRCLES))["passed"]
            assert len(refs) == 3 and all(r() is None for r in refs)
        finally:
            gc.enable()


def benchmark_workloads():
    """perfbench/workloads.py, the benchmark's scenario generators."""
    spec = importlib.util.spec_from_file_location(
        "workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def bundled_demos():
    """(file name, text) of every bundled demo, by name."""
    demos = resources.files("legfol") / "scenarios"
    return [(p.name, p.read_text()) for p in sorted(
        demos.iterdir(), key=lambda p: p.name) if p.name.endswith(".scn")]


def bundled_and_benchmark_runs():
    """(id, seed, text) of every bundled demo at seed 0, and of every
    benchmark scenario at seeds 0-2."""
    workloads = benchmark_workloads()
    runs = [(name, 0, text) for name, text in bundled_demos()]
    return runs + [(f"{w}-{seed}-{i}", seed, text)
                   for w in workloads.WORKLOADS for seed in range(3)
                   for i, text in enumerate(workloads.generate(w, seed))]


class TestPlanCoversRequests:
    """The run plan holds every row that a check requests: a run makes one
    sweep per planned group, all of them inside sweep_plan, and none while
    its checks run.  Every planned path is a generator loop, one segment, so
    a sweep is one _integrate_segment call."""

    @pytest.mark.parametrize("seed, text", [
        pytest.param(seed, text, id=name)
        for name, seed, text in bundled_and_benchmark_runs()])
    def test_no_check_sweeps(self, monkeypatch, seed, text):
        groups, sweeping, calls = [], [], []
        sweep_plan, segment = bd.sweep_plan, bd._integrate_segment

        def planned(plan):
            groups.append(len(plan))
            sweeping.append(True)
            try:
                sweep_plan(plan)
            finally:
                sweeping.pop()

        def counted(*args):
            calls.append(bool(sweeping))
            return segment(*args)

        monkeypatch.setattr(bd, "sweep_plan", planned)
        monkeypatch.setattr(bd, "_integrate_segment", counted)
        runner.run_scenario(parse_scenario(text), seed=seed)
        (planned_groups,) = groups
        assert calls == [True] * planned_groups


OVERFLOW_SCENARIO = """scenario overflow

bundle circle
  type = rotation
  rates = 1
end

form area
  on = fiber circle
  u = -v
  v = u
end

check endpoint
  kind = transport
  target = circle
  start = 0.05 0
  end = 0.027015115293406988 0.042073549240394826
end

check area-ccl
  kind = ccl
  target = circle
  form = area
end
"""


def overflowing_bundle(rates, periods, radius, gain="100000"):
    """Fiber rotation at rate 1 + exp(gain (u^2 + v^2 - 0.04)); at gain
    1e5, rate 1 on the transport check's orbit |x| = 0.05, and an
    overflowing lift beyond |x| = 0.22, where ccl_check's samples lie."""
    total = Chart(("s1", "u", "v"), (1.0, None, None))
    rate = f"(1 + exp({gain} * (u^2 + v^2 - 0.04)))"
    return bd.FlatDiskBundle(1, (1.0,), radius,
                             (parse_field(total, f"-v * {rate}"),),
                             (parse_field(total, f"u * {rate}"),))


TWO_BUNDLE_OVERFLOW = OVERFLOW_SCENARIO + """
bundle healthy
  type = rotation
  rates = 0.7
end

form healthy-area
  on = fiber healthy
  u = -v
  v = u
end

check healthy-endpoint
  kind = transport
  target = healthy
  start = 0.5 0
  end = 0.38242109364224425 0.3221088436188455
end

check healthy-ccl
  kind = ccl
  target = healthy
  form = healthy-area
end
"""


class TestFaultAttribution:
    """A fault in one check's rows stays that check's outcome, although the
    plan puts every row of the bundle into one sweep before the checks."""

    def test_fault_stays_with_its_check(self, monkeypatch):
        monkeypatch.setattr(bd, "rotation_bundle", overflowing_bundle)
        batches = counted_sweeps(monkeypatch)
        sc = parse_scenario(OVERFLOW_SCENARIO)
        report = runner.run_scenario(sc)
        endpoint, ccl = report["checks"]
        assert endpoint["ok"] and "error" not in endpoint
        assert not ccl["ok"] and not ccl["detail"]["refused"]
        assert ccl["error"].startswith("EvaluationError: row 0, point ")
        assert "exp overflow" in ccl["error"]
        # the plan's sweep raised; then each check's rows ran on their own
        assert batches == [41, 1, 40]
        # exactly the report of a run without the plan
        monkeypatch.setattr(runner, "_plan", lambda sc, env: None)
        alone = runner.run_scenario(sc)
        assert batches[3:] == [1, 40]
        report.pop("wall_time"), alone.pop("wall_time")
        assert report == alone

    def test_fault_stays_with_its_bundle(self, monkeypatch):
        # the overflowing circle beside a healthy one: every check gets the
        # outcome it gets in a run of its own bundle alone
        real = bd.rotation_bundle
        monkeypatch.setattr(bd, "rotation_bundle", lambda rates, *a: (
            overflowing_bundle if rates == [1.0] else real)(rates, *a))
        batches = counted_sweeps(monkeypatch)
        one = runner.run_scenario(parse_scenario(OVERFLOW_SCENARIO))
        sc = parse_scenario(TWO_BUNDLE_OVERFLOW)
        report = runner.run_scenario(sc)
        assert [c["ok"] for c in report["checks"]] == [True, False, True,
                                                       True]
        ccl = report["checks"][1]
        assert not ccl["detail"]["refused"]
        assert ccl["error"] == one["checks"][1]["error"]
        # their lifts have two kernels, so the plan sweeps them apart: the
        # overflowing circle's sweep raises, the healthy circle's rows are
        # memoized, and the overflowing circle's checks then integrate
        # their own rows
        assert batches[3:] == [41, 41, 1, 40]
        monkeypatch.setattr(runner, "_plan", lambda sc, env: None)
        alone = runner.run_scenario(sc)
        report.pop("wall_time"), alone.pop("wall_time")
        assert report == alone


def batch_rhs(bundle):
    """The compiled lift with every stage evaluated through
    CompiledExprs.batch, under a kernel of its own that reads every
    coordinate, so every stage's base points are built: what
    transport_batch's kernel call must match, in values and in the
    EvaluationError it raises."""
    total = bundle.total_chart
    batch = compile_exprs(total, tuple(
        c.expr for c in bundle.lift_u + bundle.lift_v)).batch

    def kernel(*cols):
        return tuple(batch(np.column_stack(cols)).T)
    return SimpleNamespace(kernel=kernel, consts=(), batch=batch,
                           reads=tuple(range(total.dim)))


def transport_through_batch(bundle, generator, starts):
    """transport_batch around a generator loop (one segment), with
    batch_rhs in place of the column call."""
    starts = np.array(starts, dtype=float)
    P = np.zeros((len(starts), bundle.base_dim))
    dP = np.zeros_like(P)
    dP[:, generator] = bundle.periods[generator]
    n = len(starts)
    return bd._integrate_segment([batch_rhs(bundle)], np.zeros(n, dtype=int),
                                 starts, P, dP, np.full(n, bundle.radius ** 2),
                                 np.full(n, bd.MAX_STEPS))


def product_overflow_bundle(factors=("1e300", "1e10", "1e-310")):
    """Rotation at rate about 1 + s1 while s1 < 0.018; beyond, s1 * 1e310
    overflows to inf in a plain product, which no checked operation sees.
    Other factors give the same kernel."""
    total = Chart(("s1", "u", "v"), (1.0, None, None))
    rate = f"(1 + s1 * {' * '.join(factors)})"
    return bd.FlatDiskBundle(1, (1.0,), 1.0,
                             (parse_field(total, f"-v * {rate}"),),
                             (parse_field(total, f"u * {rate}"),))


class TestStageEvaluation:
    """transport_batch evaluates each RK stage with the generated function
    on columns and falls back to CompiledExprs.batch on the same points when
    a value fails a check or is not finite: the same values, steps and nfev
    as evaluating every stage through batch, and the same EvaluationError."""

    @pytest.mark.parametrize("make, generator", [
        (lambda: bd.rotation_bundle([0.9, 1.7]), 1),
        (sheared_bundle, 0),
        (trig_bundle, 0),
        (radial_bundle, 0),
    ], ids=["torus", "sheared", "trig", "radial"])
    def test_bit_equal_to_batch(self, make, generator, rng):
        b = make()
        starts = disk_points(rng, 20)
        got = bd.transport_batch(b, bd.generator_loop(b, generator), starts)
        end, escaped, steps, nfev = transport_through_batch(b, generator,
                                                            starts)
        assert got.end.tobytes() == end.tobytes()
        assert got.escaped.tolist() == escaped.tolist()
        assert (got.steps.tolist(), got.nfev.tolist()) == \
            (steps.tolist(), nfev.tolist())

    @pytest.mark.parametrize("make, generator, on_base", [
        (lambda: bd.rotation_bundle([0.9, 1.7]), 1, False),
        (sheared_bundle, 0, True),
        (trig_bundle, 0, True),
    ], ids=["torus", "sheared", "trig"])
    def test_base_points_only_where_read(self, make, generator, on_base,
                                         rng):
        # after the two calls that pick the first step, which get their
        # base points, a lift that reads no base coordinate gets None for
        # each at every stage, and one that reads one gets them all; both
        # are bit-equal to batch_rhs, which reads every coordinate
        b = make()
        lift = bd._lift_rhs(b)
        assert any(j < b.base_dim for j in lift.reads) == on_base
        unread = []

        def kernel(*cols):
            unread.append([c is None for c in cols[:b.base_dim]])
            return lift.kernel(*cols)
        starts = disk_points(rng, 20)
        n = len(starts)
        P = np.zeros((n, b.base_dim))
        dP = np.zeros_like(P)
        dP[:, generator] = b.periods[generator]
        got = bd._integrate_segment(
            [SimpleNamespace(kernel=kernel, consts=lift.consts,
                             batch=lift.batch, reads=lift.reads)],
            np.zeros(n, dtype=int), starts, P, dP,
            np.full(n, b.radius ** 2), np.full(n, bd.MAX_STEPS))
        assert unread[:2] == [[False] * b.base_dim] * 2
        assert unread[2:] == [[not on_base] * b.base_dim] * (len(unread) - 2)
        want = transport_through_batch(b, generator, starts)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]

    @pytest.mark.parametrize("make, starts, reason", [
        (product_overflow_bundle, [[0.3, 0.1], [0.1, -0.2]],
         "non-finite value"),
        (lambda: overflowing_bundle(None, None, 1.0),
         [[0.05, 0.0], [0.1, 0.2], [0.3, -0.1]], "exp overflow"),
    ], ids=["product", "exp"])
    def test_fault_message_is_batchs(self, make, starts, reason):
        b = make()
        with pytest.raises(EvaluationError) as got:
            bd.transport_batch(b, bd.generator_loop(b, 0), starts)
        with pytest.raises(EvaluationError) as want:
            transport_through_batch(b, 0, starts)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("row ")
        assert reason in str(got.value)


def exp_overflow_bundle(gain):
    """Rotation at rate 1 + 1e-320 exp(gain s1): rate 1 to within 2e-12
    until exp overflows, a checked RowError, at s1 = 709.78 / gain."""
    total = Chart(("s1", "u", "v"), (1.0, None, None))
    rate = f"(1 + 1e-320 * exp({gain} * s1))"
    return bd.FlatDiskBundle(1, (1.0,), 1.0,
                             (parse_field(total, f"-v * {rate}"),),
                             (parse_field(total, f"u * {rate}"),))


def first_faulty_stage(bundle, starts):
    """Integrate around generator 0 with a kernel that records, per call,
    whether it raised RowError or gave a non-finite value; returns the
    EvaluationError and the first such call's stage in its step (1-6; the
    two calls that pick the first step come before every step)."""
    lift = bd._lift_rhs(bundle)
    healthy = []

    def kernel(*cols):
        healthy.append(False)
        out = lift.kernel(*cols)
        healthy[-1] = all(np.isfinite(c).all() for c in out)
        return out
    n = len(starts)
    dP = np.zeros((n, 1))
    dP[:, 0] = bundle.periods[0]
    with pytest.raises(EvaluationError) as err:
        bd._integrate_segment(
            [SimpleNamespace(kernel=kernel, consts=lift.consts,
                             batch=lift.batch, reads=lift.reads)],
            np.zeros(n, dtype=int),
            np.array(starts), np.zeros((n, 1)), dP, np.ones(n),
            np.full(n, bd.MAX_STEPS))
    first = healthy.index(False)
    assert first >= 2  # not in the initial step selection
    return err.value, (first - 2) % 6 + 1


class TestStepCheck:
    """A step's six stages are checked once, after the step; a step with a
    failed or non-finite stage runs again stage by stage, so a fault that
    first shows at a later stage of a step still raises the EvaluationError
    of an all-batch integration."""

    @pytest.mark.parametrize("make, stage, reason", [
        (lambda: product_overflow_bundle(("1e300", "3e9", "1e-310")), 3,
         "non-finite value"),
        (lambda: product_overflow_bundle(("1e300", "1.5e10", "1e-310")), 5,
         "non-finite value"),
        (lambda: exp_overflow_bundle(2000), 3, "exp overflow"),
        (lambda: exp_overflow_bundle(1000), 5, "exp overflow"),
    ], ids=["product-3", "product-5", "exp-3", "exp-5"])
    def test_later_stage_fault_is_batchs(self, make, stage, reason):
        b, starts = make(), [[0.3, 0.1], [0.1, -0.2]]
        got, faulty = first_faulty_stage(b, starts)
        assert faulty == stage
        with pytest.raises(EvaluationError) as alone:
            bd.transport_batch(b, bd.generator_loop(b, 0), starts)
        with pytest.raises(EvaluationError) as want:
            transport_through_batch(b, 0, starts)
        assert str(got) == str(alone.value) == str(want.value)
        assert reason in str(got)


class TestMergedSweep:
    """Bundles whose lifts share a kernel take one kernel call per stage,
    with their constants as per-row columns: every row is still the row of
    its own bundle's transport_batch, bit for bit, and of the solve_ivp
    oracle, and a fault is still the faulty bundle's own EvaluationError."""

    def test_rows_equal_their_bundles_alone(self, rng):
        # two sweeps: [first, second, fourth], which share a kernel, and
        # [sheared]
        bundles = [bd.rotation_bundle([0.9, 1.7]),
                   bd.rotation_bundle([-0.4, 0.6], radius=0.8),
                   sheared_bundle(),
                   bd.rotation_bundle([1.3, -2.2], radius=1.3)]
        lifts = [bd._lift_rhs(b) for b in bundles]
        assert lifts[0].kernel is lifts[1].kernel is lifts[3].kernel
        assert lifts[2].kernel is not lifts[0].kernel
        loops = np.array([CONTRACTIBLE, CONTRACTIBLE[::-1]])
        parts = []
        for b in bundles:
            starts = disk_points(rng, 10, 0.99 * b.radius)
            parts.append((b, loops[np.arange(len(starts)) % 2], starts))
        got, sweeps = sweep_by_kernel(parts)
        assert sweeps == 2
        for (b, paths, starts), res in zip(parts, got):
            alone = bd.transport_batch(b, paths, starts)
            assert res.end.tobytes() == alone.end.tobytes()
            assert (res.escaped.tolist(), res.steps.tolist(),
                    res.nfev.tolist()) == (alone.escaped.tolist(),
                                           alone.steps.tolist(),
                                           alone.nfev.tolist())
            for i, path, x in zip(range(len(starts)), paths, starts):
                want = walk_transport(b, path, x)
                assert (bool(res.escaped[i]), res.steps[i], res.nfev[i]) \
                    == (want.escaped, want.steps, want.nfev)
                assert np.max(np.abs(res.end[i] - want.end)) <= 1e-13
        escaped = np.concatenate([res.escaped for res in got])
        assert 0 < escaped.sum() < len(escaped)

    @pytest.mark.parametrize("faulty, healthy, starts", [
        (lambda: product_overflow_bundle(),
         lambda: product_overflow_bundle(("2", "3", "0.1")),
         [[0.3, 0.1], [0.1, -0.2]]),
        (lambda: overflowing_bundle(None, None, 1.0),
         lambda: overflowing_bundle(None, None, 1.0, gain="0.5"),
         [[0.05, 0.0], [0.1, 0.2], [0.3, -0.1]]),
    ], ids=["product", "exp"])
    @pytest.mark.parametrize("faulty_first", [False, True])
    def test_fault_is_the_faulty_bundles(self, faulty, healthy, starts,
                                         faulty_first, rng):
        faulty, healthy = faulty(), healthy()
        assert bd._lift_rhs(faulty).kernel is bd._lift_rhs(healthy).kernel
        blocks = [(healthy, disk_points(rng, 6, 0.7)),
                  (faulty, np.array(starts))]
        if faulty_first:
            blocks.reverse()
        loop = np.array(bd.generator_loop(faulty, 0))
        with pytest.raises(EvaluationError) as got:
            bd._sweep([(bd._lift_rhs(b), 1.0,
                        np.broadcast_to(loop, (len(x),) + loop.shape), x)
                       for b, x in blocks])
        with pytest.raises(EvaluationError) as want:
            transport_through_batch(faulty, 0, starts)
        assert str(got.value) == str(want.value)


def ode_work(monkeypatch):
    """Record from now on each _integrate_segment call's row count, each
    call's kernel calls per distinct lift kernel (in block order), each
    sweep's rows, accepted steps and nfev, and the row count of every
    lift's batch call."""
    segments, stages, sweeps, batches = [], [], [], []
    real_segment, real_sweep = bd._integrate_segment, bd._sweep

    def segment(lifts, block, y0, *args):
        segments.append(len(y0))
        calls, counted = [], {}

        def count(kernel):
            i = len(calls)
            calls.append(0)

            def f(*a):
                calls[i] += 1
                return kernel(*a)
            return f
        for lift in lifts:
            if lift.kernel not in counted:
                counted[lift.kernel] = count(lift.kernel)
        stages.append(calls)  # counted as the segment runs
        return real_segment([SimpleNamespace(
            kernel=counted[lift.kernel], consts=lift.consts, reads=lift.reads,
            batch=lambda pts, f=lift.batch: batches.append(len(pts))
            or f(pts)) for lift in lifts], block, y0, *args)

    def sweep(parts):
        res = real_sweep(parts)
        sweeps.append((len(res.end), int(res.steps.sum()),
                       int(res.nfev.sum())))
        return res

    monkeypatch.setattr(bd, "_integrate_segment", segment)
    monkeypatch.setattr(bd, "_sweep", sweep)
    return segments, stages, sweeps, batches


THREE_CIRCLES = "scenario three-circles\n" + "".join(f"""
bundle {name}
  type = rotation
  rates = {rate}
end

form {name}-area
  on = fiber {name}
  u = -v
  v = u
end

check {name}-endpoint
  kind = transport
  target = {name}
  start = 0.5 0
  end = {0.5 * math.cos(rate)!r} {0.5 * math.sin(rate)!r}
end

check {name}-ccl
  kind = ccl
  target = {name}
  form = {name}-area
end
""" for name, rate in (("slow", 0.7), ("mid", -1.3), ("fast", 2.1)))


class TestOdeWork:
    """The RK work of MEMO_SCENARIO's one sweep, pinned: a leaner step
    takes fewer numpy calls, never fewer steps or lift evaluations."""

    def test_memo_scenario(self, monkeypatch):
        segments, stages, sweeps, _ = ode_work(monkeypatch)
        assert runner.run_scenario(parse_scenario(MEMO_SCENARIO))["passed"]
        # one sweep of 81 rows on one segment: 2 evaluations to pick the
        # first step, then 16 RK iterations of 6 stages each
        assert segments == [81]
        assert stages == [[2 + 6 * 16]]
        assert sweeps == [(81, 965, 5952)]

    def test_three_circles(self, monkeypatch):
        segments, stages, sweeps, batches = ode_work(monkeypatch)
        sc = parse_scenario(THREE_CIRCLES)
        assert runner.run_scenario(sc)["passed"]
        # the three bundles' 3 x 41 rows in one sweep: their lifts share
        # one kernel, so each stage is one kernel call over every live row:
        # 2 to pick the first step, then 6 per RK iteration, 20 iterations
        # (the 2.1-rad circle's rows take the most steps); every step's
        # check passes, so no stage runs again and no batch is called
        assert segments == [123]
        assert stages == [[2 + 6 * 20]]
        assert batches == []
        assert sweeps == [(123, 1539, 9480)]
        # the same rows, steps and nfev as one sweep per request
        monkeypatch.setattr(runner, "_plan", lambda sc, env: None)
        assert runner.run_scenario(sc)["passed"]
        assert segments[1:] == [1, 40, 1, 40, 1, 40]
        assert [sum(x) for x in zip(*sweeps[1:])] == list(sweeps[0])

    def test_germ_singular_demo(self, monkeypatch):
        # two circle bundles with no transport check: their germs' CCL rows
        # in one sweep
        batches = counted_sweeps(monkeypatch)
        text = (resources.files("legfol") / "scenarios"
                / "germ-singular.scn").read_text()
        assert runner.run_scenario(parse_scenario(text))["passed"]
        assert batches == [80]


BUDGET_SCENARIO = """scenario budget

bundle circle
  type = rotation
  rates = 1
end

check endpoint
  kind = transport
  target = circle
  start = 0.5 0
  end = 0.2701511529340699 0.42073549240394825
  expect = refuse
end
"""


LONG_TURN = """scenario long-turn

bundle circle
  type = rotation
  rates = {rate}
end

check endpoint
  kind = transport
  target = circle
  start = 0.5 0
  end = {end}
  tol = 1e-5
end
"""


class TestIntegrationFault:
    """A failed integration is a numerical fault: the outcome error, which
    satisfies no expectation, never a refusal."""

    def test_step_budget(self):
        b = bd.rotation_bundle([0.9])
        starts = np.array([[0.3, 0.1], [0.1, -0.2]])
        with pytest.raises(bd.IntegrationError, match="step budget exceeded"):
            bd._integrate_segment(
                [bd._lift_rhs(b)], np.zeros(2, dtype=int), starts,
                np.zeros((2, 1)), np.ones((2, 1)), np.ones(2),
                np.array([bd.MAX_STEPS, 3]))
        assert issubclass(bd.IntegrationError, ArithmeticError)

    def test_spinning_lift_stalls(self, monkeypatch):
        # du/ds = 1 / (0.5 - u) from u = 0.3 reaches u = 0.5 at s = 0.02,
        # beyond which the lift has no solution: RK45 accepts steps of
        # about 1e-13 there without end.  The first pace window still
        # holds the approach; the second stalls.
        _, stages, _, _ = ode_work(monkeypatch)
        total = Chart(("s1", "u", "v"), (1.0, None, None))
        u = coordinate(total, "u")
        b = bd.FlatDiskBundle(1, (1.0,), 1.0, (1 / (0.5 - u),),
                              (constant(total, 0.0),))
        with pytest.raises(bd.IntegrationError, match="stalled"):
            bd.parallel_transport(b, bd.generator_loop(b, 0), (0.3, 0.0))
        assert stages == [[2 + 6 * 2 * bd.PACE_WINDOW]]

    def test_long_turn_runs(self):
        # 300 rad of fiber turn takes about 2,500 accepted steps at an even
        # pace: no window stalls
        rate = 300.0
        report = runner.run_scenario(parse_scenario(LONG_TURN.format(
            rate=rate, end=f"{0.5 * math.cos(rate)!r} "
                           f"{0.5 * math.sin(rate)!r}")))
        endpoint = report["checks"][0]
        assert endpoint["ok"] and "error" not in endpoint
        assert endpoint["detail"]["steps"] > bd.PACE_WINDOW

    def test_step_below_spacing(self):
        # du/ds jumps by 1e10 at s1 = 0.5: every step across the jump is
        # rejected until the retry falls below the spacing of floats, where
        # solve_ivp fails with the same message
        def jump(s1, u, v):
            return np.where(s1 > 0.5, 1e10, 0.0), np.zeros_like(s1)
        want = solve_ivp(lambda t, y: [1e10 if t > 0.5 else 0.0, 0.0],
                         (0, 1), [0.1, 0.2], method="RK45", rtol=bd.ODE_TOL,
                         atol=bd.ODE_TOL, max_step=bd.MAX_STEP)
        assert want.status == -1
        with pytest.raises(bd.IntegrationError) as got:
            bd._integrate_segment(
                [SimpleNamespace(kernel=jump, consts=(), batch=None,
                                 reads=(0, 1, 2))],
                np.zeros(2, dtype=int), np.array([[0.1, 0.2], [0.3, -0.1]]),
                np.zeros((2, 1)), np.ones((2, 1)), np.ones(2),
                np.full(2, bd.MAX_STEPS))
        assert str(got.value) == "transport integration failed: " \
            + want.message

    def test_refusal_control_does_not_pass(self, monkeypatch):
        monkeypatch.setattr(bd, "MAX_STEPS", 3)
        report = runner.run_scenario(parse_scenario(BUDGET_SCENARIO))
        endpoint = report["checks"][0]
        assert endpoint["expect"] == "refuse" and not endpoint["ok"]
        assert not endpoint["detail"]["refused"]
        assert endpoint["error"] == "IntegrationError: step budget exceeded"


class TestCCLMemo:
    """ccl_check evaluates its grid once per bundle, form object and
    arguments; every caller gets its own report."""

    @pytest.fixture
    def grids(self, monkeypatch):
        calls = []
        real = bd._fiber_grid
        monkeypatch.setattr(bd, "_fiber_grid", lambda *a: calls.append(a)
                            or real(*a))
        return calls

    def test_once_per_run(self, grids, monkeypatch):
        checks = []
        real = bd.ccl_check
        monkeypatch.setattr(bd, "ccl_check", lambda *a, **k: checks.append(
            a[1]) or real(*a, **k))
        # both germs build on (torus, area), which area-ccl checks too; the
        # second germ takes the first's memoized build, which checked it
        sc = parse_scenario(MEMO_SCENARIO + "".join(
            f"\ncheck {g}-contact\n  kind = contact-scan\n  target = {g}\n"
            "  samples = 5\nend\n" for g in ("first", "flipped")))
        assert runner.run_scenario(sc)["passed"]
        assert len(checks) == 3 and len(grids) == 2
        runner.run_scenario(sc)  # a new run builds new forms and bundles
        assert len(checks) == 6 and len(grids) == 4

    def test_key_covers_arguments(self, grids):
        b = bd.rotation_bundle([0.7])
        fiber = b.fiber_chart

        def area():
            return fm.one_form(fiber, {"u": parse_field(fiber, "-v"),
                                       "v": parse_field(fiber, "u")})
        beta = area()
        first = bd.ccl_check(b, beta)
        assert bd.ccl_check(b, beta) == first and len(grids) == 1
        bd.ccl_check(b, beta, tol=1e-7)
        bd.ccl_check(b, area())  # an equal form, but another object
        bd.ccl_check(bd.rotation_bundle([0.7]), beta)
        assert len(grids) == 4

    @pytest.mark.parametrize("rates", [[0.7], [0.7, -1.3]])
    def test_orbits_once_per_bundle(self, rates, monkeypatch):
        # the area form passes and the shear form fails on one bundle: the
        # second check pulls back through the first's holonomy samples,
        # whose rows were integrated once per generator, and each report
        # is bit for bit the report on a fresh bundle
        orbits, sweeps = [], []
        real_holonomy, real_sweep = bd.holonomy, bd._sweep_rows
        monkeypatch.setattr(bd, "holonomy", lambda b, g, x: orbits.append(
            (b, g)) or real_holonomy(b, g, x))
        monkeypatch.setattr(bd, "_sweep_rows", lambda parts: sweeps.append(
            parts) or real_sweep(parts))

        def forms(fiber):
            return [fm.one_form(fiber, {"u": parse_field(fiber, "-v"),
                                        "v": parse_field(fiber, "u")}),
                    fm.one_form(fiber, {"u": parse_field(fiber, "1 + u")})]
        b = bd.rotation_bundle(rates)
        reports = [bd.ccl_check(b, beta) for beta in forms(b.fiber_chart)]
        assert [r["ok"] for r in reports] == [True, False]
        assert orbits == [(b, g) for g in range(len(rates))]
        assert len(sweeps) == len(rates)
        assert not any(a.flags.writeable for a in vars(b._ccl_orbits).values())
        for beta, report in zip(forms(b.fiber_chart), reports):
            fresh = bd.rotation_bundle(rates)
            assert repr(bd.ccl_check(fresh, beta)) == repr(report)
        assert len(orbits) == len(sweeps) == 3 * len(rates)

    def test_callers_do_not_share_a_report(self):
        b = bd.rotation_bundle([0.7])
        fiber = b.fiber_chart
        beta = fm.one_form(fiber, {"u": parse_field(fiber, "-v"),
                                   "v": parse_field(fiber, "u")})
        first = bd.ccl_check(b, beta)
        want = copy.deepcopy(first)
        first["ok"] = None
        first["invariance"]["steps"] = -1
        first["vanishing"].clear()
        assert bd.ccl_check(b, beta) == want

    def test_raise_memoizes_nothing(self, grids):
        b = overflowing_bundle(None, None, 1.0)
        fiber = b.fiber_chart
        beta = fm.one_form(fiber, {"u": parse_field(fiber, "-v"),
                                   "v": parse_field(fiber, "u")})
        for _ in range(2):
            with pytest.raises(EvaluationError, match="exp overflow"):
                bd.ccl_check(b, beta)
        assert len(grids) == 2 and b._ccl_reports == {}
        assert "_ccl_orbits" not in vars(b)
        with pytest.raises(ValueError, match="fiber chart"):
            bd.ccl_check(b, fm.one_form(Chart(("a", "b")), {"a": 1.0}))
        assert b._ccl_reports == {}


class TestRestriction:
    """A germ restricts alpha to its zero section once."""

    @staticmethod
    def builds(monkeypatch) -> list:
        """The germs whose restriction is built from now on, in order."""
        calls = []
        real = gm.GermForm.restricted.func
        counted = functools.cached_property(
            lambda g: calls.append(g) or real(g))
        counted.__set_name__(gm.GermForm, "restricted")
        monkeypatch.setattr(gm.GermForm, "restricted", counted)
        return calls

    def test_once_per_germ(self, monkeypatch):
        calls = self.builds(monkeypatch)
        b = bd.rotation_bundle([0.7])
        fiber = b.fiber_chart
        g = gm.build_singular_germ(b, fm.one_form(fiber, {
            "u": parse_field(fiber, "-v"), "v": parse_field(fiber, "u")}))
        first = g.restricted
        assert g.restricted is first and len(calls) == 1
        flipped = dataclasses.replace(g, orientation=-1)
        assert flipped.restricted is not first and len(calls) == 2

    def test_once_per_germ_in_a_run(self, monkeypatch):
        calls = self.builds(monkeypatch)
        text = resources.files("legfol").joinpath(
            "scenarios/germ-singular.scn").read_text()
        assert runner.run_scenario(parse_scenario(text))["passed"]
        # first, second and flipped: zero-section, two interpolations
        assert len(calls) == 3


RADIUS_SCENARIO = """scenario small-fiber

bundle small
  type = rotation
  rates = 0.9
  radius = {radius}
end

form area
  on = fiber small
  u = -v
  v = u
end

form shear
  on = fiber small
  u = 1 + u
end

check area-ccl
  kind = ccl
  target = small
  form = area
end

check shear-ccl
  kind = ccl
  target = small
  form = shear
  expect = fail
end
"""


class TestCCLGrid:
    """ccl_check's fiber grid is in units of the fiber radius."""

    @pytest.mark.parametrize("radius", ["0.15", "1", "3"])
    def test_verdicts_at_any_radius(self, radius):
        report = runner.run_scenario(parse_scenario(
            RADIUS_SCENARIO.format(radius=radius)))
        area, shear = report["checks"]
        assert report["passed"]
        assert "error" not in area and "error" not in shear
        assert area["detail"]["vanishing"] and area["detail"]["positivity"]
        assert "refused" not in shear["detail"]
        assert not shear["detail"]["positivity"]

    def test_grid_size_does_not_grow(self, monkeypatch):
        sizes = []
        real = bd._fiber_grid
        monkeypatch.setattr(bd, "_fiber_grid", lambda *a: sizes.append(
            len(real(*a))) or real(*a))
        for radius in (0.15, 1.0, 100.0):
            b = bd.rotation_bundle([0.9], radius=radius)
            fiber = b.fiber_chart
            bd.ccl_check(b, fm.one_form(fiber, {"u": parse_field(fiber, "-v"),
                                                "v": parse_field(fiber, "u")}))
        assert sizes[0] == sizes[1] == sizes[2]

    def test_grid_built_once(self):
        # every ccl_check at one radius shares one read-only grid
        grid = bd._fiber_grid(0.5, 0.05)
        assert bd._fiber_grid(0.5, 0.05) is grid
        assert not grid.flags.writeable
        assert bd._fiber_grid(0.5, 0.1) is not grid


def assert_jet(w, pts):
    """forms.jet's coefficients and matrix of d w, bit for bit against
    coeff_array and the walked matrix of exterior_d(w)."""
    a, W = fm.jet(w, pts)
    np.testing.assert_array_equal(a, w.coeff_array(pts))
    np.testing.assert_array_equal(W, walk_form_matrices(exterior_d(w), pts))


class TestFormMatrices:
    @pytest.mark.parametrize("n, k", [(2, 3), (3, 5), (4, 6)])
    def test_graph_two_form(self, n, k, rng):
        Y = graph(n, k, z=f"x1 * y{n} + sin(x{n}) * y{n}^2")
        assert_jet(Y.lambda_form, samples(Y, rng, 10))

    def test_random_two_form(self, rng):
        ch = Chart(("a", "b", "c", "d", "e"))
        assert_jet(random_one_form(ch, rng), rng.uniform(-1, 1, (10, 5)))

    @pytest.mark.parametrize("point", [[0.3, 0.0, 0.0], [0.3, 0.1, -0.2],
                                       [0.0, 0.0, 1e-9]])
    def test_singular_normal_data(self, point):
        Y = generic_hypersurface(2)
        got = co.singular_normal_data(Y, point)
        lam = Y.lambda_form
        if max_coeffs(lam, [point])[0] > 1e-8:
            assert got == {"singular": False, "tag": "not singular"}
            return
        M = walk_form_matrices(exterior_d(lam), [point])[0]
        val = M[Y.source_chart.index("x2"), Y.source_chart.index("y2")]
        assert got["rank"] == svd_count(M, 1e-8)
        assert got["normal_value"] == val
        assert got["orientation_sign"] == int(np.sign(val))

    @pytest.mark.parametrize("n", [2, 3])
    def test_flat_structure(self, n, rng):
        Y = generic_hypersurface(n)
        pts = rng.uniform(-0.4, 0.4, (12, Y.source_chart.dim))
        got = bd.extract_flat_structure(Y, pts)
        want = walk_flat_structure(Y, pts)
        for key in ("membership_residual", "integrability_residual",
                    "covariant_constancy_residual"):
            assert close(got[key], want[key]), key
        assert len(got["kernel_bases"]) == len(want["kernel_bases"])
        for B, W in zip(got["kernel_bases"], want["kernel_bases"]):
            np.testing.assert_array_equal(B, W)

    def test_flat_structure_refusal(self, rng):
        # The zeros form the generic plane x3 = y3 = 0, but d lambda has
        # rank 4 wherever y3 != 0.
        Y = graph(3, y1="x2 * y3", z="(x3^2 + y3^2) / 2")
        pts = rng.uniform(-0.4, 0.4, (6, 4))
        pts[:3, 3] = 0.0  # rank 2 on the first samples
        got = outcome(bd.extract_flat_structure, Y, pts)
        assert got == (ValueError, "non-generic singular structure")
        assert got == outcome(walk_flat_structure, Y, pts)
        assert co.singular_scan(Y, box=0.5, step=0.05).flags == ("generic",)

    def test_coorientation_sign(self):
        g = singular_germ()
        base = g.restricted.chart
        d = exterior_d(g.restricted)
        eye = np.eye(base.dim)
        i0, i1 = (base.index(v) for v in g.fiber_pair)
        pts = [[0.0, 0.0, 0.0], [0.2, -0.1, 0.3]]
        normal = form_values(d, pts, [eye[i0], eye[i1]])
        flipped = dataclasses.replace(g, orientation=-1)
        for p, want in zip(pts, normal):
            assert gm.coorientation_signs(g, flipped, p) \
                == (int(np.sign(want)), -int(np.sign(want)))
            assert gm.coorientation_signs(flipped, g, p) \
                == (-int(np.sign(want)), int(np.sign(want)))

    def test_contact_hyperplane(self, rng):
        alpha = co.standard_alpha(2)
        dalpha = exterior_d(alpha)
        for p in rng.uniform(-1, 1, (5, 5)):
            xi, omega = sl.contact_hyperplane(alpha, p)
            B = xi.basis
            want = form_values(dalpha, [p] * len(B) ** 2, [
                [u, v] for u in B for v in B]).reshape(len(B), len(B))
            np.testing.assert_allclose(omega.matrix, want, rtol=0,
                                       atol=1e-14)

    def test_perturbation_sup_norm(self, rng):
        Y = co.legendrian_model(2)
        Yp = co.perturb_legendrian(Y, parse_field(
            Y.source_chart, "0.1 * y1 * exp(0 - y1^2)"))
        pts = samples(Y, rng)
        want = float(np.max(np.abs(values(embedding(Y).components, pts)
                                   - values(embedding(Yp).components, pts))))
        assert close(co.perturbation_sup_norm(Y, Yp, pts), want)


# ---------------------------------------------------------------------------
# Linear-algebra helpers and evaluation errors
# ---------------------------------------------------------------------------


class TestStackedLinearAlgebra:
    def test_ranks_match_per_matrix(self, rng):
        mats = rng.normal(size=(30, 4, 5))
        mats[::3, 3] = mats[::3, 0] + 2 * mats[::3, 1]  # rank 3
        mats[1::5] = 0.0
        mats[2::7, :, 1:] *= 1e-12
        assert sl.stacked_rank(mats).tolist() \
            == [sl._rank(M) for M in mats]
        X = rng.normal(size=(30, 5, 4))
        X[::3, :, 2:] = 0.0  # rank 2, rank 4 elsewhere
        skew = X @ np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]]) \
            @ X.transpose(0, 2, 1)
        skew[1::5] = 0.0
        skew[2::7, :, 1:] *= 1e-12
        skew = (skew - skew.transpose(0, 2, 1)) / 2
        for tol in (1e-8, 1e-3):
            assert sl.skew_rank(skew, tol).tolist() == [
                int(svd_count(S, tol)) for S in skew]
        assert sl.skew_rank(np.zeros((3, 1, 1)), 1e-8).tolist() == [0] * 3
        assert sl.skew_rank(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1e-8) == 2

    def test_hyperplanes_match_null_space(self, rng):
        covecs = rng.normal(size=(20, 5))
        covecs[3] = [0.0, 0.0, 1e-9, 0.0, 0.0]
        bases = hyperplane_bases(covecs)
        for c, B in zip(covecs, bases):
            ref = sl.span(null_space(c[None], rcond=1e-12).T)
            assert sl.span(B).equals(ref, 1e-8)
            np.testing.assert_allclose(B @ B.T, np.eye(4), atol=1e-14)
        assert svd_same_kernels(covecs, -3 * covecs).all()
        other = svd_same_kernels(covecs, covecs[::-1], sl.TOL)
        assert other.tolist() == [
            sl.span(A).equals(sl.span(B)) for A, B in zip(bases,
                                                         bases[::-1])]
        # lengths whose squares overflow or underflow
        for scale in (1.0, 1e-170, 1e170, 1e-300, 1e300):
            assert sl.same_kernels(scale * covecs, covecs[::-1],
                                   sl.TOL).tolist() == other.tolist()
            # a zero row and a -0 row never share a kernel, not even with
            # each other
            zeros = np.zeros((2, 5))
            zeros[1] = -0.0
            for c0, c1 in ((zeros, scale * covecs[:2]),
                           (scale * covecs[:2], zeros), (zeros, zeros),
                           (zeros, zeros[::-1])):
                assert not sl.same_kernels(c0, c1, sl.TOL).any()

    def test_row_norms_keep_hypot_range(self, rng):
        """Where squares overflow, underflow or vanish, row_norms is hypot's
        norm; elsewhere it is within a few ulps of it."""
        rows = rng.normal(size=(60, 6))
        rows[::4] *= 1e-300
        rows[1::4] *= 1e300
        rows[2::8] *= 1e-160  # squares subnormal
        rows[5] = 0.0
        rows[9] = -0.0
        rows[13, :3] = 0.0
        want = np.hypot.reduce(rows, axis=1)
        got = sl.row_norms(rows)
        np.testing.assert_allclose(got, want, rtol=4 * np.finfo(float).eps,
                                   atol=0.0)
        assert got[5] == got[9] == 0.0
        assert np.all(got[[i for i in range(60) if i not in (5, 9)]] > 0)
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_householder_bases(self, dim, rng):
        """The reflector rows are an orthonormal basis of the covector's
        kernel, the SVD's span, at scales whose squares underflow or
        overflow and with a first component of either sign or zero."""
        for scale, first in itertools.product((1e-170, 1.0, 1e170),
                                              (2.0, -2.0, 0.0, -0.0)):
            covecs = rng.normal(size=(40, dim))
            covecs[:, 0] = first * np.abs(covecs[:, 0]) if first else first
            covecs *= scale
            bases = hyperplane_bases(covecs)
            assert bases.shape == (40, dim - 1, dim)
            np.testing.assert_allclose(
                bases @ bases.transpose(0, 2, 1),
                np.broadcast_to(np.eye(dim - 1), (40, dim - 1, dim - 1)),
                rtol=0, atol=1e-14)
            unit = covecs / np.hypot.reduce(covecs, axis=1, keepdims=True)
            assert np.max(np.abs(np.einsum("nij,nj->ni", bases, unit))) \
                <= 1e-15
            for B, ref in zip(bases, svd_hyperplane_bases(covecs)):
                assert sl.span(B).equals(sl.span(ref))

    @pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [1.0, np.nan, 0.0],
                                     [np.inf, 1.0, 0.0], [-0.0, 0.0]],
                             ids=["zero", "nan", "inf", "negative-zero"])
    def test_hyperplane_of_degenerate_covector_raises(self, row):
        covecs = np.ones((3, len(row)))
        covecs[1] = row
        with pytest.raises(ValueError, match="nonzero finite"):
            hyperplane_bases(covecs)

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_rank2_restriction(self, dim, rng):
        """restrict_to_kernel's rank-2 update of W is exactly skew and has
        the singular values of P W P^T on the oracle's reflector bases, at
        covector scales whose squares underflow or overflow and with a first
        component of either sign or zero."""
        for scale, first in itertools.product((1e-170, 1.0, 1e170),
                                              (2.0, -2.0, 0.0, -0.0)):
            covecs = rng.normal(size=(40, dim))
            covecs[:, 0] = first * np.abs(covecs[:, 0]) if first else first
            covecs *= scale
            X = rng.normal(size=(40, dim, dim))
            W = X - X.transpose(0, 2, 1)
            S = sl.restrict_to_kernel(covecs.T, W.transpose(1, 2, 0))
            assert S.shape == (dim - 1, dim - 1, 40)
            assert np.array_equal(S, -S.transpose(1, 0, 2))
            P = hyperplane_bases(covecs)
            want = np.linalg.svd(P @ W @ P.transpose(0, 2, 1),
                                 compute_uv=False)
            got = np.linalg.svd(S.transpose(2, 0, 1), compute_uv=False)
            bound = 1e-13 * np.max(np.abs(W), axis=(1, 2))
            assert np.all(np.abs(got - want) <= bound[:, None])

    def test_closed_form_kernel_sweep(self):
        """same_kernels decides as the SVD comparison on every pair: dims 2-9,
        covector scales 1e-3 to 1e3, both signs, relative perturbations
        1e-10 to 1e-5, across the threshold."""
        rng = np.random.default_rng(20261018)
        count, decided = 3000, []
        for dim in range(2, 10):
            def scales(lo, hi):
                return 10.0 ** rng.uniform(lo, hi, (count, 1))
            c0 = rng.normal(size=(count, dim)) * scales(-3, 3)
            nudge = rng.normal(size=(count, dim))
            nudge *= scales(-10, -5) / np.linalg.norm(nudge, axis=1,
                                                      keepdims=True)
            unit = c0 / np.linalg.norm(c0, axis=1, keepdims=True)
            sign = rng.choice([-1.0, 1.0], (count, 1))
            c1 = sign * scales(-3, 3) * (unit + nudge)
            got = sl.same_kernels(c0, c1, 1e-8)
            assert got.tolist() == svd_same_kernels(c0, c1).tolist()
            decided.append(got.mean())
        # the sweep straddles the threshold in every dimension
        assert all(0.05 < share < 0.95 for share in decided), decided


class TestZeroDivisor:
    """z = y2 / x1 is undefined at x1 = 0: both paths raise there."""

    Y = graph(2, z="y2 / x1")

    def points(self, rng):
        pts = samples(self.Y, rng, 10)
        pts[4, 0] = 0.0
        return pts

    def test_residuals(self, rng):
        pts = self.points(rng)
        with pytest.raises(EvaluationError):
            co.residual_values(self.Y, pts)
        with pytest.raises(EvaluationError):
            walk_residuals(self.Y, pts)

    def test_claim(self, rng):
        """claim's one second-order batch fails where the components do,
        with the row and reason of the residual table's first-order batch
        (lambda_jet)."""
        pts = self.points(rng)
        with pytest.raises(EvaluationError, match=re.escape(
                f"row 4, point {pts[4].tolist()}: division by zero")):
            co.verify_claim(self.Y, pts, 1e-8)
        with pytest.raises(EvaluationError):
            walk_claim(self.Y, pts, 1e-8)

    def test_char_foliation(self, rng):
        pts = self.points(rng)
        with pytest.raises(EvaluationError, match=re.escape(
                f"row 4, point {pts[4].tolist()}: division by zero")):
            co.char_foliation_form(self.Y, pts)
        with pytest.raises(EvaluationError):
            walk_char_foliation(self.Y, pts, 1e-8)

    def test_zero_section(self, rng):
        g = nonsingular_germ(2, F)
        expected = section_form(g, t="2 + x2 / x1")
        pts = rng.uniform(-0.9, 0.9, (10, 3))
        pts[4, 1] = 0.0
        with pytest.raises(EvaluationError):
            gm.zero_section_foliation_check(g, expected, pts)
        with pytest.raises(EvaluationError):
            walk_zero_section(g, expected, pts, 1e-10)


# ---------------------------------------------------------------------------
# singular scan: the generated function on columns against the block loop
# over batch
# ---------------------------------------------------------------------------


def walk_scan(Y, box=1.0, step=0.05, tol=1e-6):
    """The scan as it ran through CompiledExprs.batch: an (N, k) grid of rows
    and one (rows, k + k^2) batch per block of SCAN_BLOCK_ROWS rows.
    Returns the hits, clusters, dims and flags."""
    lam = Y.lambda_form
    src = Y.source_chart
    k = src.dim
    coeff_fields = [lam.coeff((i,)) for i in range(k)]
    grad_fields = [c.diff(v) for c in coeff_fields for v in src.var_names]
    compiled = compile_exprs(
        src, tuple(f.expr for f in coeff_fields + grad_fields))
    axis = np.arange(-box, box + step / 2, step)
    grids = np.meshgrid(*([axis] * k), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    is_hit = np.empty(len(pts), dtype=bool)
    for start in range(0, len(pts), co.SCAN_BLOCK_ROWS):
        rows = slice(start, start + co.SCAN_BLOCK_ROWS)
        block = compiled.batch(pts[rows])
        vals, grads = block[:, :k], block[:, k:]
        gsq = 0.0
        for j in range(grads.shape[1]):  # summed in the order of the fields
            gsq = gsq + grads[:, j] ** 2
        thresh = tol * (1.0 + np.sqrt(gsq))
        is_hit[rows] = np.all(np.abs(vals) <= thresh[:, None], axis=1)
    hits_arr = pts[is_hit]
    cells = np.unravel_index(np.flatnonzero(is_hit), (len(axis),) * k)
    clusters = co._groups(co._link(np.stack(cells, axis=1)))
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
    return hits_arr, tuple(tuple(i) for i in clusters), tuple(dims), \
        tuple(flags)


def bump_cleared_plane():
    Y = co.legendrian_model(2)
    return co.perturb_legendrian(Y, parse_field(
        Y.source_chart, "0.1 * y1 * exp(0 - y1^2)"))


# A graph whose coefficients and gradients read every source coordinate.
DENSE_Z = "sin(x1 * x2 * y2) + (x2^2 + y2^2) / 2"


def with_form(*coeffs):
    """The Legendrian model over (x1, x2, y1) with its restricted form set to
    coeffs, numbers or field texts; the scan reads what they read.  No graph
    has a form that reads no coordinate, or one that leaves its last source
    coordinate unread: d lambda is dx_f ^ dy_f on a free pair, and the free
    y's come last."""
    Y = co.legendrian_model(2)
    src = Y.source_chart
    Y.__dict__["lambda_form"] = fm.one_form(src, {
        v: parse_field(src, c) if isinstance(c, str) else c
        for v, c in zip(src.var_names, coeffs)})
    return Y


SCAN_FAULT = """\
graph steep
  n = 2
  k = 3
  z = {z}
end

check zeros
  kind = scan
  target = steep
end
"""


class TestScanColumns:
    """singular_scan evaluates the generated function on columns, in blocks
    of the sub-grid of the source coordinates that some output reads, and
    extends the hits along the others.  It calls CompiledExprs.batch
    only when an output fails a check or is not finite: on the failing
    sub-grid block, then on the one full-grid block that holds the first
    failing point, which raises.  The hits are bit-equal to the block loop
    over batch on the full grid (walk_scan), with its dtype and C order;
    the clusters, dims and flags are equal; a fault raises batch's
    EvaluationError, whose row is relative to its full-grid block."""

    @staticmethod
    def assert_same_scan(Y, **grid):
        res = co.singular_scan(Y, **grid)
        with np.errstate(over="ignore"):  # where the gradient norm overflows
            hits, clusters, dims, flags = walk_scan(Y, **grid)
        assert res.hits.dtype == hits.dtype == np.float64
        assert res.hits.shape == hits.shape
        assert res.hits.flags["C_CONTIGUOUS"]
        assert res.hits.tobytes() == hits.tobytes()
        assert (res.clusters, res.dims, res.flags) == (clusters, dims, flags)
        return res

    @pytest.mark.parametrize("make, hits, points", [
        # the outputs read y1 on the plane and the bump, x2 and y2 on the
        # curve: 41 and 1,681 distinct points
        (lambda: co.legendrian_model(2), 1681, 41),
        (lambda: graph(2, z="(x2^2 + y2^2) / 2"), 41, 41 ** 2),
        (bump_cleared_plane, 0, 41),
        # the gradient norm overflows at x1 = 1 and every threshold there
        # is inf, with every output finite
        (lambda: graph(2, z="exp(360 * x1) + (x2^2 + y2^2) / 2"), 1700,
         41 ** 3),
        (lambda: graph(2, z=DENSE_Z), 41, 41 ** 3),
        # no coordinate read: one point, extended to every grid point
        (lambda: with_form(0.0, 0.0, 0.0), 41 ** 3, 1),
        (lambda: with_form(0.0, 1e-3, 0.0), 0, 1),
    ], ids=["plane", "paraboloid-curve", "bump", "overflowing-total", "dense",
            "constant-zero", "constant"])
    def test_bundled_grid(self, make, hits, points, monkeypatch):
        """The demo grid: 41^3 = 68,921 points, 16 whole blocks and 3,385
        rows in the last when every coordinate is read.  points counts the
        rows the generated function sees; with every output finite, batch
        is not called."""
        assert 41 ** 3 % co.SCAN_BLOCK_ROWS
        Y, calls, seen = make(), [], []
        batch, compile_ = CompiledExprs.batch, co.compile_exprs
        monkeypatch.setattr(CompiledExprs, "batch",
                            lambda self, pts: calls.append(1) or batch(
                                self, pts))

        def counted(chart, exprs):
            compiled = compile_(chart, exprs)
            columns = compiled.columns
            monkeypatch.setattr(
                compiled, "columns", lambda *cols: seen.append(next(
                    (len(c) for c in cols if c is not None), 1)) or columns(
                        *cols))
            return compiled

        monkeypatch.setattr(co, "compile_exprs", counted)
        co.singular_scan(Y)
        assert calls == []
        assert sum(seen) == points
        assert len(seen) == -(-points // co.SCAN_BLOCK_ROWS)
        monkeypatch.undo()
        assert self.assert_same_scan(Y).num_hits == hits

    @pytest.mark.parametrize("make, limit_mb", [
        (lambda: graph(2, z="(x2^2 + y2^2) / 2"), 0.5),
        (lambda: co.legendrian_model(2), 0.5),
        (bump_cleared_plane, 0.5),
        (lambda: graph(2, z=DENSE_Z), 3.0),
        (lambda: co.legendrian_model(3), 20.0),
    ], ids=["curve", "plane", "bump", "dense", "plane-k4"])
    def test_traced_memory(self, make, limit_mb):
        """Peak traced memory of a demo-grid scan: the curve, the plane and
        the bump read at most two coordinates, so no full-grid array is
        built; the dense graph reads all three and stays within its blocks
        (one broadcast call over the whole grid peaks near 19 MB).  The k = 4
        plane has 68,921 hits from one sub-grid hit, and its memory follows
        the hits (a full-grid hit mask and clustering of every hit cell
        peaked at 266 MB)."""
        Y = make()
        co.singular_scan(Y)  # compiled once, outside the trace
        tracemalloc.start()
        try:
            co.singular_scan(Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6

    @pytest.mark.parametrize("box, step, points", [
        (0.75, 0.1, 16 ** 3),  # exactly one block
        (0.6, 0.1, 13 ** 3),  # less than one block
        (1.2, 0.1, 25 ** 3),  # three whole blocks and 3,337 rows
    ])
    def test_grid_sizes(self, box, step, points):
        Y = graph(2, z="(x2^2 + y2^2) / 2 + x1 * y2")
        assert len(np.arange(-box, box + step / 2, step)) ** 3 == points
        self.assert_same_scan(Y, box=box, step=step)

    def test_small_blocks(self, monkeypatch):
        """Blocks of 7 rows: most blocks mix hits and misses, and the last
        one is partial."""
        monkeypatch.setattr(co, "SCAN_BLOCK_ROWS", 7)
        res = self.assert_same_scan(graph(2, z="(x2^2 + y2^2) / 2"),
                                    box=0.6, step=0.1)
        assert res.num_hits == 13

    def test_k4_graph(self):
        """k = 4 over (x1, x2, y1, y2): the singular set is the y1-line."""
        Y = graph(2, 4, z="x1 * y1 + (x2^2 + y2^2) / 2")
        res = self.assert_same_scan(Y, box=0.5, step=0.1)
        assert res.num_hits == 11 and res.dims == (1,)

    @pytest.mark.parametrize("make, hits, dims", [
        # over (x1, x2, x3, y3), reads x1, x3 and y3: x2 is in the middle
        (lambda: graph(3, z="(x1^2 + x3^2 + y3^2) / 2"), 11, (1,)),
        # reads x1 and x2: the unread y1 comes last
        (lambda: with_form("x1", "x2", 0.0), 11, (1,)),
        # over (x1, x2, x3, y3), reads x3 and y3: two unread axes first
        (lambda: graph(3, z="(x3^2 + y3^2) / 2"), 121, (2,)),
        # one hit, at the origin: a cluster of one point has dimension 0
        (lambda: with_form("x1", "x2", "y1"), 1, (0,)),
    ], ids=["unread-middle", "unread-last", "unread-pair", "point"])
    def test_product_extension(self, make, hits, dims):
        """The hits are (sub-grid hits) x (unread cube), in the full grid's C
        order; their clusters are the sub-grid clusters times the cube.  The
        oracle clusters every full-grid hit cell.  test_bundled_grid holds
        the unread axis first (paraboloid-curve), none read (constant-zero)
        and every axis read (dense)."""
        res = self.assert_same_scan(make(), box=0.5, step=0.1)
        assert (res.num_hits, res.dims) == (hits, dims)

    def test_interleaved_components(self):
        """Three singular lines along the unread x1, at x2 = -0.5, 0 and 0.5:
        in the full grid's C order their hits alternate, so each cluster
        holds every third hit."""
        res = self.assert_same_scan(
            graph(2, z="(x2^2 - 0.25)^2 / 4 + y2^2 / 2"))
        assert res.num_hits == 123
        assert res.clusters == tuple(
            tuple(range(i, 123, 3)) for i in range(3))
        assert res.dims == (1, 1, 1)
        assert res.flags == ("generic",) * 3

    def test_sub_grid_components(self):
        """Four sub-grid hits on (x2, y1), at grid offsets (0, 0), (2, 1),
        (4, 2) and (-3, 1) from the origin: the first three link (d.d = 5),
        the last lies at d.d = 10 and stays apart.  Every x1 repeats them,
        and the lone point comes first in C order."""
        Y = with_form(0.0, "(x2 - 2 * y1) * (x2 + 3 * y1)",
                      "y1 * (y1 - 0.1) * (y1 - 0.2)")
        res = self.assert_same_scan(Y, box=0.5, step=0.1)
        assert res.num_hits == 44
        assert [len(c) for c in res.clusters] == [11, 33]

    def test_hits_in_many_blocks(self):
        """The plane y1 = 0 on a box-1.2 grid: hits in every block."""
        res = self.assert_same_scan(co.legendrian_model(2), box=1.2,
                                    step=0.1)
        assert res.num_hits == 25 ** 2

    @pytest.mark.parametrize("z, x1, reason", [
        ("exp(x1 + 709)", 0.8, "exp overflow"),
        ("exp(400 * x1) * exp(400 * x1)", 0.9, "non-finite value"),
    ], ids=["exp", "product"])
    def test_fault_in_a_later_block(self, z, x1, reason):
        """The fault first appears at a grid point with x1 = 0.8 or 0.9, in
        the 15th block of the demo grid or later: the scan raises the walk's
        EvaluationError text, with the same row within the block, and the
        scan check's outcome is error."""
        Y = graph(2, z=z)
        with pytest.raises(EvaluationError) as want, \
                np.errstate(over="ignore"):
            walk_scan(Y)
        with pytest.raises(EvaluationError) as got:
            co.singular_scan(Y)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("row ")
        assert f"point [{x1}" in str(got.value)
        assert reason in str(got.value)
        (entry,) = runner.run_scenario(parse_scenario(
            SCAN_FAULT.format(z=z)))["checks"]
        assert entry["ok"] is False
        assert entry["detail"] == {"passed": False, "refused": False}
        assert entry["error"] == f"EvaluationError: {got.value}"

    @pytest.mark.parametrize("k", [4, 5])
    def test_fault_deep_in_the_grid(self, k, monkeypatch):
        """z = y3 / (x1 - axis[39]) at n = 3: the outputs read x1 and y3,
        and at k = 5 also the free y2 (on dx2), a sub-grid of 41^2 or 41^3
        points in the 41^k grid.  Every point with x1 = axis[39] fails, so
        the first failing grid point is F = 39 * 41^(k-1), past 2.7 million
        rows at k = 4 and 110 million at k = 5.  The raise runs batch on the
        failing sub-grid block and on the one grid block that holds F, not
        on the grid up to F, and names F's row in that block."""
        Y = graph(3, k, z="y3 / (x1 - 0.9500000000000017)")
        axis = np.arange(-1.0, 1.025, 0.05)
        first = 39 * 41 ** (k - 1)
        want = (f"row {first % co.SCAN_BLOCK_ROWS}, point "
                f"{[float(axis[39])] + [-1.0] * (k - 1)}: division by zero")
        assert want.startswith(("row 943, point [0.9500000000000017,",
                                "row 1799, point [0.9500000000000017,"))
        calls = []
        batch = CompiledExprs.batch
        monkeypatch.setattr(CompiledExprs, "batch", lambda self, pts: (
            calls.append(len(pts)) or batch(self, pts)))
        start = time.perf_counter()
        with pytest.raises(EvaluationError) as got:
            co.singular_scan(Y)
        assert time.perf_counter() - start < 1.0
        assert str(got.value) == want
        # x1 is the slowest read axis: the failing sub-grid block is the
        # last, partial one
        assert calls == [41 ** (k - 2) % co.SCAN_BLOCK_ROWS,
                         co.SCAN_BLOCK_ROWS]
