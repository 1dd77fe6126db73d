"""The batched checks against the per-sample loops they replaced.

Each reference below is the loop a check ran before it moved onto the
compiled path: it walks the expression trees one sample at a time, with one
SVD or scipy null space per sample.  The batched checks must give the same
verdicts, kernel dimensions, counts, diagnostics and mismatch lists (in the
same order), residuals within 1e-12 relative (1e-15 absolute near zero), and
raise EvaluationError on the same samples.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import null_space

from legfol import bundle as bd
from legfol import coiso as co
from legfol import forms as fm
from legfol import germ as gm
from legfol import symplin as sl
from legfol.fields import (
    Chart,
    EvaluationError,
    constant,
    coordinate,
    lie_bracket,
    parse_field,
    pushforward_field,
    vector_field,
)


def close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# The per-sample loops
# ---------------------------------------------------------------------------


def walk_residuals(Y, point):
    fams = co.residual_fields(Y)
    out = {key: {idx: f.eval(point) for idx, f in fam.items()}
           for key, fam in fams.items()}
    binding = [v for key in ("eq_abn", "eq_abyn", "eq_a")
               for v in out[key].values()]
    out["max_residual"] = max((abs(v) for v in binding), default=0.0)
    out["redundant_max"] = max(
        (abs(v) for v in out["eq_abc"].values()), default=0.0)
    return out


def walk_claim(Y, points, tol):
    bad = []
    for p in points:
        r = walk_residuals(Y, p)
        if r["max_residual"] > tol:
            bad.append((list(map(float, p)), r["max_residual"]))
    if bad:
        return {"refused": True, "diagnostics": bad[:10],
                "num_bad": len(bad)}
    tilde, ambient = co.build_Vk(Y)
    alpha = co.standard_alpha(Y.n)
    lam = Y.lambda_form
    dlam = fm.exterior_d(lam)
    emb = Y.embedding
    res = dict.fromkeys(("i_V_alpha", "i_V_dlambda", "bracket",
                         "lie_lambda", "lambda_ab"), 0.0)
    for Vt, Va in zip(tilde, ambient):
        ival = fm.interior(Va, alpha).coeff(())
        idl = fm.interior(Vt, dlam)
        ld = fm.lie_derivative(Vt, lam)
        for p in points:
            res["i_V_alpha"] = max(res["i_V_alpha"],
                                   abs(ival.eval(emb.eval(p))))
            res["i_V_dlambda"] = max(res["i_V_dlambda"], idl.max_coeff(p))
            res["lie_lambda"] = max(res["lie_lambda"], ld.max_coeff(p))
    for Vt, Wt in itertools.combinations(tilde, 2):
        pushed = pushforward_field(emb, lie_bracket(Vt, Wt))
        for p in points:
            res["bracket"] = max(res["bracket"],
                                 max(abs(c.eval(p)) for c in pushed))
    for f in co.residual_fields(Y)["lambda_ab"].values():
        for p in points:
            res["lambda_ab"] = max(res["lambda_ab"], abs(f.eval(p)))
    res["refused"] = False
    return res


def walk_contraction_matrix(omega, p):
    rows = {idx: r for r, idx in enumerate(
        itertools.combinations(range(omega.chart.dim), omega.degree - 1))}
    M = np.zeros((len(rows), omega.chart.dim))
    for idx, v in omega.coeff_values(p).items():
        for pos, i in enumerate(idx):
            M[rows[idx[:pos] + idx[pos + 1:]], i] += (-1) ** pos * v
    return M


def walk_char_foliation(Y, points, tol):
    n, k = Y.n, Y.k
    alpha = co.standard_alpha(n)
    dalpha = fm.exterior_d(alpha)
    emb = Y.embedding
    omega = fm.pullback(emb, fm.wedge(alpha, fm.wedge_power(dalpha,
                                                            k - n - 1)))
    integ = fm.pullback(emb, fm.wedge_power(dalpha, k - n)) \
        if 2 * (k - n) <= k else None
    lam = Y.lambda_form
    dims, worst = [], 0.0
    for p in points:
        if lam.max_coeff(p) <= tol:
            continue
        M = walk_contraction_matrix(omega, p)
        s = np.linalg.svd(M, compute_uv=False)
        dims.append(k - int(np.sum(s > tol * max(1.0, np.max(np.abs(M))))))
        covec = np.zeros(k)
        for (i,), c in lam.coeffs.items():
            covec[i] = c.eval(p)
        W = null_space(covec.reshape(1, -1), rcond=1e-12).T
        deg = 2 * (k - n)
        if integ is not None and deg <= len(W):
            for combo in itertools.combinations(range(len(W)), deg):
                worst = max(worst, abs(integ.evaluate(p, [W[i]
                                                          for i in combo])))
    return {"kernel_dims": dims, "integrability_residual": worst,
            "samples_used": len(dims)}


def walk_zero_section(g, expected, points, tol):
    restricted = g.restricted()
    base = restricted.chart
    diff = restricted - expected
    mismatches = []
    max_resid = 0.0
    for p in points:
        for idx in set(restricted.coeffs) | set(expected.coeffs):
            r = abs(diff.coeff(idx).eval(p))
            if r > tol:
                mismatches.append(
                    {"point": list(map(float, p)),
                     "index": [base.var_names[i] for i in idx],
                     "residual": float(r)})
            max_resid = max(max_resid, r)
    kernel_ok = True
    singular_points = 0
    for p in points:
        covec = np.array([restricted.coeff((i,)).eval(p)
                          for i in range(base.dim)])
        exp_covec = np.array([expected.coeff((i,)).eval(p)
                              for i in range(base.dim)])
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
        for p in points:
            worst = max(worst, abs(br.components[iu].eval(p)),
                        abs(br.components[iv].eval(p)))
    return worst


def walk_foliation_residual(Y, points):
    alpha = co.standard_alpha(Y.n)
    three = fm.pullback(Y.embedding, fm.wedge(alpha, fm.exterior_d(alpha)))
    return max(three.max_coeff(p) for p in points)


def walk_ccl_grid(bundle, beta, grid_step=0.1):
    """min |beta| away from the origin and min d beta over the fiber grid."""
    grid = bd._fiber_grid(bundle.radius, grid_step)

    def covec(p):
        c = np.zeros(2)
        for (i,), f in beta.coeffs.items():
            c[i] = f.eval(p)
        return c

    away = grid[np.hypot(grid[:, 0], grid[:, 1]) >= 2 * grid_step]
    min_away = min(np.linalg.norm(covec(p)) for p in away)
    dbeta = fm.exterior_d(beta)
    frame = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    min_db = min(bundle.orientation * dbeta.evaluate(p, frame) for p in grid)
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

    def compare(self, Y, pts):
        table = co.residual_values(Y, pts)
        for row, p in enumerate(pts):
            want = walk_residuals(Y, p)
            one = co.coisotropy_residuals(Y, p)
            for key in ("max_residual", "redundant_max"):
                assert close(table[key][row], want[key])
                assert close(one[key], want[key])
            for key in co.residual_fields(Y):
                assert set(table[key]) == set(want[key])
                for idx, v in want[key].items():
                    assert close(table[key][idx][row], v)
                    assert close(one[key][idx], v)


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

    @pytest.mark.parametrize("Y", [
        graph(2, y1="1.3 * x1 * x2"),
        graph(2, 4, z="x1 * y2 + sin(y1)"),
        graph(3, 5, z="x1 * y3 + x2^2 * y2"),
    ], ids=["twisted", "curved-n2k4", "curved-n3k5"])
    def test_curved(self, Y, rng):
        self.compare(Y, samples(Y, rng))

    def compare(self, Y, pts):
        got = co.char_foliation_form(Y, pts, 1e-8)
        want = walk_char_foliation(Y, pts, 1e-8)
        assert got["kernel_dims"] == want["kernel_dims"]
        assert got["samples_used"] == want["samples_used"]
        assert close(got["integrability_residual"],
                     want["integrability_residual"])
        assert got["kernel_ok"] == all(
            d == 2 * Y.n - Y.k + 1 for d in want["kernel_dims"])


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


def singular_germ():
    b = bd.rotation_bundle([0.7])
    fiber = b.fiber_chart
    area = fm.one_form(fiber, {"u": -coordinate(fiber, "v"),
                               "v": coordinate(fiber, "u")})
    return gm.build_singular_germ(b, area)


def section_form(g, **texts):
    base = g.restricted().chart
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
        base = g.restricted().chart
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


# ---------------------------------------------------------------------------
# flatness, foliation residual, CCL grid
# ---------------------------------------------------------------------------


def sheared_bundle():
    total = Chart(("s1", "s2", "u", "v"), (1.0, 1.0, None, None))
    s1, u, v = (coordinate(total, name) for name in ("s1", "u", "v"))
    zero = constant(total, 0.0)
    return bd.FlatDiskBundle(2, (1.0, 1.0), 1.0, (zero, s1 * v),
                             (zero - u, zero))


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
            co.legendrian_model(2).source_chart, "0.1 * y1 * exp(0 - y1^2)"),
            0.1),
        graph(2, z="(x2^2 + y2^2) / 2"),
        graph(3, 5, z="x1 * y3 + x2^2 * y2"),
    ], ids=["perturbed", "paraboloid", "curved-n3k5"])
    def test_foliation_residual(self, Y, rng):
        pts = samples(Y, rng)
        assert close(co.foliation_residual(Y, pts),
                     walk_foliation_residual(Y, pts))

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
        res = bd.ccl_check(b, beta, invariance_samples=1)
        min_away, min_db = walk_ccl_grid(b, beta)
        assert close(res["vanishing"]["min_away"], min_away)
        assert close(res["positivity"]["min_dbeta"], min_db)
        assert res["positivity"]["ok"] == (min_db > 1e-6)


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
        for tol in (1e-8, 1e-3):
            assert sl.numeric_rank(mats, tol).tolist() == [
                int(np.sum(np.linalg.svd(M, compute_uv=False)
                           > tol * max(1.0, np.max(np.abs(M)))))
                for M in mats]

    def test_hyperplanes_match_null_space(self, rng):
        covecs = rng.normal(size=(20, 5))
        covecs[3] = [0.0, 0.0, 1e-9, 0.0, 0.0]
        bases = sl.hyperplane_bases(covecs)
        for c, B in zip(covecs, bases):
            ref = sl.span(null_space(c[None], rcond=1e-12).T)
            assert sl.span(B).equals(ref, 1e-8)
            np.testing.assert_allclose(B @ B.T, np.eye(4), atol=1e-14)
        same = sl.stacked_equals(bases, sl.hyperplane_bases(-3 * covecs))
        assert same.all()
        other = sl.stacked_equals(bases, sl.hyperplane_bases(covecs[::-1]))
        assert other.tolist() == [
            sl.span(A).equals(sl.span(B)) for A, B in zip(bases,
                                                         bases[::-1])]

    def test_dependent_basis_refused(self):
        A = np.array([[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]])
        with pytest.raises(ValueError, match="dependent"):
            sl.stacked_equals(A, A)


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
            [walk_residuals(self.Y, p) for p in pts]

    def test_claim(self, rng):
        pts = self.points(rng)
        with pytest.raises(EvaluationError):
            co.verify_claim(self.Y, pts, 1e-8)
        with pytest.raises(EvaluationError):
            walk_claim(self.Y, pts, 1e-8)

    def test_char_foliation(self, rng):
        pts = self.points(rng)
        with pytest.raises(EvaluationError):
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
