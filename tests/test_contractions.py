"""The array contractions of legfol against the symbolic Cartan calculus.

The package contracts compiled values and first partials: interior products
(V @ M with M the matrix of the 2-form), Lie derivatives of 1-forms
(forms.lie_coeffs), brackets (fields.brackets), pushforwards (J V) and
beta ^ d beta (germ.frobenius_residual).  tests/oracles.py keeps the same
operators as expression trees, compiled and evaluated as one more field.
The two engines must agree within 1e-13 times the largest term of each
entry of the contraction.

The graphs and bundles of the checks make most of these contractions
vanish exactly in both engines, so the comparisons run on random O(1)
fields and forms, where every entry is nonzero, as well as on graphs with
and without coisotropy and on bundles with sheared, trigonometric and radial
lifts.
"""

import itertools

import numpy as np
import pytest

from legfol import bundle as bd
from legfol import coiso as co
from legfol import forms as fm
from legfol import germ as gm
from legfol.fields import (
    Chart,
    brackets,
    coordinate,
    parse_field,
    values_and_partials,
    vector_field,
)

from oracles import (
    SmoothMapExpr,
    fd_partial,
    form_matrices,
    interior,
    lie_bracket,
    lie_derivative,
    pushforward_field,
    values,
)
from test_batched import graph, radial_bundle, sheared_bundle, trig_bundle

REL = 1e-13
ABCD = Chart(("a", "b", "c", "d"))
PQR = Chart(("p", "q", "r"))


def assert_within(got, want, terms):
    """got equals want within REL times the largest |term| of each entry;
    terms has got's shape plus one trailing axis over the entry's terms."""
    assert got.shape == want.shape == terms.shape[:-1]
    err = np.abs(got - want)
    bound = REL * np.max(np.abs(terms), axis=-1)
    assert np.all(err <= bound), (err.max(), bound[err > bound])


def random_field(chart, rng):
    """An O(1) field with a product, a sine, an exponential and a constant,
    none of them zero."""
    names = rng.choice(chart.var_names, 4).tolist()
    a, b, c, d = (rng.uniform(0.5, 1.5, 4)
                  * rng.choice([-1, 1], 4)).tolist()
    return parse_field(chart, f"{a!r} * {names[0]} * {names[1]}"
                              f" + {b!r} * sin({names[2]})"
                              f" + {c!r} * exp({names[3]} / 2) + {d!r}")


def random_vector_fields(chart, count, rng):
    return [vector_field(chart, [random_field(chart, rng)
                                 for _ in range(chart.dim)])
            for _ in range(count)]


def random_dense_form(chart, degree, rng):
    """A form with a random field on every multi-index."""
    return fm.DiffForm(chart, degree, {
        idx: random_field(chart, rng)
        for idx in itertools.combinations(range(chart.dim), degree)})


def frame(chart, fields, points):
    """Values (N, m, dim) and Jacobians (N, m, dim, dim) of vector fields."""
    vals, J = values_and_partials(chart, tuple(
        c.expr for V in fields for c in V.components), points)
    return (vals.reshape(len(points), len(fields), chart.dim),
            J.reshape(len(points), len(fields), chart.dim, chart.dim))


def one_form(omega, points):
    """Coefficients (N, dim) and Jacobian (N, dim, dim) of a 1-form."""
    return values_and_partials(omega.chart, tuple(
        omega.coeff((i,)).expr for i in range(omega.chart.dim)), points)


def interior_terms(V, M):
    """(N, m, dim, dim): the terms V^i M_ij of entry (a, j), over i."""
    return (V[:, :, :, None] * M[:, None]).transpose(0, 1, 3, 2)


def lie_terms(V, JV, w, Jw):
    """(N, m, dim, 2 dim): the terms V^j d_j w_i and w_j d_i V^j of entry
    (a, i), over j."""
    first = V[:, :, None, :] * Jw[:, None]
    second = (w[:, None, :, None] * JV).transpose(0, 1, 3, 2)
    return np.concatenate([first, second], axis=-1)


def bracket_terms(V, JV):
    """(N, pairs, dim, 2 dim): the terms of J_b V_a and J_a V_b."""
    a, b = np.array(list(itertools.combinations(range(V.shape[1]), 2)),
                    dtype=int).reshape(-1, 2).T
    return np.concatenate([JV[:, b] * V[:, a, None, :],
                           JV[:, a] * V[:, b, None, :]], axis=-1)


@pytest.fixture
def pts(rng):
    return rng.uniform(-0.9, 0.9, (30, ABCD.dim))


class TestRandomFields:
    def test_jacobian_layout(self, rng, pts):
        fields = [random_field(ABCD, rng) for _ in range(3)]
        vals, J = values_and_partials(ABCD, tuple(f.expr for f in fields),
                                      pts)
        np.testing.assert_array_equal(vals, values(fields, pts))
        for f, field in enumerate(fields):
            for i, name in enumerate(ABCD.var_names):
                assert J[:, f, i] == pytest.approx(
                    fd_partial(field, pts, name), rel=1e-6, abs=1e-6)

    def test_interior_one_form(self, rng, pts):
        fields = random_vector_fields(ABCD, 3, rng)
        w = random_dense_form(ABCD, 1, rng)
        V, _ = frame(ABCD, fields, pts)
        coeffs = w.coeff_array(pts)
        want = np.stack([values([interior(F, w).coeff(())], pts)[:, 0]
                         for F in fields], axis=1)
        terms = V * coeffs[:, None]
        assert_within(terms.sum(axis=-1), want, terms)

    def test_interior_two_form(self, rng, pts):
        fields = random_vector_fields(ABCD, 3, rng)
        w = random_dense_form(ABCD, 2, rng)
        V, _ = frame(ABCD, fields, pts)
        M = form_matrices(w, pts)
        want = np.stack([interior(F, w).coeff_array(pts) for F in fields],
                        axis=1)
        assert_within(V @ M, want, interior_terms(V, M))

    def test_lie_one_form(self, rng, pts):
        fields = random_vector_fields(ABCD, 3, rng)
        w = random_dense_form(ABCD, 1, rng)
        V, JV = frame(ABCD, fields, pts)
        coeffs, Jw = one_form(w, pts)
        want = np.stack([lie_derivative(F, w).coeff_array(pts)
                         for F in fields], axis=1)
        assert_within(fm.lie_coeffs(V, JV, coeffs, Jw), want,
                      lie_terms(V, JV, coeffs, Jw))

    def test_brackets(self, rng, pts):
        fields = random_vector_fields(ABCD, 4, rng)
        V, JV = frame(ABCD, fields, pts)
        want = np.stack([values(lie_bracket(F, G).components, pts)
                         for F, G in itertools.combinations(fields, 2)],
                        axis=1)
        assert_within(brackets(V, JV), want, bracket_terms(V, JV))

    def test_pushforward(self, rng):
        phi = SmoothMapExpr(PQR, ABCD, tuple(
            random_field(PQR, rng) for _ in range(ABCD.dim)))
        fields = random_vector_fields(PQR, 3, rng)
        pts = rng.uniform(-0.9, 0.9, (30, PQR.dim))
        V, _ = frame(PQR, fields, pts)
        _, J = values_and_partials(PQR, tuple(
            c.expr for c in phi.components), pts)
        want = np.stack([values(pushforward_field(phi, F), pts)
                         for F in fields], axis=1)
        terms = V[:, :, None, :] * J[:, None]
        assert_within(V @ J.transpose(0, 2, 1), want, terms)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_beta_wedge_d_beta(self, dim, rng):
        chart = Chart(tuple(f"x{i}" for i in range(dim)))
        beta = random_dense_form(chart, 1, rng)
        pts = rng.uniform(-0.9, 0.9, (30, dim))
        three = fm.wedge(beta, fm.exterior_d(beta))
        want = np.max(np.abs(three.coeff_array(pts)))
        # the terms beta_i W_jk, over every entry: frobenius_residual
        # reports the largest |entry|
        b, Jb = one_form(beta, pts)
        W = Jb.transpose(0, 2, 1) - Jb
        terms = b[:, :, None, None] * W[:, None]
        got = gm.frobenius_residual(beta, pts)
        assert want > 0.1
        assert abs(got - want) <= REL * np.max(np.abs(terms))


# ---------------------------------------------------------------------------
# The graphs' commuting frames
# ---------------------------------------------------------------------------


GRAPHS = {
    "hyper2": graph(2, z="(1.3 * x2^2 - 0.7 * y2^2) / 2"
                         " + 0.4 * sin(x2) * y2"),
    "hyper3": graph(3, z="(-0.9 * x3^2 + 1.6 * y3^2) / 2"
                         " - 0.2 * sin(x3) * y3"),
    "twisted": graph(2, y1="1.3 * x1 * x2"),
    "curved-n3": graph(3, y1="sin(x2 + y3) + x3 * y3",
                       y2="0.5 * exp(x1 / 2) * y3", z="x1 * x2 + cos(y3)"),
}


class TestGraphFrames:
    @pytest.mark.parametrize("name", GRAPHS)
    def test_frame_residuals(self, name, rng):
        Y = GRAPHS[name]
        src = Y.source_chart
        pts = rng.uniform(-0.9, 0.9, (40, src.dim))
        got = co.frame_residuals(Y, pts)
        tilde = co.build_Vk(Y)
        lam = Y.lambda_form
        dlam = fm.exterior_d(lam)
        V, JV = frame(src, tilde, pts)
        coeffs, Jl = one_form(lam, pts)
        W = form_matrices(dlam, pts)
        # the same differences of the same partials, up to the sign of 0
        np.testing.assert_array_equal(np.abs(got["dlambda"]), np.abs(W))
        assert_within(got["i_V_dlambda"], np.stack(
            [interior(F, dlam).coeff_array(pts) for F in tilde], axis=1),
            interior_terms(V, W))
        assert_within(got["lie_lambda"], np.stack(
            [lie_derivative(F, lam).coeff_array(pts) for F in tilde],
            axis=1), lie_terms(V, JV, coeffs, Jl))
        pairs = list(itertools.combinations(tilde, 2))
        want = np.stack([values(lie_bracket(F, G).components, pts)
                         for F, G in pairs], axis=1) if pairs \
            else np.zeros((len(pts), 0, src.dim))
        assert_within(got["bracket"], want, bracket_terms(V, JV))

    def test_nonzero_entries(self, rng):
        """On the curved graph every kind of contraction has entries far
        from zero, so the comparison above is not between zeros."""
        Y = GRAPHS["curved-n3"]
        pts = rng.uniform(-0.9, 0.9, (40, Y.source_chart.dim))
        got = co.frame_residuals(Y, pts)
        for key in ("i_V_dlambda", "lie_lambda", "bracket"):
            assert np.max(np.abs(got[key])) > 0.1, key


# ---------------------------------------------------------------------------
# Bundle lifts
# ---------------------------------------------------------------------------


BUNDLES = {"sheared": sheared_bundle, "trig": trig_bundle,
           "radial": radial_bundle,
           "torus": lambda: bd.rotation_bundle([0.9, 1.7])}


class TestBundleLifts:
    @pytest.mark.parametrize("name", BUNDLES)
    def test_brackets(self, name, rng):
        """The lifts and two random fields on the total chart: brackets of
        every pair, the lifts' among them."""
        b = BUNDLES[name]()
        total = b.total_chart
        fields = b.lifts() + random_vector_fields(total, 2, rng)
        pts = rng.uniform(-0.4, 0.4, (30, total.dim))
        V, JV = frame(total, fields, pts)
        want = np.stack([values(lie_bracket(F, G).components, pts)
                         for F, G in itertools.combinations(fields, 2)],
                        axis=1)
        assert_within(brackets(V, JV), want, bracket_terms(V, JV))

    @pytest.mark.parametrize("name", BUNDLES)
    def test_lie_along_lifts(self, name, rng):
        """L_lift of the area form lifted to the total chart, and of a
        random 1-form on it."""
        b = BUNDLES[name]()
        total = b.total_chart
        u, v = coordinate(total, "u"), coordinate(total, "v")
        area = fm.one_form(total, {"u": -v, "v": u})
        pts = rng.uniform(-0.4, 0.4, (30, total.dim))
        V, JV = frame(total, b.lifts(), pts)
        for w in (area, random_dense_form(total, 1, rng)):
            coeffs, Jw = one_form(w, pts)
            want = np.stack([lie_derivative(F, w).coeff_array(pts)
                             for F in b.lifts()], axis=1)
            assert_within(fm.lie_coeffs(V, JV, coeffs, Jw), want,
                          lie_terms(V, JV, coeffs, Jw))
