"""The array contractions of legfol against the symbolic Cartan calculus.

The package contracts compiled values and partials, samples last: interior
products (V @ M with M the matrix of the 2-form), Lie derivatives of
1-forms (forms.lie_coeffs), brackets (fields.brackets), pushforwards (J V),
beta ^ d beta (forms.frobenius), a graph's lambda with the matrix of
d lambda from the components' first partials (GraphSubmanifold.lambda_jet),
which forms.jet builds from lambda's symbolic coefficients and their d, and
the identities of claim's commuting frame from the components' first and
second partials (coiso.frame_residuals).  tests/oracles.py keeps the same
operators as expression trees, compiled and evaluated as one more field.
The two engines must agree within 1e-13 times the largest term of each
entry of the contraction.  The comparisons are made samples first: first
and last move the sample axis.

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
from legfol import runner
from legfol.fields import (
    Chart,
    add,
    brackets,
    compile_exprs,
    parse_expr,
    parse_field,
    partials,
    vector_field,
)
from legfol.scenario import parse_scenario

from oracles import (
    SmoothMapExpr,
    build_Vk,
    exterior_d,
    fd_partial,
    form_matrices,
    frame_identities,
    interior,
    lie_bracket,
    lie_derivative,
    pushforward_field,
    residual_fields,
    values,
    wedge,
)
from test_batched import (
    benchmark_workloads,
    bundled_demos,
    graph,
    jet_frobenius,
    radial_bundle,
    sheared_bundle,
    trig_bundle,
)

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


def first(a):
    """The sample axis moved from last to first."""
    return np.moveaxis(a, -1, 0)


def last(a):
    """The sample axis moved from first to last."""
    return np.moveaxis(a, 0, -1)


def frame(chart, fields, points):
    """Values (N, m, dim) and Jacobians (N, m, dim, dim) of vector fields."""
    vals, J = partials(chart, tuple(
        c.expr for V in fields for c in V.components), points)
    return (first(vals).reshape(len(points), len(fields), chart.dim),
            first(J).reshape(len(points), len(fields), chart.dim, chart.dim))


def one_form(omega, points):
    """Coefficients (N, dim) and Jacobian (N, dim, dim) of a 1-form."""
    return tuple(first(a) for a in partials(omega.chart, tuple(
        omega.coeff((i,)) for i in range(omega.chart.dim)), points))


def lie(V, JV, w, Jw):
    """forms.lie_coeffs on samples-first arrays."""
    return first(fm.lie_coeffs(last(V), last(JV), last(w), last(Jw)))


def bracket(V, JV):
    """fields.brackets on samples-first arrays."""
    return first(brackets(last(V), last(JV)))


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
        exprs = tuple(f.expr for f in fields)
        vals, J, H = partials(ABCD, exprs, pts, 2)
        np.testing.assert_array_equal(vals.T, values(fields, pts))
        for got, want in zip(partials(ABCD, exprs, pts), (vals, J)):
            np.testing.assert_array_equal(got, want)
        for f, field in enumerate(fields):
            for i, name in enumerate(ABCD.var_names):
                assert J[f, i] == pytest.approx(
                    fd_partial(field, pts, name), rel=1e-6, abs=1e-6)
                for j, other in enumerate(ABCD.var_names):
                    assert H[f, i, j] == pytest.approx(fd_partial(
                        field.diff(name), pts, other), rel=1e-6, abs=1e-6)

    def test_interior_one_form(self, rng, pts):
        fields = random_vector_fields(ABCD, 3, rng)
        w = random_dense_form(ABCD, 1, rng)
        V, _ = frame(ABCD, fields, pts)
        coeffs = w.coeff_array(pts)
        want = np.stack([interior(F, w).coeff_array(pts)[:, 0]
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
        assert_within(lie(V, JV, coeffs, Jw), want,
                      lie_terms(V, JV, coeffs, Jw))

    def test_brackets(self, rng, pts):
        fields = random_vector_fields(ABCD, 4, rng)
        V, JV = frame(ABCD, fields, pts)
        want = np.stack([values(lie_bracket(F, G).components, pts)
                         for F, G in itertools.combinations(fields, 2)],
                        axis=1)
        assert_within(bracket(V, JV), want, bracket_terms(V, JV))

    def test_pushforward(self, rng):
        phi = SmoothMapExpr(PQR, ABCD, tuple(
            random_field(PQR, rng) for _ in range(ABCD.dim)))
        fields = random_vector_fields(PQR, 3, rng)
        pts = rng.uniform(-0.9, 0.9, (30, PQR.dim))
        V, _ = frame(PQR, fields, pts)
        J = first(partials(PQR, tuple(
            c.expr for c in phi.components), pts)[1])
        want = np.stack([values(pushforward_field(phi, F), pts)
                         for F in fields], axis=1)
        terms = V[:, :, None, :] * J[:, None]
        assert_within(V @ J.transpose(0, 2, 1), want, terms)

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_beta_wedge_d_beta(self, dim, rng):
        chart = Chart(tuple(f"x{i}" for i in range(dim)))
        beta = random_dense_form(chart, 1, rng)
        pts = rng.uniform(-0.9, 0.9, (30, dim))
        three = wedge(beta, exterior_d(beta))
        want = np.max(np.abs(three.coeff_array(pts)))
        # the terms beta_i W_jk, over every entry: the largest |entry|
        b, Jb = one_form(beta, pts)
        W = Jb.transpose(0, 2, 1) - Jb
        terms = b[:, :, None, None] * W[:, None]
        entries = jet_frobenius(beta, pts).T
        got = np.max(np.abs(entries))
        assert want > 0.1
        assert abs(got - want) <= REL * np.max(np.abs(terms))
        # and each entry (i, j, k) within REL of its own three terms
        i, j, k = np.array(list(itertools.combinations(range(dim), 3))).T
        assert_within(entries, three.coeff_array(pts), np.stack(
            [b[:, i] * W[:, j, k], b[:, j] * W[:, i, k],
             b[:, k] * W[:, i, j]], axis=-1))


# ---------------------------------------------------------------------------
# The graphs' commuting frames
# ---------------------------------------------------------------------------


GRAPHS = {
    "hyper2": graph(2, z="(1.3 * x2^2 - 0.7 * y2^2) / 2"
                         " + 0.4 * sin(x2) * y2"),
    "hyper3": graph(3, z="(-0.9 * x3^2 + 1.6 * y3^2) / 2"
                         " - 0.2 * sin(x3) * y3"),
    "twisted": graph(2, y1="1.3 * x1 * x2"),
    "curved-n2": graph(2, y1="x1 * sin(x2 + y2) + 0.7 * x2 * y2",
                       z="x1 * y2 + cos(x2 - y2)"),
    "curved-n3": graph(3, y1="sin(x2 + y3) + x3 * y3",
                       y2="0.5 * exp(x1 / 2) * y3", z="x1 * x2 + cos(y3)"),
}


def frame_terms(Y, pts):
    """Per identity of coiso.frame_residuals, samples first, the terms the
    package sums for each entry, from the symbolic frame's values and
    Jacobians and the components' partials, with lambda's coefficients
    a_i = dz/ds_i - y_i and their Jacobian z_ij - Dy_ij split into their
    parts, and W = Dy - Dy^T read as the parts z_ij, z_ji, Dy_ij and Dy_ji
    of the symbolic d lambda."""
    n, k = Y.n, Y.k
    src = Y.source_chart
    N = len(pts)
    V, JV = frame(src, build_Vk(Y), pts)
    vals, J, H = (first(a) for a in partials(src, Y.dependent, pts, 2))
    Jz, Hz = J[:, -1], H[:, -1]
    y = np.zeros((N, k))  # the y_i paired with x_i, y_n the coordinate n
    y[:, :n - 1], y[:, n - 1] = vals[:, :-1], pts[:, n]
    Dy = np.zeros((N, k, k))  # Dy_ij = d_j y_i
    Dy[:, :n - 1], Dy[:, n - 1, n] = J[:, :-1], 1.0
    flip = (0, 2, 1)
    bracket = bracket_terms(V, JV)  # (N, pairs, k, 2k)
    # J_emb [V_a, V_b]: a bracket entry on the x's and y_n, and sum_j
    # J_fj [V_a, V_b]^j on a dependent y_f and z
    width = 2 * k * k
    pad = np.zeros(bracket.shape[:3] + (width - 2 * k,))
    kept = np.concatenate([bracket, pad], axis=-1)
    pushed = (J[:, None, :, :, None] * bracket[:, :, None]).reshape(
        N, bracket.shape[1], n, width)
    return {
        "i_V_alpha": np.concatenate(
            [V * Jz[:, None], V * y[:, None]], axis=-1),
        "i_V_dlambda": np.concatenate(
            [interior_terms(V, X) for X in
             (Hz, Hz.transpose(flip), Dy, Dy.transpose(flip))], axis=-1),
        "lie_lambda": np.concatenate(
            [lie_terms(V, JV, Jz, Hz), lie_terms(V, JV, y, Dy)], axis=-1),
        "bracket": bracket,
        "ambient_bracket": np.concatenate(
            [kept[:, :, :n], pushed[:, :, :-1], kept[:, :, n:],
             pushed[:, :, -1:]], axis=2),
    }


class TestGraphFrames:
    @pytest.mark.parametrize("name", GRAPHS)
    def test_frame_residuals(self, name, rng):
        """claim's identities from the graph's one second-order batch
        against the symbolic frame, forms and pushforwards."""
        Y = GRAPHS[name]
        pts = rng.uniform(-0.9, 0.9, (40, Y.source_chart.dim))
        got = co.frame_residuals(Y, pts)
        want = frame_identities(Y, pts)
        # the same partials, up to the sign of 0
        np.testing.assert_array_equal(np.abs(got["frame"]),
                                      np.abs(want["frame"]))
        np.testing.assert_array_equal(got["dlambda"], Y.lambda_jet(pts)[1])
        for key, terms in frame_terms(Y, pts).items():
            assert_within(first(got[key]), first(want[key]), terms)

    def test_nonzero_entries(self, rng):
        """On the curved n = 3 graph every kind of contraction has entries
        far from zero, so the comparison above is not between zeros.  (At
        n = 2, V_1 spans the kernel of d lambda, so i_V d lambda is 0 on
        every graph.)"""
        Y = GRAPHS["curved-n3"]
        pts = rng.uniform(-0.9, 0.9, (40, Y.source_chart.dim))
        got = co.frame_residuals(Y, pts)
        for key in ("i_V_alpha", "i_V_dlambda", "lie_lambda", "bracket",
                    "ambient_bracket"):
            assert np.max(np.abs(got[key])) > 0.1, key


def scenario_graphs():
    """Every graph of the bundled demos and of the pointwise-identities
    scenarios at seeds 1-3, with its scenario and name as id."""
    workloads = benchmark_workloads()
    texts = [(name[:-4], text) for name, text in bundled_demos()]
    texts += [(f"pointwise-{seed}-{i}", text) for seed in (1, 2, 3)
              for i, text in enumerate(
                  workloads.generate("pointwise-identities", seed))]
    found = []
    for name, text in texts:
        sc = parse_scenario(text)
        env = runner._Env(sc, np.random.default_rng(0),
                          runner._resolve(sc, {}))
        found += [pytest.param(env.get("graph", b.name),
                               id=f"{name}:{b.name}")
                  for b in sc.blocks if b.kind == "graph"]
    return found


def random_graphs():
    """Graphs with random O(1) components, each reading every source
    coordinate, at n = 1, 2, 3, every k from n + 1 to 2n and every choice of
    free y's."""
    rng = np.random.default_rng(20261020)
    found = []
    for n in (1, 2, 3):
        for k in range(n + 1, 2 * n + 1):
            for free in itertools.combinations(range(1, n + 1), k - n):
                src = co.graph_submanifold(n, k, free_y=free).source_chart
                every = " + ".join(src.var_names)

                def component():
                    return add(random_field(src, rng).expr, parse_expr(
                        f"{rng.uniform(0.5, 1.5)!r} * sin({every})"))

                comps = {f"y{a}": component()
                         for a in range(1, n + 1) if a not in free}
                comps["z"] = component()
                found.append(pytest.param(
                    co.graph_submanifold(n, k, comps, free),
                    id=f"n{n}-k{k}-free{''.join(map(str, free))}"))
    return found


def assert_graph_jet(Y, pts):
    """lambda_jet against forms.jet, each entry within REL times its
    largest term: dz/ds_i and y_i for a coefficient; for W_ij, the partials
    d_j a_i and d_i a_j of lambda's coefficients a, the second partials
    z_ij and z_ji, and Dy_ij and Dy_ji of the y part's Jacobian."""
    n, k = Y.n, Y.k
    src = Y.source_chart
    got_a, got_W = Y.lambda_jet(pts)
    want_a, want_W = fm.jet(Y.lambda_form, pts)
    emb, J_emb = (first(a) for a in partials(src, Y.embedding, pts))
    y = np.zeros((len(pts), k))
    y[:, :n] = emb[:, n:2 * n]
    assert_within(got_a.T, want_a, np.stack([J_emb[:, 2 * n], y], axis=-1))
    _, Ja = one_form(Y.lambda_form, pts)
    Hz = first(partials(src, (Y.components["z"].expr,), pts, 2)[2][0])
    Dy = np.zeros((len(pts), k, k))
    Dy[:, :n] = J_emb[:, n:2 * n]
    terms = np.stack([Ja, Ja.transpose(0, 2, 1), Hz, Hz.transpose(0, 2, 1),
                      Dy, Dy.transpose(0, 2, 1)], axis=-1)
    assert_within(got_W.transpose(2, 0, 1), want_W, terms)


class TestGraphJet:
    @pytest.mark.parametrize("Y", scenario_graphs())
    def test_scenario_graphs(self, Y, rng):
        assert_graph_jet(Y, rng.uniform(-0.9, 0.9, (200, Y.source_chart.dim)))

    @pytest.mark.parametrize("Y", random_graphs())
    def test_random_graphs(self, Y, rng):
        pts = rng.uniform(-0.9, 0.9, (40, Y.source_chart.dim))
        assert_graph_jet(Y, pts)
        # every kind of entry is far from zero, so the comparison is not
        # between zeros
        a, W = Y.lambda_jet(pts)
        assert np.min(np.max(np.abs(a), axis=1)) > 0.01
        assert np.max(np.abs(W)) > 0.1

    def test_empty(self):
        Y = graph(2, 4)
        a, W = Y.lambda_jet(np.empty((0, 4)))
        assert a.shape == (4, 0) and W.shape == (4, 4, 0)


def standard_graphs():
    """The k = n + 1 graphs with free y_n among scenario_graphs, and random
    ones at n = 1-5 whose components read every source coordinate."""
    found = [p for p in scenario_graphs()
             if p.values[0].k == p.values[0].n + 1
             and p.values[0].free_y == (p.values[0].n,)]
    rng = np.random.default_rng(20261021)
    for n in range(1, 6):
        src = co.graph_submanifold(n, n + 1).source_chart
        every = " + ".join(src.var_names)
        comps = {name: add(random_field(src, rng).expr, parse_expr(
            f"{rng.uniform(0.5, 1.5)!r} * sin({every})"))
            for name in [f"y{a}" for a in range(1, n)] + ["z"]}
        found.append(pytest.param(co.graph_submanifold(n, n + 1, comps),
                                  id=f"random-n{n}"))
    return found


def residual_terms(Y, pts):
    """Per point, the terms of each eq_a and lambda_ab as the symbolic
    equations write them, (N, 4), from the components' first partials."""
    n = Y.n
    vals, J = (first(a) for a in partials(Y.source_chart, tuple(
        Y.components[f"y{a}" if a < n else "z"].expr
        for a in range(1, n + 1)), pts))
    zx, zyn, yn = J[:, n - 1, :n], J[:, n - 1, n], pts[:, n]
    yx, yyn = J[:, :n - 1, :n], J[:, :n - 1, n]
    eq_a = {a: np.stack([zx[:, a - 1], vals[:, a - 1],
                         (zx[:, n - 1] - yn) * yyn[:, a - 1],
                         zyn * yx[:, a - 1, n - 1]], axis=-1)
            for a in range(1, n)}
    lambda_ab = {(a, b): np.stack([
        yyn[:, a - 1] * yx[:, b - 1, n - 1],
        yyn[:, b - 1] * yx[:, a - 1, n - 1],
        yx[:, a - 1, b - 1], yx[:, b - 1, a - 1]], axis=-1)
        for a, b in itertools.combinations(range(1, n), 2)}
    return {"eq_a": eq_a, "lambda_ab": lambda_ab}


class TestResidualJet:
    """residual_values, the components of lambda ^ d lambda on the graph's
    jet, against the symbolic equations of oracles.residual_fields, family
    by family and index by index: the families whose terms are the same
    products of the same partials are bit-equal; eq_a and lambda_ab,
    summed in another order, agree within REL times their largest term."""

    @pytest.mark.parametrize("Y", standard_graphs())
    def test_every_equation(self, Y, rng):
        pts = rng.uniform(-0.9, 0.9, (200, Y.source_chart.dim))
        got = co.residual_values(Y, pts)
        fams = residual_fields(Y)
        labels = [(key, idx) for key, fam in fams.items() for idx in fam]
        want = compile_exprs(Y.source_chart, tuple(
            fams[key][idx] for key, idx in labels)).batch(pts)
        terms = residual_terms(Y, pts)
        assert {key: set(got[key]) for key in fams} \
            == {key: set(fam) for key, fam in fams.items()}
        for (key, idx), col in zip(labels, want.T):
            if key in terms:
                assert_within(got[key][idx], col, terms[key][idx])
            else:
                np.testing.assert_array_equal(got[key][idx], col)
        binding = [got[key][idx] for key, idx in labels
                   if key in ("eq_abn", "eq_abyn", "eq_a")]
        assert np.array_equal(got["max_residual"], np.max(np.abs(np.reshape(
            binding, (len(binding), len(pts)))), axis=0, initial=0.0))

    def test_every_kind_of_term_is_nonzero(self, rng):
        """On the random n = 5 graph every equation is far from zero, so
        the comparison above is not between zeros."""
        (Y,) = [p.values[0] for p in standard_graphs()
                if p.id == "random-n5"]
        got = co.residual_values(Y, rng.uniform(-0.9, 0.9, (50, 6)))
        for key in ("eq_abc", "eq_abn", "eq_abyn", "eq_a", "lambda_ab"):
            assert min(np.max(np.abs(v)) for v in got[key].values()) > 0.01


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
        assert_within(bracket(V, JV), want, bracket_terms(V, JV))

    @pytest.mark.parametrize("name", BUNDLES)
    def test_lie_along_lifts(self, name, rng):
        """L_lift of the area form lifted to the total chart, and of a
        random 1-form on it."""
        b = BUNDLES[name]()
        total = b.total_chart
        area = fm.one_form(total, {"u": parse_field(total, "-v"),
                                   "v": parse_field(total, "u")})
        pts = rng.uniform(-0.4, 0.4, (30, total.dim))
        V, JV = frame(total, b.lifts(), pts)
        for w in (area, random_dense_form(total, 1, rng)):
            coeffs, Jw = one_form(w, pts)
            want = np.stack([lie_derivative(F, w).coeff_array(pts)
                             for F in b.lifts()], axis=1)
            assert_within(lie(V, JV, coeffs, Jw), want,
                          lie_terms(V, JV, coeffs, Jw))
