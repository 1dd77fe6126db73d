"""Differential forms: the determinant convention, wedge against the
shuffle-sum oracle, exterior derivative identities, interior products, Lie
derivatives against a flow-pullback oracle, and pullbacks."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from legfol import forms as fm
from legfol.fields import (
    Chart,
    ChartMismatch,
    Const,
    ExprField,
    UnknownVariable,
    compile_exprs,
    constant,
    parse_expr,
    parse_field,
    vector_field,
)

from oracles import (
    SmoothMapExpr,
    difference,
    exterior_d,
    form_matrices,
    form_values,
    function_form,
    interior,
    lie_derivative,
    pullback,
    values,
    wedge,
    wedge_power,
    zero_form,
)

XYZ = Chart(("x", "y", "z"))
ABCD = Chart(("a", "b", "c", "d"))


def random_form(chart, degree, rng, terms=3):
    """A form with random polynomial coefficients."""
    out = zero_form(chart, degree)
    names = chart.var_names
    for _ in range(terms):
        idx = tuple(sorted(rng.choice(chart.dim, degree, replace=False)))
        mono = " * ".join(
            [f"{rng.uniform(-2, 2):.3f}"]
            + [names[i] for i in rng.choice(chart.dim, rng.integers(0, 3),
                                            replace=True)])
        coeff = parse_field(chart, mono)
        base = fm.DiffForm(chart, degree, {idx: coeff})
        out = out + base
    return out


def at(omega, point, vectors):
    """omega at one point on vectors, by the determinant convention."""
    return form_values(omega, [point], vectors)[0]


def eval_oracle(omega, point, vectors):
    """Evaluate by the alternating sum over permutations of coefficient
    products, one coordinate slot at a time."""
    k = omega.degree
    total = 0.0
    for idx, coeff in omega.coeffs.items():
        c = compile_exprs(omega.chart, (coeff,)).batch([point])[0, 0]
        for perm in itertools.permutations(range(k)):
            sign = _perm_sign(perm)
            prod = 1.0
            for slot, which in enumerate(perm):
                prod *= vectors[slot][idx[which]]
            total += sign * c * prod
    return total


def _perm_sign(perm):
    sign = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


class TestCoefficients:
    def test_interned_and_checked_against_the_chart(self):
        """A coefficient given as a field, as its expression or, for a
        constant, as a number is one interned node; one that reads a name
        outside the chart, or a field on another chart, is refused."""
        e = parse_expr("x*sin(y)")
        for given in (parse_field(XYZ, "x*sin(y)"), e):
            assert fm.one_form(XYZ, {"z": given}).coeff((2,)) is e
        for given in (constant(XYZ, 2.5), Const(2.5), 2.5):
            assert fm.one_form(XYZ, {"x": given}).coeff((0,)) is Const(2.5)
        with pytest.raises(UnknownVariable, match=r"\['w'\]"):
            fm.one_form(XYZ, {"x": parse_expr("w + x")})
        with pytest.raises(ChartMismatch):
            fm.one_form(XYZ, {"x": parse_field(Chart(("x", "y")), "x")})


class TestEvaluation:
    def test_dx_wedge_dy_on_frame(self):
        w = wedge(fm.one_form(XYZ, {"x": 1.0}),
                  fm.one_form(XYZ, {"y": 1.0}))
        e = np.eye(3)
        assert at(w, [0, 0, 0], [e[0], e[1]]) == 1.0
        assert at(w, [0, 0, 0], [e[1], e[0]]) == -1.0

    def test_matches_permutation_oracle(self, rng):
        for degree in (1, 2, 3):
            for _ in range(5):
                w = random_form(ABCD, degree, rng)
                p = rng.uniform(-1, 1, 4)
                vecs = rng.uniform(-1, 1, (degree, 4))
                assert at(w, p, vecs) == pytest.approx(
                    eval_oracle(w, p, vecs), rel=1e-10, abs=1e-10)

    def test_antisymmetry_in_arguments(self, rng):
        w = random_form(ABCD, 2, rng)
        p = rng.uniform(-1, 1, 4)
        u, v = rng.uniform(-1, 1, (2, 4))
        assert at(w, p, [u, v]) == pytest.approx(
            -at(w, p, [v, u]), rel=1e-10, abs=1e-12)


class TestWedge:
    def test_shuffle_oracle(self, rng):
        for (dp, dq) in [(1, 1), (1, 2), (2, 2)]:
            w = random_form(ABCD, dp, rng)
            t = random_form(ABCD, dq, rng)
            wt = wedge(w, t)
            p = rng.uniform(-1, 1, 4)
            vecs = rng.uniform(-1, 1, (dp + dq, 4))
            total = 0.0
            for I in itertools.combinations(range(dp + dq), dp):
                J = tuple(i for i in range(dp + dq) if i not in I)
                sign = _perm_sign(I + J)
                total += sign * at(w, p, [vecs[i] for i in I]) \
                    * at(t, p, [vecs[j] for j in J])
            assert at(wt, p, vecs) == pytest.approx(total, rel=1e-9,
                                                    abs=1e-9)

    def test_graded_commutativity(self, rng):
        w = random_form(ABCD, 1, rng)
        t = random_form(ABCD, 2, rng)
        lhs = wedge(w, t)
        rhs = wedge(t, w)
        p = rng.uniform(-1, 1, 4)
        vecs = rng.uniform(-1, 1, (3, 4))
        assert at(lhs, p, vecs) == pytest.approx(
            (-1) ** (1 * 2) * at(rhs, p, vecs), rel=1e-10, abs=1e-10)

    def test_overflow_degree(self):
        w = fm.one_form(XYZ, {"x": 1.0})
        top = wedge(wedge(w, fm.one_form(XYZ, {"y": 1.0})),
                    fm.one_form(XYZ, {"z": 1.0}))
        with pytest.raises(ValueError):
            wedge(top, w)


class TestExteriorDerivative:
    def test_d_squared_zero(self, rng):
        for degree in (0, 1, 2):
            w = random_form(ABCD, degree, rng)
            dd = exterior_d(exterior_d(w))
            p = rng.uniform(-1, 1, 4)
            assert np.max(np.abs(dd.coeff_array([p])), initial=0.0) \
                == pytest.approx(0.0, abs=1e-12)

    def test_leibniz_rule(self, rng):
        w = random_form(ABCD, 1, rng)
        t = random_form(ABCD, 1, rng)
        lhs = exterior_d(wedge(w, t))
        rhs = difference(wedge(exterior_d(w), t), wedge(w, exterior_d(t)))
        p = rng.uniform(-1, 1, 4)
        vecs = rng.uniform(-1, 1, (3, 4))
        assert at(lhs, p, vecs) == pytest.approx(
            at(rhs, p, vecs), rel=1e-9, abs=1e-9)

    def test_d_of_function_is_gradient(self):
        f = parse_field(XYZ, "x^2*y + sin(z)")
        df = exterior_d(function_form(f))
        p = [0.5, -1.0, 0.3]
        grad = values([f.diff(v) for v in XYZ.var_names], [p])[0]
        assert np.allclose(df.coeff_array([p])[0], grad)


class TestInterior:
    def test_contraction_on_two_form(self, rng):
        w = random_form(ABCD, 2, rng)
        V = vector_field(ABCD, list(rng.uniform(-1, 1, 4)))
        iw = interior(V, w)
        p = rng.uniform(-1, 1, 4)
        u = rng.uniform(-1, 1, 4)
        assert at(iw, p, [u]) == pytest.approx(
            at(w, p, [values(V.components, [p])[0], u]), rel=1e-10, abs=1e-10)

    def test_antiderivation(self, rng):
        w = random_form(ABCD, 1, rng)
        t = random_form(ABCD, 1, rng)
        V = vector_field(ABCD, [parse_field(ABCD, s)
                                for s in ("b", "a*a", "1", "c")])
        lhs = interior(V, wedge(w, t))
        rhs = difference(wedge(interior(V, w), t), wedge(w, interior(V, t)))
        p = rng.uniform(-1, 1, 4)
        u = rng.uniform(-1, 1, 4)
        assert at(lhs, p, [u]) == pytest.approx(
            at(rhs, p, [u]), rel=1e-9, abs=1e-9)


def flow_pullback_value(V, omega, point, vectors, t):
    """(Phi_t^* omega) at `point` on `vectors`, with the flow integrated
    numerically and its derivative taken by finite differences: the point
    and its 2 dim offsets flow together, as one system."""
    dim = omega.chart.dim
    h = 1e-5
    steps = h * np.eye(dim)
    starts = np.asarray(point, dtype=float) + np.vstack(
        [np.zeros(dim), steps, -steps])

    def rhs(_, y):
        return values(V.components, y.reshape(-1, dim)).ravel()

    ends = solve_ivp(rhs, (0, t), starts.ravel(), rtol=1e-11, atol=1e-12
                     ).y[:, -1].reshape(-1, dim)
    J = (ends[1:dim + 1] - ends[dim + 1:]).T / (2 * h)
    return at(omega, ends[0], [J @ v for v in vectors])


class TestLieDerivative:
    def test_cartan_formula(self, rng):
        w = random_form(ABCD, 2, rng)
        V = vector_field(ABCD, [parse_field(ABCD, s)
                                for s in ("b", "-a", "d*d", "c*a")])
        lhs = lie_derivative(V, w)
        rhs = interior(V, exterior_d(w)) \
            + exterior_d(interior(V, w))
        p = rng.uniform(-1, 1, 4)
        vecs = rng.uniform(-1, 1, (2, 4))
        assert at(lhs, p, vecs) == pytest.approx(
            at(rhs, p, vecs), rel=1e-9, abs=1e-9)

    def test_flow_pullback_oracle(self, rng):
        w = random_form(XYZ, 1, rng)
        V = vector_field(XYZ, [parse_field(XYZ, s)
                               for s in ("y", "-x", "0.5")])
        ld = lie_derivative(V, w)
        p = rng.uniform(-0.5, 0.5, 3)
        vecs = rng.uniform(-1, 1, (1, 3))
        t = 1e-4
        plus = flow_pullback_value(V, w, p, vecs, t)
        minus = flow_pullback_value(V, w, p, vecs, -t)
        numeric = (plus - minus) / (2 * t)
        assert at(ld, p, vecs) == pytest.approx(numeric, rel=1e-5,
                                                abs=1e-6)

    def test_function_case(self):
        f = function_form(parse_field(XYZ, "x*y"))
        V = vector_field(XYZ, [1.0, 2.0, 0.0])
        ld = lie_derivative(V, f)
        p = [0.3, 0.7, 0.0]
        assert ld.coeff_array([p])[0, 0] == pytest.approx(0.7 + 2 * 0.3)


class TestPullback:
    def polar(self):
        rt = Chart(("r", "t"))
        return SmoothMapExpr(rt, XYZ, (
            parse_field(rt, "r*cos(t)"), parse_field(rt, "r*sin(t)"),
            constant(rt, 0.0)))

    def test_pullback_commutes_with_d(self, rng):
        phi = self.polar()
        w = random_form(XYZ, 1, rng)
        lhs = pullback(phi, exterior_d(w))
        rhs = exterior_d(pullback(phi, w))
        p = [0.8, 1.2]
        vecs = rng.uniform(-1, 1, (2, 2))
        assert at(lhs, p, vecs) == pytest.approx(
            at(rhs, p, vecs), rel=1e-9, abs=1e-9)

    def test_area_form_in_polar(self):
        phi = self.polar()
        area = wedge(fm.one_form(XYZ, {"x": 1.0}),
                     fm.one_form(XYZ, {"y": 1.0}))
        pulled = pullback(phi, area)
        # dx ^ dy pulls back to r dr ^ dt
        p = [0.7, 0.4]
        e = np.eye(2)
        assert at(pulled, p, [e[0], e[1]]) == pytest.approx(0.7)

    def test_functoriality(self, rng):
        rt = Chart(("r", "t"))
        s_chart = Chart(("s",))
        psi = SmoothMapExpr(s_chart, rt,
                            (parse_field(s_chart, "1 + s^2"),
                             parse_field(s_chart, "2*s")))
        phi = self.polar()
        w = random_form(XYZ, 1, rng)
        lhs = pullback(psi, pullback(phi, w))
        composite = SmoothMapExpr(psi.source, phi.target, tuple(
            ExprField(psi.source, psi.compose_field(c.expr))
            for c in phi.components))
        rhs = pullback(composite, w)
        p = [0.3]
        v = [[1.0]]
        assert at(lhs, p, v) == pytest.approx(at(rhs, p, v),
                                              rel=1e-9, abs=1e-9)


class TestContractionMatrix:
    """The matrix of a 2-form (oracles.form_matrices): row i of M is
    i_{e_i} w, so M[i, j] = w(e_i, e_j).  forms.jet gives it for d of a
    1-form."""

    @pytest.mark.parametrize("degree", [0, 1, 3, 4])
    def test_other_degrees_raise(self, degree, rng):
        w = random_form(ABCD, degree, rng)
        with pytest.raises(ValueError, match="2-form"):
            form_matrices(w, [[0.0] * 4])

    @pytest.mark.parametrize("degree", [0, 2, 3, 4])
    def test_jet_needs_a_one_form(self, degree, rng):
        w = random_form(ABCD, degree, rng)
        with pytest.raises(ValueError, match="1-form"):
            fm.jet(w, [[0.0] * 4])

    def test_kernel_vector_annihilates(self, rng):
        w = random_form(ABCD, 2, rng)
        p = rng.uniform(-1, 1, 4)
        M = form_matrices(w, [p])[0]
        from scipy.linalg import null_space
        for v in null_space(M, rcond=1e-12).T:
            u = rng.uniform(-1, 1, 4)
            assert at(w, p, [v, u]) == pytest.approx(0.0, abs=1e-9)


class TestContactTopForm:
    def test_standard_normalization(self):
        # alpha ^ (d alpha)^n on the canonical frame equals n!
        for n in (1, 2, 3):
            names = tuple(f"x{i}" for i in range(1, n + 1)) \
                + tuple(f"y{i}" for i in range(1, n + 1)) + ("z",)
            ch = Chart(names)
            alpha = fm.one_form(ch, {"z": 1.0})
            for i in range(1, n + 1):
                alpha = alpha + fm.one_form(
                    ch, {f"x{i}": parse_field(ch, f"-y{i}")})
            top = wedge(alpha, wedge_power(exterior_d(alpha), n))
            val = top.coeff_array([np.zeros(ch.dim)])[0, 0]
            assert abs(val) == pytest.approx(math.factorial(n))
