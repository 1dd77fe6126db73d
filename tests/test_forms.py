"""Differential forms: evaluation convention, wedge against the shuffle-sum
oracle, exterior derivative identities, interior products, Lie derivatives
against a flow-pullback oracle, and pullbacks."""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from legfol import forms as fm
from legfol.fields import (
    Chart,
    SmoothMapExpr,
    constant,
    coordinate,
    parse_field,
    vector_field,
)

XYZ = Chart(("x", "y", "z"))
ABCD = Chart(("a", "b", "c", "d"))


def random_form(chart, degree, rng, terms=3):
    """A form with random polynomial coefficients."""
    out = fm.zero_form(chart, degree)
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


def eval_oracle(omega, point, vectors):
    """Evaluate by the alternating sum over permutations of coefficient
    products, one coordinate slot at a time."""
    k = omega.degree
    total = 0.0
    for idx, coeff in omega.coeffs.items():
        c = coeff.eval(point)
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


class TestEvaluation:
    def test_dx_wedge_dy_on_frame(self):
        w = fm.wedge(fm.one_form(XYZ, {"x": 1.0}),
                     fm.one_form(XYZ, {"y": 1.0}))
        e = np.eye(3)
        assert w.evaluate([0, 0, 0], [e[0], e[1]]) == 1.0
        assert w.evaluate([0, 0, 0], [e[1], e[0]]) == -1.0

    def test_matches_permutation_oracle(self, rng):
        for degree in (1, 2, 3):
            for _ in range(5):
                w = random_form(ABCD, degree, rng)
                p = rng.uniform(-1, 1, 4)
                vecs = rng.uniform(-1, 1, (degree, 4))
                assert w.evaluate(p, vecs) == pytest.approx(
                    eval_oracle(w, p, vecs), rel=1e-10, abs=1e-10)

    def test_antisymmetry_in_arguments(self, rng):
        w = random_form(ABCD, 2, rng)
        p = rng.uniform(-1, 1, 4)
        u, v = rng.uniform(-1, 1, (2, 4))
        assert w.evaluate(p, [u, v]) == pytest.approx(
            -w.evaluate(p, [v, u]), rel=1e-10, abs=1e-12)


class TestWedge:
    def test_shuffle_oracle(self, rng):
        for (dp, dq) in [(1, 1), (1, 2), (2, 2)]:
            w = random_form(ABCD, dp, rng)
            t = random_form(ABCD, dq, rng)
            wt = fm.wedge(w, t)
            p = rng.uniform(-1, 1, 4)
            vecs = rng.uniform(-1, 1, (dp + dq, 4))
            total = 0.0
            for I in itertools.combinations(range(dp + dq), dp):
                J = tuple(i for i in range(dp + dq) if i not in I)
                sign = _perm_sign(I + J)
                total += sign * w.evaluate(p, [vecs[i] for i in I]) \
                    * t.evaluate(p, [vecs[j] for j in J])
            assert wt.evaluate(p, vecs) == pytest.approx(total, rel=1e-9,
                                                         abs=1e-9)

    def test_graded_commutativity(self, rng):
        w = random_form(ABCD, 1, rng)
        t = random_form(ABCD, 2, rng)
        lhs = fm.wedge(w, t)
        rhs = fm.wedge(t, w)
        p = rng.uniform(-1, 1, 4)
        vecs = rng.uniform(-1, 1, (3, 4))
        assert lhs.evaluate(p, vecs) == pytest.approx(
            (-1) ** (1 * 2) * rhs.evaluate(p, vecs), rel=1e-10, abs=1e-10)

    def test_overflow_degree(self):
        w = fm.one_form(XYZ, {"x": 1.0})
        top = fm.wedge(fm.wedge(w, fm.one_form(XYZ, {"y": 1.0})),
                       fm.one_form(XYZ, {"z": 1.0}))
        with pytest.raises(ValueError):
            fm.wedge(top, w)


class TestExteriorDerivative:
    def test_d_squared_zero(self, rng):
        for degree in (0, 1, 2):
            w = random_form(ABCD, degree, rng)
            dd = fm.exterior_d(fm.exterior_d(w))
            p = rng.uniform(-1, 1, 4)
            assert np.max(np.abs(dd.coeff_array([p])), initial=0.0) \
                == pytest.approx(0.0, abs=1e-12)

    def test_leibniz_rule(self, rng):
        w = random_form(ABCD, 1, rng)
        t = random_form(ABCD, 1, rng)
        lhs = fm.exterior_d(fm.wedge(w, t))
        rhs = fm.wedge(fm.exterior_d(w), t) - fm.wedge(w, fm.exterior_d(t))
        p = rng.uniform(-1, 1, 4)
        vecs = rng.uniform(-1, 1, (3, 4))
        assert lhs.evaluate(p, vecs) == pytest.approx(
            rhs.evaluate(p, vecs), rel=1e-9, abs=1e-9)

    def test_d_of_function_is_gradient(self):
        f = parse_field(XYZ, "x^2*y + sin(z)")
        df = fm.exterior_d(fm.function_form(f))
        p = [0.5, -1.0, 0.3]
        grad = [f.diff(v).eval(p) for v in XYZ.var_names]
        assert np.allclose([df.coeff((i,)).eval(p) for i in range(3)], grad)


class TestInterior:
    def test_contraction_on_two_form(self, rng):
        w = random_form(ABCD, 2, rng)
        V = vector_field(ABCD, list(rng.uniform(-1, 1, 4)))
        iw = fm.interior(V, w)
        p = rng.uniform(-1, 1, 4)
        u = rng.uniform(-1, 1, 4)
        assert iw.evaluate(p, [u]) == pytest.approx(
            w.evaluate(p, [V.eval(p), u]), rel=1e-10, abs=1e-10)

    def test_antiderivation(self, rng):
        w = random_form(ABCD, 1, rng)
        t = random_form(ABCD, 1, rng)
        V = vector_field(ABCD, [parse_field(ABCD, s)
                                for s in ("b", "a*a", "1", "c")])
        lhs = fm.interior(V, fm.wedge(w, t))
        rhs = fm.wedge(fm.interior(V, w), t) - fm.wedge(w, fm.interior(V, t))
        p = rng.uniform(-1, 1, 4)
        u = rng.uniform(-1, 1, 4)
        assert lhs.evaluate(p, [u]) == pytest.approx(
            rhs.evaluate(p, [u]), rel=1e-9, abs=1e-9)


def flow_pullback_value(V, omega, point, vectors, t):
    """(Phi_t^* omega) at `point` on `vectors`, with the flow integrated
    numerically and its derivative taken by finite differences."""
    dim = omega.chart.dim

    def rhs(_, y):
        return V.eval(y)

    def flow(q):
        sol = solve_ivp(rhs, (0, t), np.asarray(q, dtype=float),
                        rtol=1e-11, atol=1e-12, dense_output=False)
        return sol.y[:, -1]

    h = 1e-5
    base = np.asarray(point, dtype=float)
    J = np.zeros((dim, dim))
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        J[:, j] = (flow(base + e) - flow(base - e)) / (2 * h)
    return omega.evaluate(flow(base), [J @ v for v in vectors])


class TestLieDerivative:
    def test_cartan_formula(self, rng):
        w = random_form(ABCD, 2, rng)
        V = vector_field(ABCD, [parse_field(ABCD, s)
                                for s in ("b", "-a", "d*d", "c*a")])
        lhs = fm.lie_derivative(V, w)
        rhs = fm.interior(V, fm.exterior_d(w)) \
            + fm.exterior_d(fm.interior(V, w))
        p = rng.uniform(-1, 1, 4)
        vecs = rng.uniform(-1, 1, (2, 4))
        assert lhs.evaluate(p, vecs) == pytest.approx(
            rhs.evaluate(p, vecs), rel=1e-9, abs=1e-9)

    def test_flow_pullback_oracle(self, rng):
        w = random_form(XYZ, 1, rng)
        V = vector_field(XYZ, [parse_field(XYZ, s)
                               for s in ("y", "-x", "0.5")])
        ld = fm.lie_derivative(V, w)
        p = rng.uniform(-0.5, 0.5, 3)
        vecs = rng.uniform(-1, 1, (1, 3))
        t = 1e-4
        plus = flow_pullback_value(V, w, p, vecs, t)
        minus = flow_pullback_value(V, w, p, vecs, -t)
        numeric = (plus - minus) / (2 * t)
        assert ld.evaluate(p, vecs) == pytest.approx(numeric, rel=1e-5,
                                                     abs=1e-6)

    def test_function_case(self):
        f = fm.function_form(parse_field(XYZ, "x*y"))
        V = vector_field(XYZ, [1.0, 2.0, 0.0])
        ld = fm.lie_derivative(V, f)
        p = [0.3, 0.7, 0.0]
        assert ld.coeff(()).eval(p) == pytest.approx(0.7 + 2 * 0.3)


class TestPullback:
    def polar(self):
        rt = Chart(("r", "t"))
        return SmoothMapExpr(rt, XYZ, (
            parse_field(rt, "r*cos(t)"), parse_field(rt, "r*sin(t)"),
            constant(rt, 0.0)))

    def test_pullback_commutes_with_d(self, rng):
        phi = self.polar()
        w = random_form(XYZ, 1, rng)
        lhs = fm.pullback(phi, fm.exterior_d(w))
        rhs = fm.exterior_d(fm.pullback(phi, w))
        p = [0.8, 1.2]
        vecs = rng.uniform(-1, 1, (2, 2))
        assert lhs.evaluate(p, vecs) == pytest.approx(
            rhs.evaluate(p, vecs), rel=1e-9, abs=1e-9)

    def test_area_form_in_polar(self):
        phi = self.polar()
        area = fm.wedge(fm.one_form(XYZ, {"x": 1.0}),
                        fm.one_form(XYZ, {"y": 1.0}))
        pulled = fm.pullback(phi, area)
        # dx ^ dy pulls back to r dr ^ dt
        p = [0.7, 0.4]
        e = np.eye(2)
        assert pulled.evaluate(p, [e[0], e[1]]) == pytest.approx(0.7)

    def test_functoriality(self, rng):
        rt = Chart(("r", "t"))
        s_chart = Chart(("s",))
        psi = SmoothMapExpr(s_chart, rt,
                            (parse_field(s_chart, "1 + s^2"),
                             parse_field(s_chart, "2*s")))
        phi = self.polar()
        w = random_form(XYZ, 1, rng)
        lhs = fm.pullback(psi, fm.pullback(phi, w))
        rhs = fm.pullback(phi.compose(psi), w)
        p = [0.3]
        v = [[1.0]]
        assert lhs.evaluate(p, v) == pytest.approx(rhs.evaluate(p, v),
                                                   rel=1e-9, abs=1e-9)


class TestContractionMatrix:
    """form_matrices: row i of M is i_{e_i} w, so M[i, j] = w(e_i, e_j)."""

    @pytest.mark.parametrize("degree", [0, 1, 3, 4])
    def test_other_degrees_raise(self, degree, rng):
        w = random_form(ABCD, degree, rng)
        with pytest.raises(ValueError, match="2-form"):
            fm.form_matrices(w, [[0.0] * 4])

    def test_kernel_vector_annihilates(self, rng):
        w = random_form(ABCD, 2, rng)
        p = rng.uniform(-1, 1, 4)
        M = fm.form_matrices(w, [p])[0]
        from scipy.linalg import null_space
        for v in null_space(M, rcond=1e-12).T:
            u = rng.uniform(-1, 1, 4)
            assert w.evaluate(p, [v, u]) == pytest.approx(0.0, abs=1e-9)


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
                    ch, {f"x{i}": -coordinate(ch, f"y{i}")})
            top = fm.wedge(alpha, fm.wedge_power(fm.exterior_d(alpha), n))
            val = top.coeff(tuple(range(ch.dim))).eval(np.zeros(ch.dim))
            assert abs(val) == pytest.approx(math.factorial(n))
