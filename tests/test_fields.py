"""Expression fields: parsing, differentiation against finite differences,
vector-field brackets and pushforwards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfol import forms as fm
from legfol.fields import (
    MAX_NESTING,
    Chart,
    ChartMismatch,
    ExprField,
    ParseError,
    SmoothMapExpr,
    UnknownVariable,
    constant,
    coordinate,
    lie_bracket,
    parse_field,
    pushforward_field,
    vector_field,
)

from oracles import fd_partial, pushforward

XY = Chart(("x", "y"))
XYZ = Chart(("x", "y", "z"))


def value_of_sin(k, x):
    """sin applied k times."""
    for _ in range(k):
        x = math.sin(x)
    return x


class TestParsing:
    def test_arithmetic_matches_python(self):
        f = parse_field(XY, "2*x + y^3 - x/2")
        assert f.eval([1.5, -2.0]) == pytest.approx(2 * 1.5 + (-2.0) ** 3 - 0.75)

    def test_functions_and_precedence(self):
        f = parse_field(XY, "sin(x)*cos(y) + exp(x*y)^2")
        x, y = 0.3, -0.7
        expected = math.sin(x) * math.cos(y) + math.exp(x * y) ** 2
        assert f.eval([x, y]) == pytest.approx(expected, rel=1e-12)

    def test_unary_minus(self):
        f = parse_field(XY, "-x + -(y - 1)")
        assert f.eval([2.0, 3.0]) == pytest.approx(-4.0)

    def test_scientific_notation(self):
        assert parse_field(XY, "2.5e-3 * x").eval([4.0, 0]) == pytest.approx(0.01)

    def test_long_run_of_signs(self):
        f = parse_field(XY, "-" * 3001 + "+ - x" + " + y")
        assert f.eval([2.0, 5.0]) == 7.0

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_field(XY, "x + * y")
        assert exc.value.pos == 4

    @pytest.mark.parametrize("nest, value", [
        (lambda k: "(" * k + "x" + ")" * k, lambda k, x: x),
        (lambda k: "-(" * k + "x" + ")" * k, lambda k, x: (-1) ** k * x),
        (lambda k: "sin(" * k + "x" + ")" * k, value_of_sin),
    ], ids=["parentheses", "negations", "calls"])
    def test_nesting_limit(self, nest, value):
        # up to the limit the parser recurses; one level more is an input
        # error, and so is a depth that would exhaust the interpreter's stack
        got = parse_field(XY, nest(MAX_NESTING)).eval([0.5, 0.0])
        assert got == pytest.approx(value(MAX_NESTING, 0.5), rel=1e-12)
        for depth in (MAX_NESTING + 1, 300, 5000):
            with pytest.raises(ParseError, match="nested deeper than 100"):
                parse_field(XY, nest(depth))

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            parse_field(XY, "x + w")

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_polynomial_parse_eval(self, a, b, p):
        f = parse_field(XY, f"{a}*x^{p} + {b}*y")
        x, y = 0.7, -1.3
        assert f.eval([x, y]) == pytest.approx(a * x ** p + b * y, rel=1e-12,
                                               abs=1e-12)


class TestDifferentiation:
    FIELDS = [
        "x^3 * y - 2*x + 1",
        "sin(x*y) + cos(x)^2",
        "exp(x - y^2) / (2 + cos(y))",
        "x*y*sin(y) - exp(0.3*x)",
    ]

    @pytest.mark.parametrize("text", FIELDS)
    def test_symbolic_matches_fd(self, text, rng):
        f = parse_field(XY, text)
        for p in rng.uniform(-1.5, 1.5, (25, 2)):
            for v in ("x", "y"):
                sym = f.diff(v).eval(p)
                num = fd_partial(f, p, v)
                assert sym == pytest.approx(num, rel=1e-6, abs=1e-6)

    def test_second_derivatives_commute(self):
        f = parse_field(XY, "sin(x*y) * exp(x)")
        fxy = f.diff("x").diff("y")
        fyx = f.diff("y").diff("x")
        for p in [[0.2, 0.4], [-1.0, 0.9]]:
            assert fxy.eval(p) == pytest.approx(fyx.eval(p), rel=1e-12)

    def test_constant_has_zero_derivative(self):
        assert constant(XY, 3.0).diff("x").eval([1, 2]) == 0.0


class TestArithmetic:
    def test_dunders(self):
        x = coordinate(XY, "x")
        y = coordinate(XY, "y")
        g = (2 * x - y / 2) ** 2 + (-x)
        assert g.eval([1.0, 2.0]) == pytest.approx((2 - 1.0) ** 2 - 1.0)

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatch):
            coordinate(XY, "x") + coordinate(XYZ, "x")


class TestVectorFields:
    def test_bracket_hand_example(self):
        # [x d/dy, y d/dx] = x d/dx - y d/dy
        V = vector_field(XY, [0.0, coordinate(XY, "x")])
        W = vector_field(XY, [coordinate(XY, "y"), 0.0])
        br = lie_bracket(V, W)
        assert np.allclose(br.eval([2.0, 3.0]), [2.0, -3.0])

    def test_bracket_antisymmetry_and_jacobi(self, rng):
        fields = [vector_field(XY, [parse_field(XY, a), parse_field(XY, b)])
                  for a, b in [("x*y", "sin(x)"), ("y^2", "x"),
                               ("cos(y)", "x*x")]]
        U, V, W = fields
        p = [0.4, -0.8]
        assert np.allclose(lie_bracket(U, V).eval(p),
                           -lie_bracket(V, U).eval(p))
        jac = (lie_bracket(U, lie_bracket(V, W)).eval(p)
               + lie_bracket(V, lie_bracket(W, U)).eval(p)
               + lie_bracket(W, lie_bracket(U, V)).eval(p))
        assert np.allclose(jac, 0.0, atol=1e-12)

    def test_apply_is_directional_derivative(self, rng):
        V = vector_field(XY, [parse_field(XY, "y"), parse_field(XY, "-x")])
        f = parse_field(XY, "x^2 + sin(y)")
        for p in rng.uniform(-1, 1, (10, 2)):
            expected = (f.diff("x").eval(p) * p[1]
                        - f.diff("y").eval(p) * p[0])
            assert V.apply(f).eval(p) == pytest.approx(expected, rel=1e-12,
                                                       abs=1e-12)


class TestSmoothMaps:
    def polar(self):
        rt = Chart(("r", "t"))
        return SmoothMapExpr(rt, XY, (
            parse_field(rt, "r*cos(t)"), parse_field(rt, "r*sin(t)")))

    def test_jacobian_matches_fd(self, rng):
        phi = self.polar()
        for p in rng.uniform(0.2, 1.2, (10, 2)):
            J = phi.jacobian(p)
            for col, v in enumerate(("r", "t")):
                for row in range(2):
                    comp = phi.components[row]
                    assert J[row, col] == pytest.approx(
                        fd_partial(comp, p, v), rel=1e-6, abs=1e-6)

    def test_pushforward_is_jacobian_action(self, rng):
        phi = self.polar()
        src = phi.source
        V = vector_field(src, [parse_field(src, "r"), 1.0])
        for p in rng.uniform(0.2, 1.2, (5, 2)):
            assert np.allclose(pushforward(phi, V, p),
                               phi.jacobian(p) @ V.eval(p))

    def test_pushforward_field_consistent_pointwise(self):
        phi = self.polar()
        src = phi.source
        V = vector_field(src, [1.0, parse_field(src, "r")])
        comps = pushforward_field(phi, V)
        p = [0.8, 0.5]
        assert np.allclose([c.eval(p) for c in comps],
                           pushforward(phi, V, p))

    def test_jacobian_fields_built_once(self, monkeypatch):
        """The Jacobian's fields are differentiated once per map; pullbacks
        and pushforwards through it read them again."""
        phi = self.polar()
        diffs, real = [], ExprField.diff
        monkeypatch.setattr(ExprField, "diff",
                            lambda f, v: diffs.append(v) or real(f, v))
        J = phi.jacobian_fields
        assert len(diffs) == 4
        V = vector_field(phi.source, [1.0, 1.0])
        pushforward_field(phi, V)
        fm.pullback(phi, fm.one_form(XY, {"x": 1.0, "y": 1.0}))
        phi.jacobian([0.5, 0.5])
        assert len(diffs) == 4 and phi.jacobian_fields is J

    def test_identity_compose(self):
        phi = self.polar()
        src = phi.source
        identity = SmoothMapExpr(
            src, src, tuple(coordinate(src, v) for v in src.var_names))
        same = phi.compose(identity)
        p = [0.5, 1.0]
        assert np.allclose(same.eval(p), phi.eval(p))


class TestChart:
    def test_periodic_reduce(self):
        ch = Chart(("s", "u"), (1.0, None))
        red = ch.reduce([2.25, 3.0])
        assert red[0] == pytest.approx(0.25)
        assert red[1] == 3.0

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Chart(("x", "x"))
