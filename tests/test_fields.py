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
    ExprField,
    ParseError,
    UnknownVariable,
    constant,
    parse_field,
    vector_field,
)

from oracles import (
    SmoothMapExpr,
    apply,
    fd_partial,
    lie_bracket,
    pullback,
    pushforward,
    pushforward_field,
    reduce_point,
    values,
)

XY = Chart(("x", "y"))
XYZ = Chart(("x", "y", "z"))


def at(field, point):
    """A field at one point, as a one-row batch."""
    return field.compile()([point])[0]


def value_of_sin(k, x):
    """sin applied k times."""
    for _ in range(k):
        x = math.sin(x)
    return x


class TestParsing:
    def test_arithmetic_matches_python(self):
        f = parse_field(XY, "2*x + y^3 - x/2")
        assert at(f, [1.5, -2.0]) == pytest.approx(
            2 * 1.5 + (-2.0) ** 3 - 0.75)

    def test_functions_and_precedence(self):
        f = parse_field(XY, "sin(x)*cos(y) + exp(x*y)^2")
        x, y = 0.3, -0.7
        expected = math.sin(x) * math.cos(y) + math.exp(x * y) ** 2
        assert at(f, [x, y]) == pytest.approx(expected, rel=1e-12)

    def test_unary_minus(self):
        f = parse_field(XY, "-x + -(y - 1)")
        assert at(f, [2.0, 3.0]) == pytest.approx(-4.0)

    def test_scientific_notation(self):
        f = parse_field(XY, "2.5e-3 * x")
        assert at(f, [4.0, 0]) == pytest.approx(0.01)

    @pytest.mark.parametrize("text, pos", [
        ("1e400 * x", 0), ("x + 2.5E+309", 4), ("y - " + "9" * 400, 4)],
        ids=["exponent", "signed-exponent", "400-digits"])
    def test_overflowing_literal_is_a_parse_error(self, text, pos):
        # float() makes these inf; a literal is a finite number or no value
        with pytest.raises(ParseError, match="expected a finite number, "
                           "got '") as exc:
            parse_field(XY, text)
        assert exc.value.pos == pos

    def test_underflowing_literal_is_zero(self):
        assert at(parse_field(XY, "1e-400 + x"), [0.25, 0.0]) == 0.25

    def test_long_run_of_signs(self):
        f = parse_field(XY, "-" * 3001 + "+ - x" + " + y")
        assert at(f, [2.0, 5.0]) == 7.0

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
        got = at(parse_field(XY, nest(MAX_NESTING)), [0.5, 0.0])
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
        assert at(f, [x, y]) == pytest.approx(a * x ** p + b * y, rel=1e-12,
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
        pts = rng.uniform(-1.5, 1.5, (25, 2))
        for v in ("x", "y"):
            sym = f.diff(v).compile()(pts)
            assert sym == pytest.approx(fd_partial(f, pts, v), rel=1e-6,
                                        abs=1e-6)

    def test_second_derivatives_commute(self):
        f = parse_field(XY, "sin(x*y) * exp(x)")
        fxy = f.diff("x").diff("y")
        fyx = f.diff("y").diff("x")
        pts = [[0.2, 0.4], [-1.0, 0.9]]
        assert fxy.compile()(pts) == pytest.approx(fyx.compile()(pts),
                                                   rel=1e-12)

    def test_constant_has_zero_derivative(self):
        assert at(constant(XY, 3.0).diff("x"), [1, 2]) == 0.0


class TestVectorFields:
    def test_bracket_hand_example(self):
        # [x d/dy, y d/dx] = x d/dx - y d/dy
        V = vector_field(XY, [0.0, parse_field(XY, "x")])
        W = vector_field(XY, [parse_field(XY, "y"), 0.0])
        br = lie_bracket(V, W)
        assert np.allclose(values(br.components, [[2.0, 3.0]]), [2.0, -3.0])

    def test_bracket_antisymmetry_and_jacobi(self, rng):
        fields = [vector_field(XY, [parse_field(XY, a), parse_field(XY, b)])
                  for a, b in [("x*y", "sin(x)"), ("y^2", "x"),
                               ("cos(y)", "x*x")]]
        U, V, W = fields
        p = [[0.4, -0.8]]

        def br(A, B):
            return values(lie_bracket(A, B).components, p)

        assert np.allclose(br(U, V), -br(V, U))
        jac = (values(lie_bracket(U, lie_bracket(V, W)).components, p)
               + values(lie_bracket(V, lie_bracket(W, U)).components, p)
               + values(lie_bracket(W, lie_bracket(U, V)).components, p))
        assert np.allclose(jac, 0.0, atol=1e-12)

    def test_apply_is_directional_derivative(self, rng):
        V = vector_field(XY, [parse_field(XY, "y"), parse_field(XY, "-x")])
        f = parse_field(XY, "x^2 + sin(y)")
        pts = rng.uniform(-1, 1, (10, 2))
        expected = (f.diff("x").compile()(pts) * pts[:, 1]
                    - f.diff("y").compile()(pts) * pts[:, 0])
        assert values([ExprField(XY, apply(V, f.expr))], pts)[:, 0] \
            == pytest.approx(
            expected, rel=1e-12, abs=1e-12)


class TestSmoothMaps:
    def polar(self):
        rt = Chart(("r", "t"))
        return SmoothMapExpr(rt, XY, (
            parse_field(rt, "r*cos(t)"), parse_field(rt, "r*sin(t)")))

    def test_jacobian_matches_fd(self, rng):
        phi = self.polar()
        pts = rng.uniform(0.2, 1.2, (10, 2))
        for row, comp in enumerate(phi.components):
            for col, v in enumerate(("r", "t")):
                assert phi.jacobian_fields[row][col].compile()(pts) == \
                    pytest.approx(fd_partial(comp, pts, v), rel=1e-6,
                                  abs=1e-6)

    def test_pushforward_is_jacobian_action(self, rng):
        phi = self.polar()
        src = phi.source
        V = vector_field(src, [parse_field(src, "r"), 1.0])
        pts = rng.uniform(0.2, 1.2, (5, 2))
        v = values(V.components, pts)
        fd = np.stack([sum(fd_partial(c, pts, name) * v[:, j]
                           for j, name in enumerate(src.var_names))
                       for c in phi.components], axis=1)
        assert np.allclose(pushforward(phi, V, pts), fd, atol=1e-6)

    def test_pushforward_field_consistent_pointwise(self):
        phi = self.polar()
        src = phi.source
        V = vector_field(src, [1.0, parse_field(src, "r")])
        comps = pushforward_field(phi, V)
        p = [[0.8, 0.5]]
        assert np.allclose(values(comps, p), pushforward(phi, V, p))

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
        pullback(phi, fm.one_form(XY, {"x": 1.0, "y": 1.0}))
        assert len(diffs) == 4 and phi.jacobian_fields is J


class TestChart:
    def test_periodic_reduce(self):
        ch = Chart(("s", "u"), (1.0, None))
        red = reduce_point(ch, [2.25, 3.0])
        assert red[0] == pytest.approx(0.25)
        assert red[1] == 3.0
        got = values([parse_field(ch, "s"), parse_field(ch, "u")],
                     [[2.25, 3.0]])
        assert got[0].tolist() == red.tolist()

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Chart(("x", "x"))
