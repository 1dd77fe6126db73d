"""The compiled evaluation paths (numpy batch and float scalar) against a
recursive tree walk, which is the reference, and against sympy as a second
oracle."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfol import forms as fm
from legfol.fields import (
    Add,
    Chart,
    Const,
    Cos,
    EvaluationError,
    Exp,
    ExprField,
    Mul,
    Pow,
    Sin,
    Sub,
    Var,
    _checked_cos,
    _checked_div,
    _checked_exp,
    _checked_pow,
    _checked_sin,
    compile_exprs,
    parse_expr,
    parse_field,
)

XY = Chart(("x", "y"))

# Bound on the relative error rounding may cause, measured against the
# propagated magnitude below rather than the value, so that cancellation
# (x - sin(x) near 0) is not mistaken for a wrong result.
REL = 1e-12


def magnitude(e, env) -> tuple[float, float]:
    """The checked recursive tree walk: (value, scale).

    The value is computed node by node with the checked operations the
    compiled scalar binding calls, so it raises EvaluationError where they
    do.  The scale bounds |value| plus how far an error of one unit in the
    last place of every intermediate can move the value.
    """
    if isinstance(e, Const):
        return e.value, abs(e.value)
    if isinstance(e, Var):
        return env[e.name], abs(env[e.name])
    if isinstance(e, Pow):
        b, mb = magnitude(e.base, env)
        v = _checked_pow(b, e.exponent)
        slope = e.exponent * v / b if b else 0.0
        return v, abs(v) + abs(slope) * mb
    if isinstance(e, (Sin, Cos, Exp)):
        a, ma = magnitude(e.arg, env)
        f, df = {Sin: (_checked_sin, math.cos),
                 Cos: (_checked_cos, lambda t: -math.sin(t)),
                 Exp: (_checked_exp, math.exp)}[type(e)]
        v = f(a)
        return v, abs(v) + abs(df(a)) * ma
    a, ma = magnitude(e.left, env)
    b, mb = magnitude(e.right, env)
    if isinstance(e, Add):
        return a + b, ma + mb
    if isinstance(e, Sub):
        return a - b, ma + mb
    if isinstance(e, Mul):
        return a * b, ma * abs(b) + abs(a) * mb
    v = _checked_div(a, b)
    return v, ma / abs(b) + abs(v) * mb / abs(b)


def subtrees(e):
    """Every node of an expression tree."""
    yield e
    for child in (getattr(e, name, None)
                  for name in ("base", "arg", "left", "right")):
        if child is not None:
            yield from subtrees(child)


def walk(expr, point, chart=XY):
    """The tree walk at one point after periodic reduction, or None where it
    raises EvaluationError or ends non-finite."""
    env = dict(zip(chart.var_names, chart.reduce(point).tolist()))
    try:
        value, _ = magnitude(expr, env)
    except EvaluationError:
        return None
    return value if math.isfinite(value) else None


def assert_close(got, expr, point):
    want, scale = magnitude(expr, dict(zip(("x", "y"), point)))
    assert abs(got - want) <= REL * max(abs(want), scale), (got, want)


# Random expressions written in the scenario grammar, so the trees are the
# ones the parser builds (with its constant folding).
LEAVES = st.sampled_from(["x", "y", "0", "1", "2", "3", "0.5", "3e-1", "1e2",
                          "1e100"])


@st.composite
def expr_texts(draw, depth=4):
    kind = draw(st.sampled_from(["leaf", "binary", "binary", "power", "func",
                                 "neg"])) if depth else "leaf"
    if kind == "leaf":
        return draw(LEAVES)
    a = draw(expr_texts(depth - 1))
    if kind == "binary":
        op = draw(st.sampled_from("+-*/"))
        return f"({a} {op} {draw(expr_texts(depth - 1))})"
    if kind == "power":
        return f"({a})^{draw(st.integers(-3, 4))}"
    if kind == "func":
        return f"{draw(st.sampled_from(['sin', 'cos', 'exp']))}({a})"
    return f"-{a}"


# The outer contexts map an infinite value to a finite one, so a zero divisor
# or an overflow inside must be caught where it happens, not at the output.
TEXTS = st.one_of(expr_texts(),
                  expr_texts().map(lambda t: f"1 / ({t})"),
                  expr_texts().map(lambda t: f"exp(-({t})^2)"))
# Small coordinates, and large ones that overflow exp and powers.
COORD = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 750.0,
                                   -750.0, 1e80]),
                  st.floats(-4.0, 4.0, allow_nan=False))
POINTS = st.lists(st.tuples(COORD, COORD), min_size=1, max_size=5)


class TestAgainstTreeWalk:
    @given(TEXTS, POINTS)
    @settings(max_examples=300)
    def test_batch_and_scalar_match_walk(self, text, points):
        expr = parse_expr(text)
        field = ExprField(XY, expr)
        compiled = compile_exprs(XY, (expr,))
        expected = [walk(expr, p) for p in points]
        for p, want in zip(points, expected):
            if want is None:
                with pytest.raises(EvaluationError):
                    compiled.scalar(*p)
                with pytest.raises(EvaluationError):
                    field.eval(p)
            else:
                assert_close(compiled.scalar(*p)[0], expr, p)
                assert field.eval(p) == compiled.scalar(*p)[0]
        if any(w is None for w in expected):
            with pytest.raises(EvaluationError):
                compiled.batch(points)
        else:
            for p, got in zip(points, compiled.batch(points)[:, 0]):
                assert_close(got, expr, p)

    @given(TEXTS, st.tuples(COORD, COORD))
    @settings(max_examples=60)
    def test_sympy_agrees(self, text, point):
        sympy = pytest.importorskip("sympy")
        expr = parse_expr(text)
        if walk(expr, point) is None:
            return
        x, y = sympy.symbols("x y")

        def to_sympy(e):
            if isinstance(e, Const):
                return sympy.Rational(e.value)
            if isinstance(e, Var):
                return {"x": x, "y": y}[e.name]
            if isinstance(e, Pow):
                return to_sympy(e.base) ** e.exponent
            if isinstance(e, (Sin, Cos, Exp)):
                f = {Sin: sympy.sin, Cos: sympy.cos, Exp: sympy.exp}[type(e)]
                return f(to_sympy(e.arg))
            a, b = to_sympy(e.left), to_sympy(e.right)
            if isinstance(e, Add):
                return a + b
            if isinstance(e, Sub):
                return a - b
            return a * b if isinstance(e, Mul) else a / b

        exact = to_sympy(expr).evalf(
            30, subs={x: sympy.Rational(point[0]), y: sympy.Rational(point[1])})
        if not exact.is_finite:
            return  # an exact zero divisor that rounding hid from floats
        got = compile_exprs(XY, (expr,)).batch([point])[0, 0]
        _, scale = magnitude(expr, {"x": point[0], "y": point[1]})
        assert abs(got - float(exact)) <= REL * max(abs(float(exact)), scale)


class TestErrors:
    @pytest.mark.parametrize("text, point", [
        ("exp(x)", [1000.0, 0.0]),
        ("x^400", [10.0, 0.0]),
        ("1 / x^400", [10.0, 0.0]),
        ("sin(x*x*x*x)", [1e80, 0.0]),  # sin(inf)
        ("1 / cos(x*x*x*x)", [1e80, 0.0]),
    ])
    def test_overflow_raises_without_warning(self, text, point):
        field = parse_field(XY, text)
        compiled = compile_exprs(XY, (field.expr,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert walk(field.expr, point) is None
            with pytest.raises(EvaluationError):
                field.eval(point)
            with pytest.raises(EvaluationError):
                compiled.scalar(*point)
            with pytest.raises(EvaluationError):
                compiled.batch([point])

    @pytest.mark.parametrize("text", ["0^-1", "10^400", "x + (0 * 3)^-2",
                                      "exp(-(1e100)^4)"])
    def test_constant_power_left_unfolded(self, text):
        # Folding would raise ZeroDivisionError or OverflowError, so the
        # parser keeps the power and every evaluation refuses it.
        field = parse_field(XY, text)
        assert any(isinstance(e, Pow) and isinstance(e.base, Const)
                   for e in subtrees(field.expr))
        compiled = compile_exprs(XY, (field.expr,))
        assert walk(field.expr, [0.5, 0.0]) is None
        with pytest.raises(EvaluationError):
            field.eval([0.5, 0.0])
        with pytest.raises(EvaluationError):
            compiled.scalar(0.5, 0.0)
        with pytest.raises(EvaluationError, match="row 0"):
            compiled.batch([[0.5, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("base, k", [(0.0, -1), (-0.0, -3), (10.0, 400)])
    def test_constant_base_power_in_both_bindings(self, base, k):
        compiled = compile_exprs(XY, (Pow(Const(base), k),))
        with pytest.raises(EvaluationError):
            compiled.scalar(1.0, 2.0)
        with pytest.raises(EvaluationError, match="row 0"):
            compiled.batch([[1.0, 2.0]])

    def test_finite_constant_powers_still_fold(self):
        assert parse_expr("2^3") == Const(8.0)
        assert parse_expr("(0.5)^-2") == Const(4.0)
        out = compile_exprs(XY, (Pow(Const(2.0), 3), Var("x"))).batch(
            [[1.0, 0.0], [2.0, 0.0]])
        assert out.tolist() == [[8.0, 1.0], [8.0, 2.0]]

    def test_zero_divisor_numpy_would_hide(self):
        # exp(-1/0) would be exp(-inf) = 0 under numpy's rules.
        field = parse_field(XY, "exp(-1/(x-x))")
        compiled = compile_exprs(XY, (field.expr,))
        assert walk(field.expr, [0.5, 0.0]) is None
        with pytest.raises(EvaluationError):
            field.eval([0.5, 0.0])
        with pytest.raises(EvaluationError):
            compiled.scalar(0.5, 0.0)
        with pytest.raises(EvaluationError, match="row 0"):
            compiled.batch([[0.5, 0.0]])

    @pytest.mark.parametrize("point", [[1.0], [1.0, 2.0, 3.0]])
    def test_wrong_point_length(self, point):
        # Chart.reduce refuses such a point too.
        with pytest.raises(ValueError, match="chart dim is 2"):
            parse_field(XY, "x + y").eval(point)
        with pytest.raises(ValueError, match="chart dim is 2"):
            fm.one_form(XY, {"x": parse_field(XY, "y")}).evaluate(
                point, [[1.0, 0.0]])

    def test_batch_names_first_bad_row(self):
        # The division is checked before the exponential, and fails on a
        # later row than the exponential does.
        field = parse_field(XY, "1/(x - 1) + exp(y)")
        pts = [[0.0, 0.0], [0.0, 1000.0], [0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(EvaluationError, match=r"row 1\b"):
            compile_exprs(XY, (field.expr,)).batch(pts)

    def test_non_finite_output_names_row(self):
        field = parse_field(XY, "x * 1e300 * 1e300")
        with pytest.raises(EvaluationError, match=r"row 2\b"):
            field.compile()([[0.0, 0], [0.0, 0], [1.0, 0]])


class TestCompiler:
    def test_shared_subtree_computed_once(self):
        e = parse_expr("sin(x*y)")
        exprs = (parse_expr("sin(x*y) + sin(x*y)^2"), Exp(e))
        source = compile_exprs(XY, exprs).source
        assert source.count("_sin(") == 1
        assert source.count("x0 * x1") == 1

    def test_cached_per_chart_and_exprs(self):
        e = parse_expr("x + y")
        assert compile_exprs(XY, (e,)) is compile_exprs(XY, (parse_expr("x + y"),))
        assert compile_exprs(XY, (e,)) is not compile_exprs(Chart(("x", "y", "z")), (e,))

    def test_constant_outputs_broadcast(self):
        out = compile_exprs(XY, (Const(2.0), Var("y"))).batch([[1, 2], [3, 4]])
        assert out.tolist() == [[2.0, 2.0], [2.0, 4.0]]

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            compile_exprs(XY, (Var("x"),)).batch([[1.0, 2.0, 3.0]])

    def test_periodic_reduction_matches_chart(self):
        ch = Chart(("s", "t", "u"), (1.0, 2 * math.pi, None))
        exprs = (Var("s"), Var("t"), Var("u"), parse_expr("sin(s) + t*u"))
        pts = np.array([[-2.25, -7.0, -3.5], [3.75, 13.0, 9.0],
                        [-1e-17, 2 * math.pi, 0.0], [1.0, -2 * math.pi, 1.0],
                        [-0.0, 100.5, -100.5]])
        compiled = compile_exprs(ch, exprs)
        batch = compiled.batch(pts)
        for p, row in zip(pts, batch):
            reduced = ch.reduce(p)
            assert row[:3].tolist() == reduced.tolist()
            assert list(compiled.scalar(*p))[:3] == reduced.tolist()
            assert row[3] == pytest.approx(walk(exprs[3], p, ch), rel=1e-12)


class TestCoeffArray:
    def test_matches_pointwise_coefficients(self, rng):
        ch = Chart(("a", "b", "c"))
        two = fm.DiffForm(ch, 2, {
            (0, 1): parse_field(ch, "a*sin(b)"),
            (1, 2): parse_field(ch, "exp(c) / (2 + a^2)")})
        pts = rng.uniform(-1, 1, (7, 3))
        arr = two.coeff_array(pts)
        assert arr.shape == (7, 3)  # (0,1), (0,2), (1,2)
        for p, row in zip(pts, arr):
            assert row[1] == 0.0
            for col, idx in ((0, (0, 1)), (2, (1, 2))):
                want = walk(two.coeff(idx).expr, p, ch)
                assert row[col] == pytest.approx(want, rel=1e-14)
