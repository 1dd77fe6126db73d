"""The compiled batch evaluation, over N rows and over one row, against a
recursive tree walk on ``math``, which is the reference, and against sympy as
a second oracle.  A row evaluated alone fails with the reason that an N-row
batch gives for it."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legfol import bundle as bd
from legfol import coiso as co
from legfol import forms as fm
from legfol.fields import (
    Add,
    Chart,
    CompiledExprs,
    Const,
    Cos,
    Div,
    EvaluationError,
    Exp,
    Mul,
    Pow,
    Sin,
    Sub,
    Var,
    compile_exprs,
    parse_expr,
    parse_field,
)

from oracles import reduce_point

XY = Chart(("x", "y"))

# Bound on the relative error rounding may cause, measured against the
# propagated magnitude below rather than the value, so that cancellation
# (x - sin(x) near 0) is not mistaken for a wrong result.
REL = 1e-12


# The walk's checked operations, on plain floats with ``math``.  Add, Sub and
# Mul are unchecked, as in the compiled code.  math.sin and math.cos raise on
# an infinite argument, where numpy gives a NaN that reaches the output.


def checked_div(num: float, den: float) -> float:
    if den == 0.0:
        raise EvaluationError("division by zero")
    return num / den


def checked_pow(base: float, k: int) -> float:
    try:
        return base ** k
    except (ZeroDivisionError, OverflowError):  # 0^-k, or an overflow
        raise EvaluationError("power overflow") from None


def checked_exp(x: float) -> float:
    try:
        v = math.exp(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise EvaluationError("exp overflow")
    return v


def checked(f):
    def g(x: float) -> float:
        try:
            return f(x)
        except ValueError:  # infinite argument
            raise EvaluationError(f"{f.__name__}({x!r})") from None
    return g


def magnitude(e, env) -> tuple[float, float]:
    """The checked recursive tree walk: (value, scale).

    The value is computed node by node with the checked operations above,
    so it raises EvaluationError where they do.  The scale bounds |value|
    plus how far an error of one unit in the last place of every
    intermediate can move the value.
    """
    if isinstance(e, Const):
        return e.value, abs(e.value)
    if isinstance(e, Var):
        return env[e.name], abs(env[e.name])
    if isinstance(e, Pow):
        b, mb = magnitude(e.base, env)
        v = checked_pow(b, e.exponent)
        slope = e.exponent * v / b if b else 0.0
        return v, abs(v) + abs(slope) * mb
    if isinstance(e, (Sin, Cos, Exp)):
        a, ma = magnitude(e.arg, env)
        f, df = {Sin: (checked(math.sin), math.cos),
                 Cos: (checked(math.cos), lambda t: -math.sin(t)),
                 Exp: (checked_exp, math.exp)}[type(e)]
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
    v = checked_div(a, b)
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
    env = dict(zip(chart.var_names, reduce_point(chart, point).tolist()))
    try:
        value, _ = magnitude(expr, env)
    except EvaluationError:
        return None
    return value if math.isfinite(value) else None


def fault(compiled, points) -> str:
    """The EvaluationError text of a batch over points."""
    with pytest.raises(EvaluationError) as got:
        compiled.batch(points)
    return str(got.value)


def alone(compiled, points, i) -> str:
    """Row i's fault evaluated alone, numbered as row i of the batch."""
    text = fault(compiled, [points[i]])
    assert text.startswith("row 0, ")
    return f"row {i}, {text[len('row 0, '):]}"


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
    def test_batch_matches_walk(self, text, points):
        expr = parse_expr(text)
        compiled = compile_exprs(XY, (expr,))
        expected = [walk(expr, p) for p in points]
        for p, want in zip(points, expected):
            if want is None:
                with pytest.raises(EvaluationError):
                    compiled.batch([p])
            else:
                assert_close(compiled.batch([p])[0, 0], expr, p)
        bad = [i for i, want in enumerate(expected) if want is None]
        if bad:
            assert fault(compiled, points) == alone(compiled, points, bad[0])
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
    OVERFLOW_REASONS = {"exp(x)": "exp overflow", "x^400": "power overflow",
                        "1 / x^400": "power overflow",
                        "sin(x*x*x*x)": "non-finite value",  # sin(inf)
                        "1 / cos(x*x*x*x)": "non-finite value"}

    @pytest.mark.parametrize("text, point", [
        ("exp(x)", [1000.0, 0.0]),
        ("x^400", [10.0, 0.0]),
        ("1 / x^400", [10.0, 0.0]),
        ("sin(x*x*x*x)", [1e80, 0.0]),
        ("1 / cos(x*x*x*x)", [1e80, 0.0]),
    ])
    def test_overflow_raises_without_warning(self, text, point):
        reason = self.OVERFLOW_REASONS[text]
        compiled = compile_exprs(XY, (parse_expr(text),))
        pts = [[1.0, 0.0], point, [1.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert walk(parse_expr(text), point) is None
            assert fault(compiled, [point]) == \
                f"row 0, point {point}: {reason}"
            assert fault(compiled, pts) == alone(compiled, pts, 1)

    @pytest.mark.parametrize("text", ["0^-1", "10^400", "x + (0 * 3)^-2",
                                      "exp(-(1e100)^4)"])
    def test_constant_power_left_unfolded(self, text):
        # Folding would raise ZeroDivisionError or OverflowError, so the
        # parser keeps the power and every evaluation refuses it.
        field = parse_field(XY, text)
        assert any(isinstance(e, Pow) and isinstance(e.base, Const)
                   for e in subtrees(field.expr))
        compiled = compile_exprs(XY, (field.expr,))
        pts = [[0.5, 0.0], [1.0, 1.0]]
        assert walk(field.expr, pts[0]) is None
        assert fault(compiled, pts) == alone(compiled, pts, 0) == \
            "row 0, point [0.5, 0.0]: power overflow"

    @pytest.mark.parametrize("base, k", [(0.0, -1), (-0.0, -3), (10.0, 400)])
    def test_constant_base_power_in_both_bindings(self, base, k):
        # The base is a plain float in the generated code, in a one-row
        # batch and in an N-row batch alike.
        compiled = compile_exprs(XY, (Pow(Const(base), k),))
        assert fault(compiled, [[1.0, 2.0]]) == \
            "row 0, point [1.0, 2.0]: power overflow"
        assert fault(compiled, [[1.0, 2.0], [3.0, 4.0]]) == \
            "row 0, point [1.0, 2.0]: power overflow"

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
        assert fault(compiled, [[0.5, 0.0]]) == \
            "row 0, point [0.5, 0.0]: division by zero"

    @pytest.mark.parametrize("point", [[1.0], [1.0, 2.0, 3.0]])
    def test_wrong_point_length(self, point):
        # reduce_point refuses such a point too.
        with pytest.raises(ValueError, match=r"expected \(N, 2\)"):
            parse_field(XY, "x + y").compile()([point])
        with pytest.raises(ValueError, match=r"expected \(N, 2\)"):
            fm.one_form(XY, {"x": parse_field(XY, "y")}).coeff_array([point])

    @pytest.mark.parametrize("text, y, reason", [
        ("1/(x - 1) + exp(y)", 1000.0, "exp overflow"),
        ("1/(x - 1) + exp(400 * y) * exp(400 * y)", 0.9, "non-finite value"),
    ], ids=["exp", "product"])
    def test_late_fault_takes_log_calls(self, text, y, reason, monkeypatch):
        # The full batch fails its division at row 900; row 700 fails
        # later in the tree, and bisection over prefixes finds it with
        # about log2 N calls of the generated function.
        compiled = CompiledExprs(XY, (parse_expr(text),))
        pts = np.zeros((1000, 2))
        pts[700, 1], pts[900, 0] = y, 1.0
        calls = []
        columns = compiled.columns

        def counted(*cols):
            calls.append(len(cols[0]))
            return columns(*cols)

        monkeypatch.setattr(compiled, "columns", counted)
        assert fault(compiled, pts) == f"row 700, point [0.0, {y}]: {reason}"
        assert calls[0] == len(pts) and calls[-1] == 1
        assert len(calls) <= 2 * math.ceil(math.log2(len(pts))) + 2
        assert fault(compiled, pts) == alone(compiled, pts, 700)

    def test_batch_names_first_bad_row(self):
        # The division is checked before the exponential, and fails on a
        # later row than the exponential does.
        field = parse_field(XY, "1/(x - 1) + exp(y)")
        pts = [[0.0, 0.0], [0.0, 1000.0], [0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(EvaluationError, match=r"row 1\b"):
            compile_exprs(XY, (field.expr,)).batch(pts)

    def test_earlier_row_fails_only_at_output(self):
        # Row 1 fails the division; row 0 passes every check inside, as
        # sin(inf) is NaN, and fails only at the output.
        compiled = compile_exprs(XY, (parse_expr("sin(x*x*x*x) + 1/y"),))
        pts = [[1e80, 1.0], [0.0, 0.0]]
        assert fault(compiled, pts) == alone(compiled, pts, 0) == \
            "row 0, point [1e+80, 1.0]: non-finite value"
        assert alone(compiled, pts, 1) == \
            "row 1, point [0.0, 0.0]: division by zero"

    @pytest.mark.parametrize("text, reason", [
        ("1/x", "division by zero"), ("exp(1000 + x)", "exp overflow")])
    def test_one_row_batch_names_row_0(self, text, reason, monkeypatch):
        # The search for the failing row calls the generated function one
        # row at a time; it never re-enters batch.
        compiled = compile_exprs(XY, (parse_expr(text),))
        calls, real = [], CompiledExprs.batch
        monkeypatch.setattr(CompiledExprs, "batch", lambda self, points: (
            calls.append(len(points)) or real(self, points)))
        assert fault(compiled, [[0.0, 0.0]]) == \
            f"row 0, point [0.0, 0.0]: {reason}"
        assert calls == [1]

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
            reduced = reduce_point(ch, p)
            assert row[:3].tolist() == reduced.tolist()
            assert compiled.batch([p])[0, :3].tolist() == reduced.tolist()
            assert row[3] == pytest.approx(walk(exprs[3], p, ch), rel=1e-12)


class TestReads:
    """CompiledExprs.reads: the indices of the chart coordinates that the
    expressions name, in chart order.  The generated code names no other
    coordinate, so the scan and the transport sweep pass None for them."""

    def test_scan_kernel(self, monkeypatch):
        # the plane's coefficients and gradients read y1 alone, and its
        # components are constant
        kernels = []
        monkeypatch.setattr(co, "compile_exprs", lambda *a: kernels.append(
            compile_exprs(*a)) or kernels[-1])
        Y = co.legendrian_model(2)
        assert len(co.singular_scan(Y).hits) == 41 ** 2
        [scan] = kernels
        assert scan.chart.var_names == ("x1", "x2", "y1")
        assert scan.reads == (2,)
        pts = np.array([[0.3, -0.7, 0.25], [-1.0, 0.5, -0.5]])
        assert same_bits(columns(scan, pts), scan.batch(pts))

    @pytest.mark.parametrize("lift_u, lift_v, reads", [
        (("0 - 0.9 * v", "0 - 1.7 * v"), ("0.9 * u", "1.7 * u"), (2, 3)),
        (("0", "0"), ("0", "0"), ()),
        (("0", "s1 * v"), ("0 - u", "0"), (0, 2, 3)),
        (("cos(s2) * v", "0"), ("0", "0"), (1, 3)),
    ], ids=["torus-rotation", "trivial", "sheared", "s2-v"])
    def test_lift_kernel(self, lift_u, lift_v, reads):
        b = bd.FlatDiskBundle(2, (1.0, 1.0), 1.0, *(
            tuple(parse_field(TOTAL2, text) for text in lift)
            for lift in (lift_u, lift_v)))
        lift = bd._lift_rhs(b)
        assert lift.reads == reads
        pts = np.array([[0.1, 0.6, 0.3, -0.2], [0.9, -0.4, -0.5, 0.25]])
        assert same_bits(columns(lift, pts), lift.batch(pts))


def columns(compiled, pts: np.ndarray) -> np.ndarray:
    """``columns`` at pts, with None for every coordinate that is not
    read, as an (N, outputs) array like ``batch``'s."""
    out = compiled.columns(*(pts[:, j] if j in compiled.reads else None
                             for j in range(pts.shape[1])))
    return np.column_stack(np.broadcast_arrays(*out, pts[:, 0])[:-1])


TOTAL2 = Chart(("s1", "s2", "u", "v"), (1.0, 1.0, None, None))


def shared_template(c0, c1, c2):
    """c0 x + y / (x - c1), and the constant c2, built node by node so that
    no fold removes a constant."""
    x, y = Var("x"), Var("y")
    return (Add(Mul(Const(c0), x), Div(y, Sub(x, Const(c1)))), Const(c2))


def same_bits(a, b) -> bool:
    return np.array(a, dtype=float).tobytes() == \
        np.array(b, dtype=float).tobytes()


class TestKernelSharing:
    """Expressions that differ only in constants compile to one kernel, with
    the constants (Const leaves and periods) as trailing arguments.  Each
    CompiledExprs binds its own as ``columns``' defaults, and the kernel
    called with per-row constant columns gives every row the bits of its
    own ``columns`` and ``batch``, and of the tree walk."""

    # a negative zero, infinities and a NaN among the constants; the NaN
    # makes the first output non-finite
    CONSTANTS = [(0.5, 3.0, 2.0), (-0.0, 3.0, 0.25), (2.0, math.inf, -0.0),
                 (-1.5, -math.inf, math.inf), (math.nan, 3.0, 1.0)]
    POINTS = np.array([[1.5, 2.0], [-2.0, 0.5], [0.0, -3.0], [4.0, -0.0]])

    def test_one_kernel_for_one_template(self):
        compiled = [CompiledExprs(XY, shared_template(*c))
                    for c in self.CONSTANTS]
        kernel = compiled[0].kernel
        for c, f in zip(self.CONSTANTS, compiled):
            assert f.kernel is kernel
            assert f.columns.__code__ is kernel.__code__
            assert f.source == compiled[0].source
            assert same_bits(f.consts, c)
            assert same_bits(f.columns.__defaults__, c)

    def test_per_row_constants_are_each_rows_own(self):
        compiled = [CompiledExprs(XY, shared_template(*c))
                    for c in self.CONSTANTS]
        n = len(self.POINTS)
        pts = np.tile(self.POINTS, (len(compiled), 1))
        consts = np.repeat(np.array(self.CONSTANTS).T, n, axis=1)
        with np.errstate(all="ignore"):
            merged = compiled[0].kernel(*pts.T, *consts)
            for i, (c, f) in enumerate(zip(self.CONSTANTS, compiled)):
                rows = slice(i * n, (i + 1) * n)
                own = f.columns(*self.POINTS.T)
                for got, want in zip(merged, own):
                    assert same_bits(got[rows], np.broadcast_to(want, n))
                for j, e in enumerate(shared_template(*c)):
                    walked = [walk(e, p) for p in self.POINTS]
                    for got, want in zip(merged[j][rows], walked):
                        assert same_bits(got, want) if want is not None \
                            else not math.isfinite(got)
                if math.isnan(c[0]):
                    assert fault(f, self.POINTS) == \
                        "row 0, point [1.5, 2.0]: non-finite value"
                elif math.isfinite(c[2]):
                    assert same_bits(f.batch(self.POINTS),
                                     np.stack(merged, axis=1)[rows])

    def test_periods_are_constants(self):
        charts = [Chart(("s", "u"), (per, None))
                  for per in (1.0, 2 * math.pi, 0.75)]
        exprs = (Sub(Mul(Var("s"), Var("u")), Var("s")),)
        compiled = [compile_exprs(ch, exprs) for ch in charts]
        assert len({f.kernel for f in compiled}) == 1
        assert [f.consts for f in compiled] == [(1.0,), (2 * math.pi,),
                                                (0.75,)]
        pts = np.array([[-2.25, 1.5], [13.0, -0.5], [7.5, 2.0], [-0.0, 1.0]])
        n = len(pts)
        merged = compiled[0].kernel(
            *np.tile(pts, (len(charts), 1)).T,
            np.repeat([per for per, _ in (ch.periods for ch in charts)], n))
        for i, (ch, f) in enumerate(zip(charts, compiled)):
            rows = merged[0][i * n:(i + 1) * n]
            assert same_bits(rows, f.batch(pts)[:, 0])
            assert same_bits(rows, [walk(exprs[0], p, ch) for p in pts])

    @pytest.mark.parametrize("first, second", [
        ("x + y", "x * y"),
        ("2.5 * x", "1 * x"),  # a rate of exactly 1 folds away
        ("2.5 * x + 3.5 * y", "2.5 * x + 2.5 * y"),  # one constant node
        ("x * y", "x * y^2"),
    ])
    def test_other_structure_other_kernel(self, first, second):
        assert compile_exprs(XY, (parse_expr(first),)).kernel is not \
            compile_exprs(XY, (parse_expr(second),)).kernel

    def test_periodic_coordinate_is_structure(self):
        e = (parse_expr("x + y"),)
        assert compile_exprs(XY, e).kernel is not compile_exprs(
            Chart(("x", "y"), (1.0, None)), e).kernel

    def test_rotation_rates(self):
        kernel = [bd._lift_rhs(bd.rotation_bundle([rate])).kernel
                  for rate in (0.7, -1.3, 2.1, 1.0)]
        assert kernel[0] is kernel[1] is kernel[2]
        assert kernel[3] is not kernel[0]  # rate 1: the v lift is u itself


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
                want = walk(two.coeff(idx), p, ch)
                assert row[col] == pytest.approx(want, rel=1e-14)
