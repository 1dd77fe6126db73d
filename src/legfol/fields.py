"""Expression-tree scalar fields, vector fields and smooth maps on coordinate charts.

Everything here is immutable: building a derivative or a composite returns a new
object. Simplification is deliberately limited to constant folding and 0/1
absorption so that evaluation stays predictable and the finite-difference
oracle remains a genuinely independent cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np


class ChartMismatch(ValueError):
    """Operands live on different charts."""


class UnknownVariable(ValueError):
    """A coordinate name does not belong to the chart."""


class EvaluationError(ArithmeticError):
    """Evaluation produced a non-finite value."""


@dataclass(frozen=True)
class Chart:
    """An ordered coordinate chart, optionally periodic in some variables."""

    var_names: tuple[str, ...]
    periods: tuple[Optional[float], ...] = ()

    def __post_init__(self):
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("coordinate names must be pairwise distinct")
        if not self.var_names:
            raise ValueError("chart must have at least one coordinate")
        if not self.periods:
            object.__setattr__(self, "periods", (None,) * len(self.var_names))
        if len(self.periods) != len(self.var_names):
            raise ValueError("periods length must match var_names")
        for p in self.periods:
            if p is not None and p <= 0:
                raise ValueError("periods must be strictly positive")

    @property
    def dim(self) -> int:
        return len(self.var_names)

    def index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise UnknownVariable(
                f"variable {name!r} not in chart {self.var_names}"
            ) from None

    def reduce(self, point: Sequence[float]) -> np.ndarray:
        """Reduce periodic coordinates modulo their period."""
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise ValueError(f"point has shape {p.shape}, chart dim is {self.dim}")
        if all(per is None for per in self.periods):
            return p
        out = p.copy()
        for i, per in enumerate(self.periods):
            if per is not None:
                out[i] = out[i] % per
        return out

    def env(self, point: Sequence[float]) -> dict[str, float]:
        # Plain floats, so the tree walk does Python float arithmetic: the
        # same as the compiled scalar path, and free of numpy warnings.
        red = self.reduce(point)
        return dict(zip(self.var_names, red.tolist()))


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------


class Expr:
    """Base class for arithmetic expression nodes."""

    __slots__ = ()

    def diff(self, var: str) -> "Expr":
        raise NotImplementedError

    def eval(self, env: Mapping[str, float]) -> float:
        raise NotImplementedError

    def subs(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    # operator sugar -------------------------------------------------------
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __pow__(self, k):
        return pow_(self, k)

    def __neg__(self):
        return mul(Const(-1.0), self)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(float(x))


@dataclass(frozen=True)
class Const(Expr):
    value: float

    def diff(self, var):
        return Const(0.0)

    def eval(self, env):
        return self.value

    def subs(self, mapping):
        return self

    def variables(self):
        return frozenset()

    def __str__(self):
        if self.value == int(self.value) and abs(self.value) < 1e15:
            return str(int(self.value))
        return repr(self.value)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def diff(self, var):
        return Const(1.0 if var == self.name else 0.0)

    def eval(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise UnknownVariable(f"variable {self.name!r} missing from point") from None

    def subs(self, mapping):
        return mapping.get(self.name, self)

    def variables(self):
        return frozenset((self.name,))

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class _Binary(Expr):
    left: Expr
    right: Expr

    def variables(self):
        return self.left.variables() | self.right.variables()


class Add(_Binary):
    def diff(self, var):
        return add(self.left.diff(var), self.right.diff(var))

    def eval(self, env):
        return self.left.eval(env) + self.right.eval(env)

    def subs(self, mapping):
        return add(self.left.subs(mapping), self.right.subs(mapping))

    def __str__(self):
        return f"{self.left} + {_paren(self.right, Add)}"


class Sub(_Binary):
    def diff(self, var):
        return sub(self.left.diff(var), self.right.diff(var))

    def eval(self, env):
        return self.left.eval(env) - self.right.eval(env)

    def subs(self, mapping):
        return sub(self.left.subs(mapping), self.right.subs(mapping))

    def __str__(self):
        return f"{self.left} - {_paren(self.right, Sub)}"


class Mul(_Binary):
    def diff(self, var):
        return add(
            mul(self.left.diff(var), self.right),
            mul(self.left, self.right.diff(var)),
        )

    def eval(self, env):
        return self.left.eval(env) * self.right.eval(env)

    def subs(self, mapping):
        return mul(self.left.subs(mapping), self.right.subs(mapping))

    def __str__(self):
        return f"{_factor_str(self.left)} * {_factor_str(self.right)}"


class Div(_Binary):
    def diff(self, var):
        # (u/v)' = (u'v - uv') / v^2
        return div(
            sub(mul(self.left.diff(var), self.right),
                mul(self.left, self.right.diff(var))),
            pow_(self.right, 2),
        )

    def eval(self, env):
        return _checked_div(self.left.eval(env), self.right.eval(env))

    def subs(self, mapping):
        return div(self.left.subs(mapping), self.right.subs(mapping))

    def __str__(self):
        return f"{_factor_str(self.left)} / {_tight_str(self.right)}"


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int

    def diff(self, var):
        if self.exponent == 0:
            return Const(0.0)
        return mul(
            mul(Const(float(self.exponent)), pow_(self.base, self.exponent - 1)),
            self.base.diff(var),
        )

    def eval(self, env):
        return _checked_pow(self.base.eval(env), self.exponent)

    def subs(self, mapping):
        return pow_(self.base.subs(mapping), self.exponent)

    def variables(self):
        return self.base.variables()

    def __str__(self):
        return f"{_tight_str(self.base)}^{self.exponent}"


@dataclass(frozen=True)
class _Func(Expr):
    arg: Expr

    def variables(self):
        return self.arg.variables()

    def subs(self, mapping):
        return type(self)(self.arg.subs(mapping))

    def __str__(self):
        return f"{self._name}({self.arg})"


class Sin(_Func):
    _name = "sin"

    def diff(self, var):
        return mul(Cos(self.arg), self.arg.diff(var))

    def eval(self, env):
        return _checked_sin(self.arg.eval(env))


class Cos(_Func):
    _name = "cos"

    def diff(self, var):
        return mul(mul(Const(-1.0), Sin(self.arg)), self.arg.diff(var))

    def eval(self, env):
        return _checked_cos(self.arg.eval(env))


class Exp(_Func):
    _name = "exp"

    def diff(self, var):
        return mul(Exp(self.arg), self.arg.diff(var))

    def eval(self, env):
        return _checked_exp(self.arg.eval(env))


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return mul(Const(-1.0), b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) and not _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Const) and isinstance(b, Const) and b.value != 0.0:
        return Const(a.value / b.value)
    return Div(a, b)


def pow_(a: Expr, k: int) -> Expr:
    k = int(k)
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    if isinstance(a, Const):
        return Const(a.value ** k)
    return Pow(a, k)


def _paren(e: Expr, ctx) -> str:
    if ctx in (Add, Sub) and isinstance(e, (Add, Sub)):
        return f"({e})"
    return str(e)


def _factor_str(e: Expr) -> str:
    if isinstance(e, (Add, Sub)):
        return f"({e})"
    return str(e)


def _tight_str(e: Expr) -> str:
    if isinstance(e, (Add, Sub, Mul, Div, Pow)):
        return f"({e})"
    return str(e)


# ---------------------------------------------------------------------------
# Checked scalar operations
#
# The tree walk and the compiled scalar path share these, so both raise
# EvaluationError on the same inputs; the batch path mirrors them with numpy.
# Add, Sub and Mul are unchecked: an overflow there yields inf, which either
# disappears (1/inf = 0) or makes the final value non-finite.
# ---------------------------------------------------------------------------


def _checked_div(num: float, den: float) -> float:
    if den == 0.0:
        raise EvaluationError("division by zero")
    return num / den


def _checked_pow(base: float, k: int) -> float:
    if base == 0.0 and k < 0:
        raise EvaluationError("zero raised to negative power")
    try:
        return base ** k
    except OverflowError:  # finite base, infinite power
        raise EvaluationError(f"power overflow: {base!r}^{k}") from None


def _checked_exp(x: float) -> float:
    try:
        v = math.exp(x)
    except OverflowError:
        v = math.inf
    if not math.isfinite(v):
        raise EvaluationError(f"exp overflow: exp({x!r})")
    return v


def _checked_sin(x: float) -> float:
    try:
        return math.sin(x)
    except ValueError:  # infinite argument
        raise EvaluationError(f"sin({x!r})") from None


def _checked_cos(x: float) -> float:
    try:
        return math.cos(x)
    except ValueError:
        raise EvaluationError(f"cos({x!r})") from None


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------


class _RowError(Exception):
    """A checked batch operation failed; row is the first row it failed on."""

    def __init__(self, what: str, bad):
        super().__init__(what)
        self.row = int(np.flatnonzero(np.atleast_1d(bad))[0])


def _check_rows(bad, what: str):
    if np.any(bad):
        raise _RowError(what, bad)


def _np_div(num, den):
    _check_rows(np.equal(den, 0.0), "division by zero")
    return num / den


def _np_pow(base, k: int):
    v = base ** k
    # Also catches 0^-k, which numpy makes inf.
    _check_rows(np.isinf(v) & np.isfinite(base), "power overflow")
    return v


def _np_exp(x):
    v = np.exp(x)
    _check_rows(~np.isfinite(v), "exp overflow")
    return v


# The two bindings of the names the generated code calls.  sin and cos of
# an infinite argument need no batch check: the NaN they give reaches the
# output, whose finiteness is checked.
_NUMPY_OPS = {"_div": _np_div, "_pow": _np_pow, "_exp": _np_exp,
              "_sin": np.sin, "_cos": np.cos}
_FLOAT_OPS = {"_div": _checked_div, "_pow": _checked_pow, "_exp": _checked_exp,
              "_sin": _checked_sin, "_cos": _checked_cos}
_INFIX = {Add: "+", Sub: "-", Mul: "*"}
_CALLS = {Div: "_div", Sin: "_sin", Cos: "_cos", Exp: "_exp"}


def _literal(v: float) -> str:
    return repr(v) if math.isfinite(v) else f"float('{v!r}')"


def _codegen(chart: Chart, exprs: tuple[Expr, ...]) -> str:
    """Source of ``_fn(x0, ..., x{dim-1})`` returning one value per expression.

    Each distinct subtree gets one temporary, so a subtree shared by several
    expressions, or repeated inside one, is computed once per call.
    """
    lines: list[str] = []
    temps: dict[Expr, str] = {}

    def emit(code: str) -> str:
        name = f"t{len(lines)}"
        lines.append(f"    {name} = {code}")
        return name

    def visit(e: Expr) -> str:
        if isinstance(e, Const):
            return _literal(e.value)
        name = temps.get(e)
        if name is not None:
            return name
        if isinstance(e, Var):
            i = chart.index(e.name)
            per = chart.periods[i]
            name = f"x{i}" if per is None else emit(f"x{i} % {float(per)!r}")
        elif isinstance(e, Pow):
            name = emit(f"_pow({visit(e.base)}, {e.exponent})")
        elif type(e) in _INFIX:
            name = emit(f"{visit(e.left)} {_INFIX[type(e)]} {visit(e.right)}")
        elif isinstance(e, Div):
            name = emit(f"_div({visit(e.left)}, {visit(e.right)})")
        elif type(e) in _CALLS:
            name = emit(f"{_CALLS[type(e)]}({visit(e.arg)})")
        else:
            raise TypeError(f"cannot compile {type(e).__name__}")
        temps[e] = name
        return name

    outputs = [visit(e) for e in exprs]
    args = ", ".join(f"x{i}" for i in range(chart.dim))
    return "\n".join([f"def _fn({args}):", *lines,
                      f"    return ({''.join(o + ', ' for o in outputs)})", ""])


class CompiledExprs:
    """Expressions on one chart, compiled to one generated function.

    ``batch`` evaluates an ``(N, dim)`` point array with numpy ufuncs and
    returns ``(N, len(exprs))``; ``scalar`` evaluates one point given as
    plain floats, with ``math``, and returns a tuple.  Periodic coordinates
    are reduced like ``Chart.reduce``.  Both raise EvaluationError wherever
    the tree walk (``ExprField.eval``) does.
    """

    def __init__(self, chart: Chart, exprs: tuple[Expr, ...]):
        self.chart = chart
        self._outputs = len(exprs)
        self.source = _codegen(chart, exprs)
        code = compile(self.source, "<legfol compiled fields>", "exec")
        self._batch_fn = self._bind(code, _NUMPY_OPS)
        self._scalar_fn = self._bind(code, _FLOAT_OPS)

    @staticmethod
    def _bind(code, ops) -> Callable:
        namespace = dict(ops)
        exec(code, namespace)
        return namespace["_fn"]

    def batch(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return np.empty((0, self._outputs))
        if pts.ndim != 2 or pts.shape[1] != self.chart.dim:
            raise ValueError(f"points have shape {pts.shape}, expected "
                             f"(N, {self.chart.dim})")
        try:
            with np.errstate(all="ignore"):
                values = self._batch_fn(*np.ascontiguousarray(pts.T))
        except _RowError as exc:
            # exc.row failed the first check that failed anywhere; an earlier
            # row may fail a later check.  The scalar path finds the first
            # failing row and says why it fails, as the tree walk would.
            row, reason = exc.row, str(exc)
            for i in range(exc.row + 1):
                try:
                    self.scalar(*pts[i])
                except EvaluationError as err:
                    row, reason = i, str(err)
                    break
            raise EvaluationError(
                f"row {row}, point {pts[row].tolist()}: {reason}") from None
        out = np.empty((len(pts), len(values)))
        for j, v in enumerate(values):
            out[:, j] = v
        bad = ~np.isfinite(out).all(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise EvaluationError(
                f"row {row}, point {pts[row].tolist()}: non-finite value")
        return out

    def scalar(self, *coords: float) -> tuple[float, ...]:
        out = self._scalar_fn(*map(float, coords))
        if not all(map(math.isfinite, out)):
            raise EvaluationError(f"non-finite value at {list(coords)}")
        return out


@functools.lru_cache(maxsize=512)
def compile_exprs(chart: Chart, exprs: tuple[Expr, ...]) -> CompiledExprs:
    """Compile expressions once per (chart, exprs); later calls hit a cache."""
    return CompiledExprs(chart, exprs)


# ---------------------------------------------------------------------------
# Fields, vector fields, maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExprField:
    """A scalar field on a chart, backed by an expression tree."""

    chart: Chart
    expr: Expr

    def __post_init__(self):
        extra = self.expr.variables() - set(self.chart.var_names)
        if extra:
            raise UnknownVariable(
                f"expression references {sorted(extra)} outside chart "
                f"{self.chart.var_names}"
            )

    def diff(self, var: str) -> "ExprField":
        self.chart.index(var)  # raises UnknownVariable
        return ExprField(self.chart, self.expr.diff(var))

    def eval(self, point: Sequence[float]) -> float:
        """Tree walk at one point: the reference the compiled paths match."""
        v = self.expr.eval(self.chart.env(point))
        if not math.isfinite(v):
            raise EvaluationError(f"non-finite value at {list(point)}")
        return v

    def compile(self) -> Callable[[np.ndarray], np.ndarray]:
        """Batched evaluator from (N, dim) points to (N,) values (cached)."""
        batch = compile_exprs(self.chart, (self.expr,)).batch
        return lambda points: batch(points)[:, 0]

    def on_chart(self, chart: Chart) -> "ExprField":
        """Recharter the same expression onto a chart containing its variables."""
        return ExprField(chart, self.expr)

    def _lift(self, other) -> Expr:
        if isinstance(other, ExprField):
            if other.chart != self.chart:
                raise ChartMismatch("fields on different charts")
            return other.expr
        return _coerce(other)

    def __add__(self, other):
        return ExprField(self.chart, add(self.expr, self._lift(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return ExprField(self.chart, sub(self.expr, self._lift(other)))

    def __rsub__(self, other):
        return ExprField(self.chart, sub(self._lift(other), self.expr))

    def __mul__(self, other):
        return ExprField(self.chart, mul(self.expr, self._lift(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return ExprField(self.chart, div(self.expr, self._lift(other)))

    def __rtruediv__(self, other):
        return ExprField(self.chart, div(self._lift(other), self.expr))

    def __pow__(self, k):
        return ExprField(self.chart, pow_(self.expr, k))

    def __neg__(self):
        return ExprField(self.chart, mul(Const(-1.0), self.expr))

    def __str__(self):
        return str(self.expr)


def constant(chart: Chart, value: float) -> ExprField:
    return ExprField(chart, Const(float(value)))


def coordinate(chart: Chart, name: str) -> ExprField:
    chart.index(name)
    return ExprField(chart, Var(name))


def fd_partial(field: ExprField, point: Sequence[float], var: str,
               step: float = 1e-5) -> float:
    """Central-difference partial derivative, independent of the symbolic path."""
    if step <= 0:
        raise ValueError("step must be positive")
    i = field.chart.index(var)
    p = np.asarray(point, dtype=float)
    hi = p.copy()
    hi[i] += step
    lo = p.copy()
    lo[i] -= step
    return (field.eval(hi) - field.eval(lo)) / (2.0 * step)


@dataclass(frozen=True)
class VectorFieldExpr:
    """A vector field with one ExprField component per chart coordinate."""

    chart: Chart
    components: tuple[ExprField, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dim:
            raise ValueError("component count must equal chart dim")
        for c in self.components:
            if c.chart != self.chart:
                raise ChartMismatch("component on wrong chart")

    def eval(self, point: Sequence[float]) -> np.ndarray:
        return np.array([c.eval(point) for c in self.components])

    def apply(self, field: ExprField) -> ExprField:
        """Directional derivative V(f), symbolically."""
        if field.chart != self.chart:
            raise ChartMismatch("field and vector field on different charts")
        acc = Const(0.0)
        for name, comp in zip(self.chart.var_names, self.components):
            acc = add(acc, mul(comp.expr, field.expr.diff(name)))
        return ExprField(self.chart, acc)


def vector_field(chart: Chart, components: Sequence[ExprField | Expr | float]
                 ) -> VectorFieldExpr:
    comps = []
    for c in components:
        if isinstance(c, ExprField):
            comps.append(c.on_chart(chart))
        elif isinstance(c, Expr):
            comps.append(ExprField(chart, c))
        else:
            comps.append(constant(chart, float(c)))
    return VectorFieldExpr(chart, tuple(comps))


def lie_bracket(V: VectorFieldExpr, W: VectorFieldExpr) -> VectorFieldExpr:
    """[V, W] = (V . grad) W - (W . grad) V, computed symbolically."""
    if V.chart != W.chart:
        raise ChartMismatch("bracket operands on different charts")
    comps = []
    for wi, vi in zip(W.components, V.components):
        comps.append(ExprField(V.chart, sub(V.apply(wi).expr, W.apply(vi).expr)))
    return VectorFieldExpr(V.chart, tuple(comps))


@dataclass(frozen=True)
class SmoothMapExpr:
    """A smooth map between charts, one source-chart ExprField per target coord."""

    source: Chart
    target: Chart
    components: tuple[ExprField, ...]

    def __post_init__(self):
        if len(self.components) != self.target.dim:
            raise ValueError("component count must equal target dim")
        for c in self.components:
            if c.chart != self.source:
                raise ChartMismatch("map component on wrong chart")

    def eval(self, point: Sequence[float]) -> np.ndarray:
        return np.array([c.eval(point) for c in self.components])

    def jacobian_entry(self, i: int, j: int) -> ExprField:
        """d(target_i)/d(source_j) as a field on the source chart."""
        return self.components[i].diff(self.source.var_names[j])

    def jacobian(self, point: Sequence[float]) -> np.ndarray:
        J = np.empty((self.target.dim, self.source.dim))
        for i in range(self.target.dim):
            for j in range(self.source.dim):
                J[i, j] = self.jacobian_entry(i, j).eval(point)
        return J

    def compose_field(self, field: ExprField) -> ExprField:
        """Pull a target-chart scalar field back through the map, symbolically."""
        if field.chart != self.target:
            raise ChartMismatch("field not on the map's target chart")
        mapping = {
            name: comp.expr
            for name, comp in zip(self.target.var_names, self.components)
        }
        return ExprField(self.source, field.expr.subs(mapping))

    def compose(self, other: "SmoothMapExpr") -> "SmoothMapExpr":
        """self after other: other.source -> self.target."""
        if other.target != self.source:
            raise ChartMismatch("maps are not composable")
        comps = tuple(other.compose_field(c) for c in self.components)
        return SmoothMapExpr(other.source, self.target, comps)


def identity_map(chart: Chart) -> SmoothMapExpr:
    return SmoothMapExpr(
        chart, chart, tuple(coordinate(chart, v) for v in chart.var_names)
    )


def pushforward(map_: SmoothMapExpr, V: VectorFieldExpr,
                point: Sequence[float]) -> np.ndarray:
    """Jacobian of the map applied to V at the given source point."""
    if V.chart != map_.source:
        raise ChartMismatch("vector field not on the map's source chart")
    return map_.jacobian(point) @ V.eval(point)


def pushforward_field(map_: SmoothMapExpr, V: VectorFieldExpr
                      ) -> tuple[ExprField, ...]:
    """Symbolic pushforward of V along the map.

    Returns one source-chart ExprField per target coordinate; meaningful
    pointwise along the image of the map.
    """
    if V.chart != map_.source:
        raise ChartMismatch("vector field not on the map's source chart")
    comps = []
    for i in range(map_.target.dim):
        acc = Const(0.0)
        for j in range(map_.source.dim):
            acc = add(acc, mul(map_.jacobian_entry(i, j).expr, V.components[j].expr))
        comps.append(ExprField(map_.source, acc))
    return tuple(comps)


# ---------------------------------------------------------------------------
# Expression parser (the grammar consumed by scenario files)
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp}


class _Parser:
    """Recursive-descent parser for infix arithmetic with sin/cos/exp."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Expr:
        e = self._expr()
        self._skip_ws()
        if self.pos < len(self.text):
            raise ParseError(
                f"unexpected {self.text[self.pos]!r}", self.pos)
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while True:
            c = self._peek()
            if c == "+":
                self.pos += 1
                e = add(e, self._term())
            elif c == "-":
                self.pos += 1
                e = sub(e, self._term())
            else:
                return e

    def _term(self) -> Expr:
        e = self._unary()
        while True:
            c = self._peek()
            if c == "*":
                self.pos += 1
                e = mul(e, self._unary())
            elif c == "/":
                self.pos += 1
                e = div(e, self._unary())
            else:
                return e

    def _unary(self) -> Expr:
        c = self._peek()
        if c == "-":
            self.pos += 1
            return mul(Const(-1.0), self._unary())
        if c == "+":
            self.pos += 1
            return self._unary()
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            neg = False
            if self._peek() == "-":
                neg = True
                self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if start == self.pos:
                raise ParseError("expected integer exponent after '^'", self.pos)
            k = int(self.text[start:self.pos])
            return pow_(base, -k if neg else k)
        return base

    def _atom(self) -> Expr:
        self._skip_ws()
        if self.pos >= len(self.text):
            raise ParseError("unexpected end of expression", self.pos)
        c = self.text[self.pos]
        if c == "(":
            self.pos += 1
            e = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return e
        if c.isdigit() or c == ".":
            return self._number()
        if c.isalpha() or c == "_":
            return self._ident()
        raise ParseError(f"unexpected {c!r}", self.pos)

    def _number(self) -> Expr:
        start = self.pos
        seen_dot = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and not seen_dot:
                seen_dot = True
                self.pos += 1
            elif ch in "eE" and self.pos + 1 < len(self.text) and (
                self.text[self.pos + 1].isdigit()
                or self.text[self.pos + 1] in "+-"
            ):
                self.pos += 2
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                break
            else:
                break
        try:
            return Const(float(self.text[start:self.pos]))
        except ValueError:
            raise ParseError(
                f"bad number {self.text[start:self.pos]!r}", start) from None

    def _ident(self) -> Expr:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        name = self.text[start:self.pos]
        if name in _FUNCS:
            if self._peek() != "(":
                raise ParseError(f"expected '(' after {name}", self.pos)
            self.pos += 1
            arg = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return _FUNCS[name](arg)
        return Var(name)


def parse_expr(text: str) -> Expr:
    """Parse an infix expression; raises ParseError with a column number."""
    return _Parser(text).parse()


def parse_field(chart: Chart, text: str) -> ExprField:
    expr = parse_expr(text)
    return ExprField(chart, expr)  # validates variables against the chart
