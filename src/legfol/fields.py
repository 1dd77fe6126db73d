"""Expression-tree scalar fields and vector fields on coordinate charts.

Everything here is immutable: building a derivative or a composite returns a new
object, or an existing one where an equal expression node is alive (nodes are
interned). Simplification is deliberately limited to constant folding and 0/1
absorption so that evaluation stays predictable and the finite-difference
oracle remains a genuinely independent cross-check.

Derivatives are symbolic; brackets and pushforwards of vector fields are
array contractions on their compiled values and partials, samples last
(partials, brackets).
"""

from __future__ import annotations

import functools
import itertools
import math
import types
import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np


class ChartMismatch(ValueError):
    """Operands live on different charts."""


class UnknownVariable(ValueError):
    """A coordinate name does not belong to the chart."""


class EvaluationError(ArithmeticError):
    """Evaluation produced a non-finite value; one that CompiledExprs.batch
    raises has row, the first row that failed."""


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

    def require(self, expr: Expr) -> None:
        """Raise UnknownVariable if expr reads a name outside the chart."""
        extra = expr.variables() - set(self.var_names)
        if extra:
            raise UnknownVariable(f"expression references {sorted(extra)} "
                                  f"outside chart {self.var_names}")


# ---------------------------------------------------------------------------
# Expression nodes
#
# Nodes are interned (hash-consed): building a node whose class and fields
# match a live node's returns that node.  Structurally equal subtrees are
# therefore one object, and equality and hashing are by identity.  The table
# holds nodes weakly, so a node leaves it when nothing else holds it.  Each
# node keeps its children, its variables and memos of its derivatives and
# substitutions, and every walk over a tree is a loop that visits each
# distinct node once.
# ---------------------------------------------------------------------------

# Intern key -> live node.  A key names children by id, so the table keeps
# no node alive; a node holds its children, and its entry goes when it dies,
# so the ids in a key are those of live nodes.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
# Parsed text -> its live node (parse_expr), held as weakly as _TABLE.
_PARSED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_NO_VARS: frozenset = frozenset()


def _intern(cls, key, fields: tuple, kids: tuple = (),
            variables: frozenset = _NO_VARS):
    """The live node under key, else a new node of cls with these fields
    and children."""
    node = _TABLE.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls.__match_args__, fields):
            setattr(node, name, value)
        for k in kids:
            variables = variables if k._vars <= variables \
                else k._vars if variables <= k._vars else variables | k._vars
        node._kids, node._vars = kids, variables
        node._diffs = node._substs = None
        _TABLE[key] = node
    return node


def _postorder(roots, skip: Callable | None = None) -> list:
    """The distinct nodes under roots, children first and left to right (the
    order a recursive walk finishes them in), leaving out the nodes where
    skip is true and whatever is reachable only through them."""
    order, finished = [], {}  # node -> whether its children are walked
    stack = list(reversed(roots))
    while stack:
        e = stack[-1]
        state = finished.get(e)
        if state is None:
            if skip is None or not skip(e):
                finished[e] = False
                stack.extend(reversed(e._kids))
                continue
            finished[e] = True
        stack.pop()
        if state is False:
            finished[e] = True
            order.append(e)
    return order


# Constant folds.  The arithmetic nodes are built through these; the function
# nodes (Sin, Cos, Exp) never fold.


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if isinstance(b, Const):
            return Const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif isinstance(b, Const) and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if isinstance(a, Const):
            return Const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif isinstance(a, Const) and a.value == 0.0:
        return mul(Const(-1.0), b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const):
        if isinstance(b, Const):
            return Const(a.value * b.value)
        if a.value == 0.0:
            return Const(0.0)
        if a.value == 1.0:
            return b
    elif isinstance(b, Const):
        if b.value == 0.0:
            return Const(0.0)
        if b.value == 1.0:
            return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const) and b.value == 0.0:
        return Div(a, b)  # left for evaluation to refuse
    if isinstance(a, Const) and a.value == 0.0:
        return Const(0.0)
    if isinstance(b, Const):
        if b.value == 1.0:
            return a
        if isinstance(a, Const):
            return Const(a.value / b.value)
    return Div(a, b)


def pow_(a: Expr, k: int) -> Expr:
    k = int(k)
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    if isinstance(a, Const):
        try:
            return Const(a.value ** k)
        except (ZeroDivisionError, OverflowError):
            pass  # 0^-k or an overflow: left for evaluation to refuse
    return Pow(a, k)


class Expr:
    """Base class of the interned expression nodes.

    Subclasses are declared as dataclasses for their field list only:
    ``dataclasses.fields`` gives it to tools, and ``__match_args__`` to
    ``_intern``.  Construction, equality and hashing are the interning
    above.  Nodes are shared, so nothing may assign to them after
    construction.
    """

    __slots__ = ("_kids", "_vars", "_diffs", "_substs", "__weakref__")

    def variables(self) -> frozenset[str]:
        return self._vars

    def diff(self, var: str) -> "Expr":
        """d/d var, memoized on every node differentiated."""
        if self._diffs is not None and var in self._diffs:
            return self._diffs[var]
        for e in _postorder((self,), lambda e: var in (e._diffs or ())):
            d = e._derive(var, [k._diffs[var] for k in e._kids])
            if e._diffs is None:
                e._diffs = {}
            e._diffs[var] = d
        return self._diffs[var]

    def subs(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Variables replaced by expressions; each distinct node is rebuilt
        once, through the folds.  Memoized on this node by the mapping."""
        key = frozenset(mapping.items())
        if self._substs is not None and key in self._substs:
            return self._substs[key]
        new: dict[Expr, Expr] = {}
        for e in _postorder((self,)):
            new[e] = e._rebuild([new[k] for k in e._kids], mapping)
        if self._substs is None:
            self._substs = {}
        self._substs[key] = new[self]
        return new[self]


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(float(x))


@dataclass(init=False, repr=False, eq=False)
class Const(Expr):
    __slots__ = ("value",)
    value: float

    def __new__(cls, value):
        value = float(value)
        # The key keeps the sign of zero; a NaN is never shared.
        key = (cls, value, math.copysign(1.0, value)) if value == value \
            else object()
        return _intern(cls, key, (value,))

    def _derive(self, var, d):
        return Const(0.0)

    def _rebuild(self, kids, mapping):
        return self


@dataclass(init=False, repr=False, eq=False)
class Var(Expr):
    __slots__ = ("name",)
    name: str

    def __new__(cls, name):
        return _intern(cls, (cls, name), (name,), (), frozenset((name,)))

    def _derive(self, var, d):
        return Const(1.0 if var == self.name else 0.0)

    def _rebuild(self, kids, mapping):
        return mapping.get(self.name, self)


@dataclass(init=False, repr=False, eq=False)
class _Binary(Expr):
    __slots__ = ("left", "right")
    left: Expr
    right: Expr

    def __new__(cls, left, right):
        return _intern(cls, (cls, id(left), id(right)), (left, right),
                       (left, right))

    def _rebuild(self, kids, mapping):
        return self._fold(*kids)


class Add(_Binary):
    __slots__ = ()
    _fold = staticmethod(add)

    def _derive(self, var, d):
        return add(*d)


class Sub(_Binary):
    __slots__ = ()
    _fold = staticmethod(sub)

    def _derive(self, var, d):
        return sub(*d)


class Mul(_Binary):
    __slots__ = ()
    _fold = staticmethod(mul)

    def _derive(self, var, d):
        return add(mul(d[0], self.right), mul(self.left, d[1]))


class Div(_Binary):
    __slots__ = ()
    _fold = staticmethod(div)

    def _derive(self, var, d):
        # (u/v)' = (u'v - uv') / v^2
        return div(sub(mul(d[0], self.right), mul(self.left, d[1])),
                   pow_(self.right, 2))


@dataclass(init=False, repr=False, eq=False)
class Pow(Expr):
    __slots__ = ("base", "exponent")
    base: Expr
    exponent: int

    def __new__(cls, base, exponent):
        return _intern(cls, (cls, id(base), exponent), (base, exponent),
                       (base,))

    def _derive(self, var, d):
        if self.exponent == 0:
            return Const(0.0)
        return mul(mul(Const(float(self.exponent)),
                       pow_(self.base, self.exponent - 1)), d[0])

    def _rebuild(self, kids, mapping):
        return pow_(kids[0], self.exponent)


@dataclass(init=False, repr=False, eq=False)
class _Func(Expr):
    __slots__ = ("arg",)
    arg: Expr

    def __new__(cls, arg):
        return _intern(cls, (cls, id(arg)), (arg,), (arg,))

    def _rebuild(self, kids, mapping):
        return type(self)(kids[0])


class Sin(_Func):
    __slots__ = ()

    def _derive(self, var, d):
        return mul(Cos(self.arg), d[0])


class Cos(_Func):
    __slots__ = ()

    def _derive(self, var, d):
        return mul(mul(Const(-1.0), Sin(self.arg)), d[0])


class Exp(_Func):
    __slots__ = ()

    def _derive(self, var, d):
        return mul(self, d[0])


# ---------------------------------------------------------------------------
# Compiled evaluation
# ---------------------------------------------------------------------------


class RowError(Exception):
    """A checked batch operation failed; row is the first row it failed on."""

    def __init__(self, what: str, bad):
        super().__init__(what)
        self.row = int(np.flatnonzero(np.atleast_1d(bad))[0])


def _check_rows(bad, what: str):
    if np.any(bad):
        raise RowError(what, bad)


def _np_div(num, den):
    _check_rows(np.equal(den, 0.0), "division by zero")
    return num / den


def _np_pow(base, k: int):
    # A constant base is a plain float; it goes through numpy's pow too:
    # Python's float ** raises where numpy gives inf.
    v = np.float64(base) ** k if np.ndim(base) == 0 else base ** k
    # Also catches 0^-k, which numpy makes inf.
    _check_rows(np.isinf(v) & np.isfinite(base), "power overflow")
    return v


def _np_exp(x):
    v = np.exp(x)
    _check_rows(~np.isfinite(v), "exp overflow")
    return v


# The names the generated code calls.  Add, Sub and Mul are unchecked: an
# overflow there yields inf, which either disappears (1/inf = 0) or makes the
# output non-finite.  sin and cos of an infinite argument need no check
# either: the NaN they give reaches the output, whose finiteness is checked.
_NUMPY_OPS = {"_div": _np_div, "_pow": _np_pow, "_exp": _np_exp,
              "_sin": np.sin, "_cos": np.cos}
_INFIX = {Add: "+", Sub: "-", Mul: "*"}
_CALLS = {Div: "_div", Sin: "_sin", Cos: "_cos", Exp: "_exp"}


def _codegen(chart: Chart, exprs: tuple[Expr, ...]) -> tuple[str, tuple]:
    """Source of ``_fn(x0, ..., x{dim-1}, c0, ...)`` returning one value per
    expression, and the constants c0, ...: the distinct Const leaves and the
    periods, in order of first use.  So expressions that differ only in
    constants give one source.

    Each distinct node gets one temporary, so a subtree shared by several
    expressions, or repeated inside one, is computed once per call.
    """
    lines: list[str] = []
    names: dict[Expr, str] = {}
    consts, values = {}, []  # Const node or period's coordinate -> name

    def param(key, value: float) -> str:
        if key not in consts:
            consts[key] = f"c{len(values)}"
            values.append(value)
        return consts[key]

    for e in _postorder(exprs):
        if isinstance(e, Const):
            names[e] = param(e, e.value)
            continue
        if isinstance(e, Var):
            i = chart.index(e.name)
            per = chart.periods[i]
            if per is None:
                names[e] = f"x{i}"
                continue
            code = f"x{i} % {param(i, float(per))}"
        elif isinstance(e, Pow):
            code = f"_pow({names[e.base]}, {e.exponent})"
        elif type(e) in _INFIX:
            code = f"{names[e.left]} {_INFIX[type(e)]} {names[e.right]}"
        elif isinstance(e, Div):
            code = f"_div({names[e.left]}, {names[e.right]})"
        elif type(e) in _CALLS:
            code = f"{_CALLS[type(e)]}({names[e.arg]})"
        else:
            raise TypeError(f"cannot compile {type(e).__name__}")
        names[e] = f"t{len(lines)}"
        lines.append(f"    {names[e]} = {code}")
    args = [f"x{i}" for i in range(chart.dim)] + list(consts.values())
    return "\n".join([f"def _fn({', '.join(args)}):", *lines,
                      f"    return ({''.join(names[e] + ', ' for e in exprs)})",
                      ""]), tuple(values)


@functools.lru_cache(maxsize=512)
def _kernel(source: str) -> Callable:
    """The generated function of a source, compiled once per source."""
    namespace = dict(_NUMPY_OPS)
    exec(compile(source, "<legfol compiled fields>", "exec"), namespace)
    return namespace["_fn"]


class CompiledExprs:
    """Expressions on one chart, compiled to one generated function.

    ``batch`` evaluates an ``(N, dim)`` point array with numpy ufuncs and
    returns ``(N, len(exprs))``, reducing periodic coordinates modulo their
    period.  It raises EvaluationError naming the first row that fails (also
    as its row), its point and the reason.

    ``columns`` is the bare generated function: one array per coordinate
    in, one array (or float, for a constant) per expression out.  It raises
    RowError where ``batch`` raises EvaluationError, under the caller's
    errstate, and leaves non-finite values for the caller to check.

    ``kernel`` takes the constants (``consts``, which ``columns`` binds as
    defaults) as trailing arguments.  Expressions that differ only in
    constants share it, so one call can evaluate several of them, with
    per-row constant columns.

    ``reads`` lists, in chart order, the indices of the coordinates the
    expressions name.  The generated code never names another coordinate,
    so ``columns`` and ``kernel`` take None for it.
    """

    def __init__(self, chart: Chart, exprs: tuple[Expr, ...]):
        self.chart = chart
        self._outputs = len(exprs)
        names = frozenset().union(*(e.variables() for e in exprs))
        self.reads = tuple(i for i, v in enumerate(chart.var_names)
                           if v in names)
        self.source, self.consts = _codegen(chart, exprs)
        self.kernel = _kernel(self.source)
        self.columns = types.FunctionType(
            self.kernel.__code__, self.kernel.__globals__, "_fn", self.consts)

    def batch(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return np.empty((0, self._outputs))
        if pts.ndim != 2 or pts.shape[1] != self.chart.dim:
            raise ValueError(f"points have shape {pts.shape}, expected "
                             f"(N, {self.chart.dim})")
        try:
            with np.errstate(all="ignore"):
                values = self.columns(*np.ascontiguousarray(pts.T))
        except RowError as exc:
            # exc.row failed the first check that failed anywhere; an earlier
            # row may fail a later check.  Rows are evaluated independently,
            # so a prefix of the rows fails iff one of its rows does: bisect
            # for the shortest failing prefix, then say why its last row
            # fails alone, as the tree walk would.
            lo, hi = 0, exc.row + 1
            with np.errstate(all="ignore"):
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if self._fault(pts[:mid]) is None:
                        lo = mid
                    else:
                        hi = mid
                reason = self._fault(pts[hi - 1:hi])
            row = hi - 1
        else:
            # filled samples last, so batch(points).T is C-contiguous
            out = np.empty((len(values), len(pts)))
            for j, v in enumerate(values):
                out[j] = v
            if np.isfinite(out).all():
                return out.T
            row = int(np.argmax(~np.isfinite(out).all(axis=0)))
            reason = "non-finite value"
        error = EvaluationError(
            f"row {row}, point {pts[row].tolist()}: {reason}")
        error.row = row
        raise error

    def _fault(self, pts: np.ndarray) -> Optional[str]:
        """Why some row of pts fails, or None if every row evaluates to
        finite values; call under np.errstate(all="ignore")."""
        try:
            values = self.columns(*np.ascontiguousarray(pts.T))
        except RowError as err:
            return str(err)
        if not all(np.isfinite(v).all() for v in values):
            return "non-finite value"
        return None


# Rows per batch where a caller has more rows than it must evaluate at once
# (coiso.singular_scan's grid, germ.pencil_values' pencil rows): every
# temporary of a generated function is as long as its batch, so this bounds
# their memory for any number of rows.
SCAN_BLOCK_ROWS = 4096


@functools.lru_cache(maxsize=512)
def compile_exprs(chart: Chart, exprs: tuple[Expr, ...]) -> CompiledExprs:
    """Compile expressions once per (chart, exprs); later calls hit a cache."""
    return CompiledExprs(chart, exprs)


def partials(chart: Chart, exprs: tuple[Expr, ...], points, order: int = 1
             ) -> tuple[np.ndarray, ...]:
    """Expressions and their partials up to order 1 or 2 at N points, from
    one batch, samples last.

    Returns the values (F, N) and the first partials (F, dim, N), J[f, i]
    the partial of exprs[f] in the chart's i-th coordinate; at order 2 also
    the second partials (F, dim, dim, N), H[f, i, j] = d_j d_i exprs[f] for
    i <= j and its mirror H[f, j, i].  The partials come from Expr.diff's
    memo; the batch raises as ``batch`` does.
    """
    names, dim, count = chart.var_names, chart.dim, len(exprs)
    first = tuple(e.diff(v) for e in exprs for v in names)
    upper = [(i, j) for i in range(dim) for j in range(i, dim)
             ] if order == 2 else []
    out = compile_exprs(chart, exprs + first + tuple(
        first[f * dim + i].diff(names[j])
        for f in range(count) for i, j in upper)).batch(points).T
    vals = out[:count]
    J = out[count:count * (dim + 1)].reshape(count, dim, -1)
    if order == 1:
        return vals, J
    at = np.empty((dim, dim), dtype=int)  # the row of d_j d_i in out
    for row, (i, j) in enumerate(upper, count * (dim + 1)):
        at[i, j] = at[j, i] = row
    return vals, J, out[at + len(upper) * np.arange(count)[:, None, None]]


def max_abs(values: np.ndarray, axis=None):
    """Largest |value| (0 for none), over all entries or along an axis."""
    return np.max(np.abs(values), axis=axis, initial=0.0)


# ---------------------------------------------------------------------------
# Fields, vector fields, maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExprField:
    """A scalar field on a chart, backed by an expression tree."""

    chart: Chart
    expr: Expr

    def __post_init__(self):
        self.chart.require(self.expr)

    def diff(self, var: str) -> "ExprField":
        self.chart.index(var)  # raises UnknownVariable
        return ExprField(self.chart, self.expr.diff(var))

    def compile(self) -> Callable[[np.ndarray], np.ndarray]:
        """Batched evaluator from (N, dim) points to (N,) values (cached)."""
        batch = compile_exprs(self.chart, (self.expr,)).batch
        return lambda points: batch(points)[:, 0]

    def on_chart(self, chart: Chart) -> "ExprField":
        """Recharter the same expression onto a chart containing its variables."""
        return ExprField(chart, self.expr)


def constant(chart: Chart, value: float) -> ExprField:
    return ExprField(chart, Const(float(value)))


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


def as_field(chart: Chart, c: ExprField | Expr | float) -> ExprField:
    """A field on chart: a field rechartered, an expression or a number."""
    if isinstance(c, ExprField):
        return c.on_chart(chart)
    return ExprField(chart, _coerce(c))


def as_expr(chart: Chart, c: ExprField | Expr | float) -> Expr:
    """The expression of a field on chart, an expression or a number, its
    names checked against chart once: a field on another chart raises
    ChartMismatch, a name outside chart UnknownVariable."""
    if isinstance(c, ExprField):
        if c.chart != chart:
            raise ChartMismatch("coefficient on wrong chart")
        return c.expr  # checked when the field was built
    c = _coerce(c)
    chart.require(c)
    return c


def vector_field(chart: Chart, components: Sequence[ExprField | Expr | float]
                 ) -> VectorFieldExpr:
    return VectorFieldExpr(chart, tuple(as_field(chart, c)
                                        for c in components))


def brackets(V: np.ndarray, JV: np.ndarray) -> np.ndarray:
    """Brackets of m vector fields at N points, samples last, from their
    values V (m, dim, N) and Jacobians JV (m, dim, dim, N), JV[a, i, j] the
    partial of component i of field a in coordinate j.

    [V_a, V_b] = J_b V_a - J_a V_b for each pair a < b, in the order of
    itertools.combinations: (m (m - 1) / 2, dim, N).
    """
    a, b = np.array([*itertools.combinations(range(len(V)), 2)],
                    dtype=int).reshape(-1, 2).T
    return np.einsum("pijn,pjn->pin", JV[b], V[a]) \
        - np.einsum("pijn,pjn->pin", JV[a], V[b])


# ---------------------------------------------------------------------------
# Expression parser (the grammar consumed by scenario files)
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


_FUNCS = {"sin": Sin, "cos": Cos, "exp": Exp}
# Parentheses and function calls nest at most this deep, well inside the
# interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive-descent parser for infix arithmetic with sin/cos/exp."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

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
        """Leading signs, in a loop however many there are, then a power."""
        minus = 0
        while self._peek() in ("-", "+"):
            minus += self.text[self.pos] == "-"
            self.pos += 1
        e = self._power()
        for _ in range(minus):
            e = mul(Const(-1.0), e)
        return e

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
            return self._enclosed()
        if c.isdigit() or c == ".":
            return self._number()
        if c.isalpha() or c == "_":
            return self._ident()
        raise ParseError(f"unexpected {c!r}", self.pos)

    def _enclosed(self) -> Expr:
        """The expression after an opening '(', and its ')'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels",
                             self.pos)
        e = self._expr()
        if self._peek() != ")":
            raise ParseError("expected ')'", self.pos)
        self.pos += 1
        self.depth -= 1
        return e

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
        text = self.text[start:self.pos]
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"bad number {text!r}", start) from None
        if not math.isfinite(value):  # an overflow such as 1e400
            raise ParseError(
                f"expected a finite number, got {text!r}", start)
        return Const(value)

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
            return _FUNCS[name](self._enclosed())
        return Var(name)


def parse_expr(text: str) -> Expr:
    """Parse an infix expression; raises ParseError with a column number.
    A text is parsed once while its node is alive; a malformed one raises
    on every call."""
    node = _PARSED.get(text)
    if node is None:
        node = _PARSED[text] = _Parser(text).parse()
    return node


def parse_field(chart: Chart, text: str) -> ExprField:
    expr = parse_expr(text)
    return ExprField(chart, expr)  # validates variables against the chart
