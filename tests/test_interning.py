"""Interned expression nodes: equal subtrees are one object, the intern key
keeps what evaluation can tell apart, the table lets dead nodes go, every
walk is a loop, and symbolic size follows distinct nodes up to n = 7."""

import dataclasses
import gc
import math

import pytest

from legfol import fields
from legfol import forms as fm
from legfol import germ as gm
from legfol.fields import (
    Add,
    Chart,
    Const,
    ExprField,
    Sin,
    Var,
    add,
    compile_exprs,
    constant,
    mul,
    parse_expr,
    parse_field,
    vector_field,
)
from legfol.runner import run_scenario
from legfol.scenario import parse_scenario

XY = Chart(("x", "y"))


# A nonsingular germ whose line field couples every x_i to t and to the
# next x.
DENSE_F = "2 + sin(x1) * cos(t)"


def dense_r(n: int) -> list[str]:
    return [f"x{i % n + 1} * t + sin(x{i})" for i in range(1, n + 1)]


def dense_germ_text(n: int) -> str:
    rs = "".join(f"  r{i} = {r}\n" for i, r in enumerate(dense_r(n), 1))
    return f"""scenario dense-{n}

germ dense
  type = nonsingular
  n = {n}
  f = {DENSE_F}
{rs}end

check volume
  kind = germ-volume
  target = dense
  f = {DENSE_F}
  tol = 1e-10
  samples = 150
end

check contact
  kind = contact-scan
  target = dense
  tol = 1e-10
  samples = 150
end
"""


def node_counts(expr):
    """Tree nodes (a shared subtree counted at each use), distinct node
    objects, and distinct structures."""
    size, shape = {}, {}
    stack = [expr]
    while stack:
        e = stack[-1]
        kids = [getattr(e, f.name) for f in dataclasses.fields(e)]
        todo = [k for k in kids if isinstance(k, fields.Expr)
                and k not in size]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        size[e] = 1 + sum(size[k] for k in kids if k in size)
        shape[e] = (type(e).__name__,) + tuple(
            shape[k] if k in shape else k for k in kids)
    return size[expr], len(size), len(set(shape.values()))


class TestInterning:
    def test_equal_structure_is_one_object(self):
        text = "sin(x*y) + sin(x*y)^2 / (1 + exp(y))"
        assert parse_expr(text) is parse_expr(text)
        assert Add(Var("x"), Const(2)) is Add(Var("x"), Const(2.0))
        assert parse_expr("x * y") is not parse_expr("y * x")

    def test_sign_of_zero_is_kept(self):
        assert Const(0.0) is not Const(-0.0)
        assert math.copysign(1.0, Const(-0.0).value) == -1.0
        assert mul(Const(-1.0), Const(0.0)) is Const(-0.0)

    def test_nan_is_never_shared(self):
        nan = float("nan")
        assert Const(nan) is not Const(nan)

    def test_compile_cache_keeps_the_sign_of_zero(self):
        neg = compile_exprs(XY, (Const(-0.0),)).scalar(1.0, 2.0)
        pos = compile_exprs(XY, (Const(0.0),)).scalar(1.0, 2.0)
        assert [math.copysign(1.0, v) for v in neg + pos] == [-1.0, 1.0]

    def test_dead_nodes_leave_the_table(self):
        gc.collect()
        before = len(fields._TABLE)
        e = parse_expr("exp(x * y + 17.25) / (3.5 + sin(y))")
        d = e.diff("x").diff("y")
        assert len(fields._TABLE) > before
        del e, d
        gc.collect()  # exp's derivative memo holds exp: a cycle
        assert len(fields._TABLE) == before
        add(Var("x"), Const(0.125))  # dies at once
        assert len(fields._TABLE) == before

    def test_derivatives_are_memoized(self, monkeypatch):
        calls = []
        real = Sin._derive
        monkeypatch.setattr(Sin, "_derive", lambda self, var, d: calls.append(
            var) or real(self, var, d))
        # a sin node no other test builds, so its memo starts empty
        e = parse_expr("sin(x * y - 0.375) * x")
        first = e.diff("x")
        assert calls == ["x"]
        assert parse_expr("sin(x * y - 0.375) * x").diff("x") is first
        parse_expr("sin(x * y - 0.375) + y").diff("x")  # the same sin node
        parse_expr("sin(x * y - 0.375) + y").diff("y")
        assert calls == ["x", "y"]

    def test_subs_rebuilds_through_the_folds(self):
        e = parse_expr("x * y + sin(x) * sin(x)")
        got = e.subs({"x": Const(0.0), "y": parse_expr("y + 1")})
        assert got is parse_expr("sin(0) * sin(0)")

    def test_deep_chains_walk_without_recursion(self):
        depth = 10_000
        e = Var("x")
        for i in range(depth):
            e = add(mul(e, Var("y")), Const(float(i + 1)))
        assert e.variables() == {"x", "y"}
        dx = e.diff("x")
        assert dx.variables() == {"y"}
        swapped = e.subs({"x": Var("y")})
        assert swapped.variables() == {"y"}
        ch = Chart(("x", "y"))
        assert compile_exprs(ch, (dx,)).scalar(0.5, 1.0) == (1.0,)
        assert ExprField(ch, swapped).eval([0.0, 0.0]) \
            == pytest.approx(depth)


# (n, tree nodes, distinct nodes) of the top-form coefficient of the dense
# germ: the tree grows about 7-fold a dimension, the distinct nodes 2-fold.
TOP_FORM_NODES = [
    (2, 77, 34),
    (3, 213, 62),
    (4, 769, 113),
    (5, 3_679, 224),
    (6, 21_789, 455),
    (7, 152_105, 939),
]


class TestHighDimension:
    @pytest.mark.parametrize("n, tree, distinct", TOP_FORM_NODES)
    def test_top_form_node_counts(self, n, tree, distinct):
        ch = gm.foliated_chart(n)
        g = gm.build_nonsingular_germ(gm.FoliatedInput(
            n=n, beta=fm.one_form(ch, {"t": parse_field(ch, DENSE_F)}),
            line_field=vector_field(ch, [constant(ch, 1.0)] + [
                parse_field(ch, r) for r in dense_r(n)])))
        (coeff,) = gm.top_form(g.alpha, n).coeffs.values()
        # one object per distinct structure
        assert node_counts(coeff.expr) == (tree, distinct, distinct)

    def test_dense_germ_at_n7_passes(self):
        report = run_scenario(parse_scenario(dense_germ_text(7)))
        assert [(c["name"], c["ok"], c["detail"]["passed"], "error" in c)
                for c in report["checks"]] \
            == [("volume", True, True, False), ("contact", True, True, False)]

