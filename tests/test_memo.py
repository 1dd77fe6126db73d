"""Memoized symbolic derivations: a repeated run derives nothing again and
does the same numeric work, and every memo keeps its contract (errors raise
again, returned mappings are read-only, sizes stay bounded)."""

import gc

import pytest

from legfol import bundle as bd
from legfol import coiso as co
from legfol import fields
from legfol import forms as fm
from legfol import germ as gm
from legfol import runner
from legfol.fields import (
    Chart,
    CompiledExprs,
    Const,
    ParseError,
    Sin,
    UnknownVariable,
    Var,
    parse_expr,
    parse_field,
)
from legfol.scenario import parse_scenario

from test_batched import benchmark_workloads

XY = Chart(("x", "y"))


def mul_y(c: float):
    """c * y, a distinct node per c."""
    return fields.mul(Const(c), Var("y"))


def benchmark_scenarios() -> dict[str, str]:
    """Every benchmark scenario at seed 11, which no other test runs, by
    workload and index."""
    workloads = benchmark_workloads()
    return {f"{w}-{i}": text for w in workloads.WORKLOADS
            for i, text in enumerate(workloads.generate(w, 11))}


@pytest.fixture
def counted(monkeypatch):
    """Counters around the numeric and symbolic work of a run:
    CompiledExprs.batch calls, rows swept by bundle._sweep and Pfaffian
    expansions; "parsed" lists the texts the parser runs on."""
    counts = {"batch": 0, "rows": 0, "pfaffian": 0, "parsed": []}

    def count(owner, attr, kind, rows=None):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[kind] += 1 if rows is None else rows(*args)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    count(CompiledExprs, "batch", "batch")
    count(bd, "_sweep", "rows",
          lambda parts: sum(len(starts) for *_, starts in parts))
    count(fm, "_pfaffian", "pfaffian")
    parse = fields._Parser.parse
    monkeypatch.setattr(fields._Parser, "parse", lambda self: counts[
        "parsed"].append(self.text) or parse(self))
    return counts


def unread_texts(sc) -> set[str]:
    """The field texts of the forms that no block names.  No memo of a run
    holds their nodes, and the parse memo holds them weakly, so a run may
    parse them again."""
    named = {value for b in sc.blocks for _, value in b.items()}
    return {value for b in sc.blocks if b.kind == "form"
            and b.name not in named for key, value in b.items()
            if key != "on"}


class TestRepeatedRuns:
    @pytest.mark.parametrize("text", benchmark_scenarios().values(),
                             ids=benchmark_scenarios().keys())
    def test_second_run_derives_nothing(self, text, counted):
        # start from empty memos, so that the first run derives everything
        fields._PARSED.clear()
        fm.d_coeffs.cache_clear()
        fm.top_coeff.cache_clear()
        gm._pencil.cache_clear()
        sc = parse_scenario(text)
        reports, runs = [], []
        for scenario in (sc, sc, parse_scenario(text)):
            before = {k: v for k, v in counted.items() if k != "parsed"}
            del counted["parsed"][:]
            report = runner.run_scenario(scenario, seed=11)
            report.pop("wall_time")
            reports.append(report)
            runs.append({k: counted[k] - v for k, v in before.items()})
            runs[-1]["parsed"] = set(counted["parsed"])
        assert reports[1] == reports[0] and reports[2] == reports[0]
        # the same numeric work on every run
        assert runs[0]["batch"] > 0
        for key in ("batch", "rows"):
            assert runs[1][key] == runs[2][key] == runs[0][key]
        # and no symbolic derivation after the first, but for the texts
        # that nothing reads
        germs = any(line.startswith("germ ") for line in text.splitlines())
        assert (runs[0]["pfaffian"] > 0) == germs
        assert runs[0]["parsed"] > unread_texts(sc)
        for run in runs[1:]:
            assert run["pfaffian"] == 0
            assert run["parsed"] <= unread_texts(sc)

    TWO_GRAPHS = """\
graph one
  n = 2
  k = 3
  z = x2 * y2
end

graph two
  n = 3
  k = 5
  free_y = 2 3
end

check flat
  kind = residuals
  target = one
  samples = 5
end
"""

    def test_one_graph_per_declaration(self, monkeypatch):
        built = []
        real = co.graph_submanifold
        monkeypatch.setattr(co, "graph_submanifold",
                            lambda *a, **kw: built.append(a) or real(*a, **kw))
        assert runner.run_scenario(parse_scenario(self.TWO_GRAPHS))["passed"]
        assert [a[:2] for a in built] == [(2, 3), (3, 5)]

    def test_one_source_chart_per_declaration(self, monkeypatch):
        built = []
        real = co.graph_chart
        monkeypatch.setattr(co, "graph_chart",
                            lambda *a: built.append(a) or real(*a))
        assert runner.run_scenario(parse_scenario(self.TWO_GRAPHS))["passed"]
        assert built == [(2, 3, None), (3, 5, (2, 3))]

    def test_lifts_built_once_per_bundle(self, monkeypatch, rng):
        built = []
        real = bd.FlatDiskBundle.lift
        monkeypatch.setattr(bd.FlatDiskBundle, "lift",
                            lambda self, j: built.append(j) or real(self, j))
        b = bd.rotation_bundle([0.7, 1.3])
        fiber = b.fiber_chart
        area = fm.one_form(fiber, {"u": parse_field(fiber, "-v"),
                                   "v": parse_field(fiber, "u")})
        pts = rng.uniform(-0.5, 0.5, (5, b.total_chart.dim))
        for _ in range(3):
            bd.flatness_check(b, pts)
        gm.build_singular_germ(b, area)
        assert built == [0, 1]


class TestParseMemo:
    def test_a_text_is_parsed_once_while_alive(self, monkeypatch):
        calls = []
        real = fields._Parser.parse
        monkeypatch.setattr(fields._Parser, "parse",
                            lambda self: calls.append(self.text) or real(self))
        text = "sin(x * y) - 0.8125 * x"
        first = parse_expr(text)
        assert parse_expr(text) is first and calls == [text]
        del first
        gc.collect()
        assert text not in fields._PARSED
        parse_expr(text)
        assert calls == [text, text]

    def test_malformed_text_raises_on_every_call(self):
        errors = []
        for _ in range(3):
            with pytest.raises(ParseError) as exc:
                parse_expr("x + * y")
            errors.append((str(exc.value), exc.value.pos))
        assert errors == [("unexpected '*' (column 5)", 4)] * 3
        assert "x + * y" not in fields._PARSED

    def test_unknown_variable_raises_on_every_call(self):
        assert parse_field(Chart(("x", "y", "w")), "x + w").expr \
            is parse_expr("x + w")
        for _ in range(2):
            with pytest.raises(UnknownVariable):
                parse_field(XY, "x + w")


class TestDerivationMemos:
    def test_d_coeffs_is_read_only(self):
        d = fm.d_coeffs((Var("y"), Const(0.0)), ("x", "y"))
        assert dict(d) == {(0, 1): Const(-1.0)}
        with pytest.raises(TypeError):
            d[0, 1] = Const(1.0)
        assert fm.d_coeffs((Var("y"), Const(0.0)), ("x", "y")) is d

    def test_top_coeff_is_one_expression(self, monkeypatch):
        calls = []
        real = fm._pfaffian
        monkeypatch.setattr(fm, "_pfaffian",
                            lambda *a: calls.append(a) or real(*a))
        # a form no other test builds, so its memo starts empty
        coeffs = (Const(1.0), mul_y(0.4375), Const(0.0))
        names = ("z", "x", "y")
        top = fm.top_coeff(coeffs, names)
        assert fm.top_coeff(coeffs, names) is top and len(calls) == 1

    @pytest.mark.parametrize("memo, key", [
        (fm.d_coeffs, lambda i: ((mul_y(i), Var("x")), ("x", "y"))),
        (fm.top_coeff, lambda i: ((Const(1.0), mul_y(i), Const(0.0)),
                                  ("z", "x", "y"))),
        (co._lambda_coeffs, lambda i: (("x1", "y1"), (
            Var("x1"), Var("y1"), mul_y(i)))),
    ], ids=["d_coeffs", "top_coeff", "lambda_coeffs"])
    def test_lru_memos_are_bounded(self, memo, key):
        size = memo.cache_info().maxsize
        assert size == fm.DERIVATION_MEMO
        for i in range(size + 10):
            memo(*key(i + 0.5))
        info = memo.cache_info()
        assert info.currsize <= info.maxsize

    def test_subs_is_memoized_on_the_node(self, monkeypatch):
        calls = []
        real = Sin._rebuild
        monkeypatch.setattr(Sin, "_rebuild", lambda self, kids, mapping:
                            calls.append(self) or real(self, kids, mapping))
        e = parse_expr("sin(x * y - 0.6875) + y")
        got = e.subs({"y": Const(0.0)})
        assert got is parse_expr("sin(x * 0 - 0.6875)")
        assert e.subs({"y": Const(0.0)}) is got and len(calls) == 1
        assert e.subs({"y": Const(1.0)}) is parse_expr(
            "sin(x * 1 - 0.6875) + 1")
        assert len(calls) == 2

    def test_scan_reads_an_overridden_form(self):
        # the scan's memo is keyed by the form's coefficients, not by the
        # graph: a graph whose lambda_form is replaced scans the new form
        Y = co.legendrian_model(2)
        src = Y.source_chart
        assert co.singular_scan(Y, step=0.25).num_hits == 9 * 9
        Y.__dict__["lambda_form"] = fm.one_form(
            src, {"x1": parse_field(src, "x1 - 0.5"), "y1": 1.0})
        assert co.singular_scan(Y, step=0.25).num_hits == 0


def test_graph_chart_is_the_graphs():
    free, src = co.graph_chart(3, 5)
    Y = co.graph_submanifold(3, 5)
    assert (free, src) == (Y.free_y, Y.source_chart) == (
        (2, 3), Chart(("x1", "x2", "x3", "y2", "y3")))
    assert co.graph_chart(2, 3, [1])[1].var_names == ("x1", "x2", "y1")
    with pytest.raises(ValueError, match="outside"):
        co.graph_chart(2, 5)
    # a repeated index is refused as such, not as a repeated chart name
    with pytest.raises(ValueError, match="distinct indices"):
        co.graph_chart(3, 5, (2, 2))
