"""Germ constructors: the volume identity for the nonsingular build, the
zero-section restrictions, contactness scans, and the interpolation gate."""

import dataclasses

import pytest

from legfol import bundle as bd
from legfol import forms as fm
from legfol import germ as gm
from legfol.fields import constant, coordinate, parse_field, vector_field
from legfol.runner import run_scenario
from legfol.scenario import parse_scenario


def make_input(n, f_text, r_texts=None):
    ch = gm.foliated_chart(n)
    comps = [constant(ch, 1.0)]
    r_texts = r_texts or ["0"] * n
    for r in r_texts:
        comps.append(parse_field(ch, r))
    return gm.FoliatedInput(
        n=n, beta=fm.one_form(ch, {"t": parse_field(ch, f_text)}),
        line_field=vector_field(ch, comps))


def area_form(fiber):
    return fm.one_form(fiber, {"u": -coordinate(fiber, "v"),
                               "v": coordinate(fiber, "u")})


def singular_pair(rate0=0.7, rate1=2.1):
    out = []
    for rate in (rate0, rate1):
        b = bd.rotation_bundle([rate])
        out.append(gm.build_singular_germ(b, area_form(b.fiber_chart)))
    return out


class TestNonsingular:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_volume_identity(self, n, rng, monkeypatch):
        builds = []
        top_form = gm.top_form
        monkeypatch.setattr(gm, "top_form",
                            lambda *a: builds.append(a) or top_form(*a))
        inp = make_input(n, "2 + sin(x1)",
                         ["x1 * x%d" % n] + ["0"] * (n - 1))
        g = gm.build_nonsingular_germ(inp)
        pts = gm.scan_points(g, rng, 60)
        f = parse_field(gm.foliated_chart(n), "2 + sin(x1)")
        assert gm.volume_identity_residual(g, f, pts) <= 1e-10
        assert gm.contactness_scan(g, pts)["passed"]
        assert len(builds) == 1  # the top form is built once per germ

    def test_zero_section_restriction(self, rng):
        inp = make_input(2, "2 + sin(x1)", ["x2", "0"])
        g = gm.build_nonsingular_germ(inp)
        base = g.restricted.chart
        expected = fm.one_form(base, {"t": parse_field(base, "2 + sin(x1)")})
        pts = rng.uniform(-0.9, 0.9, (20, base.dim))
        res = gm.zero_section_foliation_check(g, expected, pts)
        assert res["passed"]
        assert res["max_residual"] <= 1e-12

    def test_negative_transversality_refused(self):
        ch = gm.foliated_chart(2)
        inp = gm.FoliatedInput(
            n=2, beta=fm.one_form(ch, {"t": parse_field(ch, "1")}),
            line_field=vector_field(ch, [-1.0, 0.0, 0.0]))
        with pytest.raises(gm.GermBuildError, match="positively transverse"):
            gm.build_nonsingular_germ(inp)

    def test_leafwise_component_refused(self):
        ch = gm.foliated_chart(2)
        beta = fm.one_form(ch, {"t": parse_field(ch, "1"),
                                "x1": parse_field(ch, "x2")})
        inp = gm.FoliatedInput(n=2, beta=beta,
                               line_field=vector_field(ch, [1.0, 0.0, 0.0]))
        with pytest.raises(gm.GermBuildError):
            gm.build_nonsingular_germ(inp)

    def test_frobenius_residual_detects_twist(self, rng):
        ch = gm.foliated_chart(2)
        twisted = fm.one_form(ch, {"t": parse_field(ch, "1"),
                                   "x2": parse_field(ch, "x1")})
        pts = rng.uniform(-1, 1, (10, 3))
        assert gm.frobenius_residual(twisted, pts) > 0.5


class TestSingular:
    def test_build_and_scan(self, rng):
        g, _ = singular_pair()
        pts = gm.scan_points(g, rng, 60)
        scan = gm.contactness_scan(g, pts)
        assert scan["passed"]
        assert scan["sign_consistent"]

    def test_zero_section_is_fiber_form(self, rng):
        g, _ = singular_pair()
        base = g.restricted.chart
        expected = fm.one_form(base, {"u": -coordinate(base, "v"),
                                      "v": coordinate(base, "u")})
        pts = rng.uniform(-0.9, 0.9, (20, base.dim))
        res = gm.zero_section_foliation_check(g, expected, pts)
        assert res["passed"]

    def test_inadmissible_form_refused(self):
        b = bd.rotation_bundle([0.7])
        bad = fm.one_form(b.fiber_chart, {"u": 1.0})
        with pytest.raises(gm.GermBuildError, match="CCL"):
            gm.build_singular_germ(b, bad)

    def test_noninvariant_extension_refused(self):
        # translation holonomy would need a different extension formula
        from legfol.fields import Chart
        total = Chart(("s1", "u", "v"), (1.0, None, None))
        eps = constant(total, 0.05)
        zero = constant(total, 0.0)
        b = bd.FlatDiskBundle(1, (1.0,), 1.0, (eps,), (zero,))
        fiber = b.fiber_chart
        u, v = coordinate(fiber, "u"), coordinate(fiber, "v")
        beta = fm.one_form(fiber, {"u": -v, "v": u})
        with pytest.raises(gm.GermBuildError):
            gm.build_singular_germ(b, beta)


FULL_TURN = """scenario full-turn

bundle full
  type = rotation
  rates = 6.283185307179586
end

form cubic
  on = fiber full
  u = -v * (1 + u^2)
  v = u * (1 + v^2)
end

germ first
  type = singular
  bundle = full
  form = cubic
end

germ flipped
  type = singular
  bundle = full
  form = cubic
  orientation = -1
end

check first-contact
  kind = contact-scan
  target = first
  samples = 5
  expect = refuse
end

check flipped-contact
  kind = contact-scan
  target = flipped
  samples = 5
  expect = refuse
end
"""


class TestSingularMemo:
    """A singular germ is built once per bundle and form object; a
    refused build is not memoized, so it refuses every germ on the pair."""

    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []
        real = fm.lie_derivative
        monkeypatch.setattr(fm, "lie_derivative", lambda *a: calls.append(a)
                            or real(*a))
        return calls

    def test_second_build_is_the_first(self, probes):
        b = bd.rotation_bundle([0.7, 1.1])
        beta = area_form(b.fiber_chart)
        g = gm.build_singular_germ(b, beta)
        assert len(probes) == 2  # one invariance probe per lift
        assert gm.build_singular_germ(b, beta) is g and len(probes) == 2
        gm.build_singular_germ(b, area_form(b.fiber_chart))  # another object
        gm.build_singular_germ(bd.rotation_bundle([0.7, 1.1]), beta)
        assert len(probes) == 6

    def test_refusal_reaches_every_germ_on_the_pair(self, probes):
        sc = parse_scenario(FULL_TURN)
        report = run_scenario(sc)
        assert report["passed"]
        for entry in report["checks"]:
            assert entry["detail"] == {"passed": False, "refused": True}
            assert entry["error"].startswith(
                "GermBuildError: no closed-form invariant extension")
        assert len(probes) == 2  # each build probed again


class TestInterpolation:
    def test_matched_pencil_passes(self, rng):
        g0, g1 = singular_pair()
        base = g0.restricted.chart
        expected = fm.one_form(base, {"u": -coordinate(base, "v"),
                                      "v": coordinate(base, "u")})
        pts = gm.scan_points(g0, rng, 40)
        res = gm.interpolation_contactness(g0, g1, expected, pts)
        assert not res["refused"]
        assert res["passed"]

    def test_flipped_orientation_refused(self, rng):
        g0, g1 = singular_pair()
        flipped = dataclasses.replace(g1, orientation=-1)
        base = g0.restricted.chart
        expected = fm.one_form(base, {"u": -coordinate(base, "v"),
                                      "v": coordinate(base, "u")})
        pts = gm.scan_points(g0, rng, 40)
        res = gm.interpolation_contactness(g0, flipped, expected, pts)
        assert res["refused"]
        assert "orientation" in res["reason"]

    def test_disagreeing_sections_refused(self, rng):
        g0, _ = singular_pair()
        b = bd.rotation_bundle([0.7])
        doubled = fm.one_form(b.fiber_chart,
                              {"u": parse_field(b.fiber_chart, "-2*v"),
                               "v": parse_field(b.fiber_chart, "2*u")})
        g2 = gm.build_singular_germ(b, doubled)
        base = g0.restricted.chart
        expected = fm.one_form(base, {"u": -coordinate(base, "v"),
                                      "v": coordinate(base, "u")})
        pts = gm.scan_points(g0, rng, 40)
        res = gm.interpolation_contactness(g0, g2, expected, pts)
        assert res["refused"]
        assert "zero-section" in res["reason"]
