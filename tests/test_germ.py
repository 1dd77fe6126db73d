"""Germ constructors: the volume identity for the nonsingular build, the
zero-section restrictions, contactness scans, and the interpolation gate."""

import dataclasses
import functools
import math

import numpy as np
import pytest

from legfol import bundle as bd
from legfol import forms as fm
from legfol import germ as gm
from legfol.fields import (
    Chart,
    CompiledExprs,
    ExprField,
    Sin,
    Var,
    add,
    constant,
    coordinate,
    mul,
    parse_field,
    vector_field,
)
from legfol.runner import run_scenario
from legfol.scenario import parse_scenario

from oracles import top_form


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
        top_coeff = fm.top_coeff
        monkeypatch.setattr(fm, "top_coeff",
                            lambda *a: builds.append(a) or top_coeff(*a))
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

    def test_one_jet_per_build(self, monkeypatch):
        # validate reads beta and d beta from one forms.jet at the 25
        # seeded points; the line field is the other batch
        calls = []
        real = CompiledExprs.batch
        monkeypatch.setattr(CompiledExprs, "batch", lambda self, pts: (
            calls.append(len(pts)) or real(self, pts)))
        gm.build_nonsingular_germ(make_input(2, "2 + sin(x1)", ["x2", "0"]))
        assert calls == [25, 25]

    def test_frobenius_residual_detects_twist(self, rng):
        ch = gm.foliated_chart(2)
        twisted = fm.one_form(ch, {"t": parse_field(ch, "1"),
                                   "x2": parse_field(ch, "x1")})
        pts = rng.uniform(-1, 1, (10, 3))
        b, W = fm.jet(twisted, pts)
        assert np.max(np.abs(fm.frobenius(b.T, W.transpose(1, 2, 0)))) > 0.5


class TestShape:
    """A germ is a 1-form on 2n + 1 coordinates with n >= 1."""

    def custom(self, n, names, degree=1):
        ch = Chart(names)
        alpha = fm.DiffForm(ch, degree, {
            tuple(range(degree)): constant(ch, 1.0)})
        return gm.GermForm(n=n, alpha=alpha, zero_section_vars=(names[-1],),
                           kind="custom")

    def test_chart_too_large(self):
        # n = 1 on four coordinates: alpha ^ d alpha is a 3-form with four
        # coefficients, not a top form
        with pytest.raises(ValueError, match="2n [+] 1"):
            self.custom(1, ("t", "x1", "y1", "w"))

    @pytest.mark.parametrize("n, names", [
        (2, ("t", "x1", "y1")), (1, ("t", "x1")), (0, ("t",))])
    def test_chart_too_small(self, n, names):
        with pytest.raises(ValueError, match="2n [+] 1"):
            self.custom(n, names)

    def test_not_a_one_form(self):
        with pytest.raises(ValueError, match="2-form"):
            self.custom(1, ("t", "x1", "y1"), degree=2)

    def test_right_shape_scans(self, rng):
        g = self.custom(1, ("t", "x1", "y1"))  # alpha = dt, d alpha = 0
        assert not gm.contactness_scan(g, rng.uniform(-1, 1, (5, 3)))[
            "passed"]


def dense_custom(n, rng):
    """A custom germ whose coefficients read every coordinate and whose d
    has no zero entry: a_i = c_i + sum_k C_ik x_k + e_i sin(x_i x_(i+1))."""
    ch = gm.germ_chart(n)
    xs = [Var(v) for v in ch.var_names]
    C = rng.uniform(-1, 1, (ch.dim, ch.dim + 2))
    coeffs = {}
    for i, v in enumerate(ch.var_names):
        acc = constant(ch, C[i, -2]).expr
        for k, x in enumerate(xs):
            acc = add(acc, mul(constant(ch, C[i, k]).expr, x))
        acc = add(acc, mul(constant(ch, C[i, -1]).expr,
                           Sin(mul(xs[i], xs[(i + 1) % ch.dim]))))
        coeffs[v] = ExprField(ch, acc)
    return gm.GermForm(n=n, alpha=fm.one_form(ch, coeffs),
                       zero_section_vars=tuple(f"y{i}"
                                               for i in range(1, n + 1)),
                       kind="custom")


def largest_term(g, points):
    """n! times the largest |product| over the perfect matchings of the
    bordered matrix B = [[0, a], [-a^T, W]]: the size of the largest term
    of n! Pf(B), with a and W from forms.jet."""
    a, W = fm.jet(g.alpha, points)
    m = g.chart.dim + 1
    B = np.zeros((len(points), m, m))
    B[:, 0, 1:], B[:, 1:, 1:] = a, W
    B = np.abs(B)

    @functools.cache
    def biggest(rows):
        if not rows:
            return np.ones(len(points))
        rest = rows[1:]
        return np.max([B[:, rows[0], j] * biggest(rest[:p] + rest[p + 1:])
                       for p, j in enumerate(rest)], axis=0)
    return math.factorial(g.n) * biggest(tuple(range(m)))


class TestPfaffian:
    """GermForm.top, n! Pf(B), against the wedge powers of the oracle."""

    def compare(self, g, rng):
        pts = gm.scan_points(g, rng, 30)
        got = g.top.compile()(pts)
        want = top_form(g.alpha, g.n).coeff_array(pts)[:, 0]
        return got, want, pts

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_dense_custom(self, n, rng):
        g = dense_custom(n, rng)
        got, want, pts = self.compare(g, rng)
        assert np.all(np.abs(got - want) <= 1e-12 * largest_term(g, pts))
        assert np.min(np.abs(want)) > 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_nonsingular(self, n, rng):
        g = gm.build_nonsingular_germ(make_input(
            n, "2 + sin(x1) * cos(t)",
            [f"x{i % n + 1} * t + sin(x{i})" for i in range(1, n + 1)]))
        got, want, pts = self.compare(g, rng)
        assert np.all(np.abs(got - want) <= 1e-12 * largest_term(g, pts))

    @pytest.mark.parametrize("rates", [(0.7,), (0.7, 1.3), (0.7, 1.3, 0.4),
                                       (0.7, 1.3, 0.4, 2.2)])
    @pytest.mark.parametrize("radial", ["1", "1 + u^2 + v^2"])
    def test_singular(self, rates, radial, rng):
        b = bd.rotation_bundle(list(rates))
        g = gm.build_singular_germ(b, fm.one_form(b.fiber_chart, {
            "u": parse_field(b.fiber_chart, f"-v * ({radial})"),
            "v": parse_field(b.fiber_chart, f"u * ({radial})")}))
        got, want, pts = self.compare(g, rng)
        if radial == "1":  # the area form: integer arithmetic, both exact
            assert np.array_equal(got, want)
            assert set(np.abs(got)) == {math.factorial(g.n) * 2.0}
        assert np.all(np.abs(got - want) <= 1e-12 * largest_term(g, pts))


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

    def test_one_probe_batch(self, monkeypatch):
        # beta and both lifts of a torus, with their partials, in one batch
        # at the 10 probe points; the CCL report is read from its memo
        b = bd.rotation_bundle([0.9, 1.7])
        beta = area_form(b.fiber_chart)
        bd.ccl_check(b, beta)
        calls = []
        real = CompiledExprs.batch
        monkeypatch.setattr(CompiledExprs, "batch", lambda self, pts: (
            calls.append(len(pts)) or real(self, pts)))
        gm.build_singular_germ(b, beta)
        assert calls == [10]


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


SHARED_PAIR = """scenario shared-pair

bundle torus
  type = rotation
  rates = 0.7 1.1
end

form area
  on = fiber torus
  u = -v
  v = u
end

form same-area
  on = fiber torus
  u = -v
  v = u
end

germ first
  type = singular
  bundle = torus
  form = area
end

germ flipped
  type = singular
  bundle = torus
  form = area
  orientation = -1
end

germ other
  type = singular
  bundle = torus
  form = same-area
end
""" + "".join(f"""
check {name}-contact
  kind = contact-scan
  target = {name}
  samples = 5
end
""" for name in ("first", "flipped", "other"))


class TestSingularMemo:
    """A run builds a singular germ once per (bundle, form) pair of blocks;
    a refused build is not kept, so it refuses every germ on the pair."""

    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []
        real = fm.lie_coeffs
        monkeypatch.setattr(fm, "lie_coeffs", lambda *a: calls.append(a)
                            or real(*a))
        return calls

    def test_second_build_is_the_first(self, probes, monkeypatch):
        builds = []
        real = gm.build_singular_germ
        monkeypatch.setattr(gm, "build_singular_germ", lambda *a: (
            builds.append(a) or real(*a)))
        sc = parse_scenario(SHARED_PAIR)
        assert run_scenario(sc)["passed"]
        # first and flipped share (torus, area); other names another form
        # block with the same coefficients, so it is built on its own
        assert len(builds) == 2 and builds[0][0] is builds[1][0]
        assert builds[0][1] is not builds[1][1]
        assert len(probes) == 2  # one invariance probe per build
        run_scenario(sc)  # a new run builds its germs again
        assert len(builds) == 4 and len(probes) == 4

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

    @pytest.mark.parametrize("disagreeing", [0, 1], ids=["g0", "g1"])
    def test_one_disagreeing_section_refused(self, disagreeing, rng):
        # one germ restricts to the expected form, the other to twice it:
        # the pencil is refused whichever of the two disagrees
        g0, _ = singular_pair()
        b = bd.rotation_bundle([0.7])
        doubled = fm.one_form(b.fiber_chart,
                              {"u": parse_field(b.fiber_chart, "-2*v"),
                               "v": parse_field(b.fiber_chart, "2*u")})
        pair = [g0, g0]
        pair[disagreeing] = gm.build_singular_germ(b, doubled)
        base = g0.restricted.chart
        expected = fm.one_form(base, {"u": -coordinate(base, "v"),
                                      "v": coordinate(base, "u")})
        pts = gm.scan_points(g0, rng, 40)
        res = gm.interpolation_contactness(*pair, expected, pts)
        assert res == {"refused": True,
                       "reason": "zero-section foliations disagree"}
