"""Flat disk bundles: flatness, parallel transport against closed-form
holonomy, functoriality of transport and admissibility of fiber forms."""

import numpy as np
import pytest

from legfol import bundle as bd
from legfol import coiso as co
from legfol import forms as fm
from legfol.fields import constant, coordinate, parse_field


def area_form(fiber):
    return fm.one_form(fiber, {"u": -coordinate(fiber, "v"),
                               "v": coordinate(fiber, "u")})


class TestFlatness:
    def test_rotation_bundle_is_flat(self, rng):
        b = bd.rotation_bundle([0.9, 1.7])
        pts = rng.uniform(-0.4, 0.4, (20, 4))
        assert bd.flatness_check(b, pts) <= 1e-12

    def test_position_dependent_lift_is_not_flat(self, rng):
        total_names = ("s1", "s2", "u", "v")
        from legfol.fields import Chart
        total = Chart(total_names, (1.0, 1.0, None, None))
        s1 = coordinate(total, "s1")
        zero = constant(total, 0.0)
        b = bd.FlatDiskBundle(2, (1.0, 1.0), 1.0,
                              (zero, s1), (zero, zero))
        pts = rng.uniform(0.1, 0.4, (20, 4))
        assert bd.flatness_check(b, pts) > 0.5


class TestTransport:
    def test_rotation_closed_form(self):
        c = 0.8
        b = bd.rotation_bundle([c])
        res = bd.parallel_transport(b, bd.generator_loop(b, 0), [0.5, 0.0])
        expected = 0.5 * np.array([np.cos(c), np.sin(c)])
        assert np.allclose(res.end, expected, atol=1e-6)
        assert not res.escaped

    def test_functoriality(self, rng):
        b = bd.rotation_bundle([1.3, -0.4])
        p0, p1, p2 = [0.0, 0.0], [0.3, 0.1], [0.55, 0.45]
        x0 = [0.2, -0.3]
        one = bd.parallel_transport(b, [p0, p1, p2], x0)
        first = bd.parallel_transport(b, [p0, p1], x0)
        second = bd.parallel_transport(b, [p1, p2], first.end)
        assert np.allclose(one.end, second.end, atol=2e-8)

    def test_inverse_path(self):
        b = bd.rotation_bundle([1.3])
        x0 = [0.4, 0.2]
        fwd = bd.parallel_transport(b, [[0.0], [0.6]], x0)
        back = bd.parallel_transport(b, [[0.6], [0.0]], fwd.end)
        assert np.allclose(back.end, x0, atol=2e-8)

    def test_contractible_loop_is_identity(self):
        b = bd.rotation_bundle([0.9, 1.7])
        loop = [[0.0, 0.0], [0.3, 0.0], [0.3, 0.3], [0.0, 0.3], [0.0, 0.0]]
        x0 = [0.35, -0.15]
        res = bd.parallel_transport(b, loop, x0)
        assert np.allclose(res.end, x0, atol=1e-7)

    def test_escape_detected(self):
        from legfol.fields import Chart
        total = Chart(("s1", "u", "v"), (1.0, None, None))
        one = constant(total, 1.0)
        zero = constant(total, 0.0)
        b = bd.FlatDiskBundle(1, (1.0,), 1.0, (one,), (zero,))
        res = bd.parallel_transport(b, [[0.0], [1.0]], [0.5, 0.0])
        assert res.escaped

    def test_short_path_rejected(self):
        b = bd.trivial_bundle()
        with pytest.raises(ValueError):
            bd.parallel_transport(b, [[0.0]], [0.0, 0.0])


class TestHolonomy:
    def test_rotation_jacobian(self):
        c = 1.1
        b = bd.rotation_bundle([c])
        samples = [[0.3, 0.1], [-0.2, 0.4]]
        R = np.array([[np.cos(c), -np.sin(c)], [np.sin(c), np.cos(c)]])
        for hs in bd.holonomy(b, 0, samples):
            assert not hs.escaped
            assert np.allclose(hs.image, R @ np.array(hs.point), atol=1e-6)
            assert np.allclose(hs.jacobian, R, atol=1e-4)
            assert np.linalg.det(hs.jacobian) == pytest.approx(1.0, abs=1e-4)


class TestCclCheck:
    def test_invariant_area_form_passes(self):
        b = bd.rotation_bundle([0.7])
        res = bd.ccl_check(b, area_form(b.fiber_chart))
        assert res["ok"]

    def test_constant_form_fails_vanishing_and_positivity(self):
        b = bd.trivial_bundle()
        fiber = b.fiber_chart
        res = bd.ccl_check(b, fm.one_form(fiber, {"u": 1.0}))
        assert not res["vanishing"]["ok"]
        assert not res["positivity"]["ok"]
        assert res["invariance"]["ok"]  # trivial holonomy preserves anything
        assert not res["ok"]

    def test_noninvariant_form_fails_invariance(self):
        b = bd.rotation_bundle([0.7])
        fiber = b.fiber_chart
        beta = fm.one_form(fiber, {"v": parse_field(fiber, "u + u^3")})
        res = bd.ccl_check(b, beta)
        assert not res["invariance"]["ok"]


class TestExtraction:
    def test_generic_model_extraction(self, rng):
        Y = co.graph_submanifold(
            2, 3, {"z": parse_field(co.graph_submanifold(2, 3).source_chart,
                                    "(x2^2 + y2^2) / 2")})
        pts = rng.uniform(-0.4, 0.4, (10, 3))
        res = bd.extract_flat_structure(Y, pts)
        assert res["rank"] == 1
        assert res["membership_residual"] <= 1e-10
        assert res["integrability_residual"] <= 1e-10
        assert res["covariant_constancy_residual"] <= 1e-10

    def test_legendrian_model_refused(self, rng):
        Y = co.legendrian_model(2)
        with pytest.raises(ValueError, match="non-generic"):
            bd.extract_flat_structure(Y, rng.uniform(-0.4, 0.4, (5, 3)))
