import math

import numpy as np
import pytest

from trimiga.errors import DomainError, InvalidGeometryError, InvalidRefinementError
from trimiga.nurbs import KnotVector, NurbsCurve, NurbsSurface

from conftest import segment


def de_casteljau_rational(points, weights, s):
    """Independent rational Bezier oracle: de Casteljau on homogeneous points."""
    pts = np.array([w * np.asarray(p, float) for p, w in zip(points, weights)])
    h = np.hstack([pts, np.asarray(weights, float)[:, None]])
    while h.shape[0] > 1:
        h = (1.0 - s) * h[:-1] + s * h[1:]
    return h[0, :-1] / h[0, -1]


class TestKnotVector:
    def test_normalizes_to_unit_interval(self):
        kv = KnotVector([2, 2, 2.5, 3, 3], 1)
        assert kv.knots[0] == 0.0 and kv.knots[-1] == 1.0
        assert np.allclose(kv.knots, [0, 0, 0.5, 1, 1])

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidGeometryError):
            KnotVector([0, 0, 0.6, 0.4, 1, 1], 1)

    def test_rejects_unclamped(self):
        with pytest.raises(InvalidGeometryError):
            KnotVector([0, 0.2, 0.5, 1], 1)

    def test_rejects_interior_multiplicity_above_degree(self):
        with pytest.raises(InvalidGeometryError):
            KnotVector([0, 0, 0.5, 0.5, 1, 1], 1)

    def test_rejects_interior_knot_at_an_end(self):
        # within tolerance of an end, an interior knot raises that end's
        # multiplicity above degree + 1
        for knots in ([0, 0, 1 - 5e-13, 1, 1], [0, 0, 5e-13, 1, 1], [0, 0, 1, 1, 1]):
            with pytest.raises(InvalidGeometryError):
                KnotVector(knots, 1)

    def test_span_is_right_adjacent_at_interior_knot(self):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        span = kv.find_span(0.5)
        assert kv.knots[span] <= 0.5 < kv.knots[span + 1]
        assert span == 3
        assert kv.find_span(1.0) == kv.num_basis - 1

    def test_domain_error_outside_unit_interval(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(DomainError):
            kv.find_span(1.5)
        with pytest.raises(DomainError):
            kv.basis(-0.2)


class TestBasisFunctions:
    def test_linear_hats(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        _, ders = kv.basis(0.3)
        assert np.allclose(ders[0], [0.7, 0.3], atol=1e-15)

    def test_quadratic_bernstein_midpoint(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        _, ders = kv.basis(0.5)
        assert np.allclose(ders[0], [0.25, 0.5, 0.25], atol=1e-15)

    def test_quadratic_bernstein_first_derivatives(self):
        # d/du of the Bernstein triple (1-u)^2, 2u(1-u), u^2 at u = 0.5
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        _, ders = kv.basis(0.5, order=1)
        assert np.allclose(ders[1], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_returns_degree_plus_one_values(self):
        kv = KnotVector([0, 0, 0, 0, 0.3, 0.7, 1, 1, 1, 1], 3)
        _, ders = kv.basis(0.4, order=2)
        assert ders.shape == (3, 4)

    def test_partition_of_unity(self, rng):
        vectors = [
            KnotVector([0, 0, 1, 1], 1),
            KnotVector([0, 0, 0, 0.25, 0.5, 0.5, 1, 1, 1], 2),
            KnotVector([0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1], 3),
        ]
        for kv in vectors:
            for u in rng.random(40):
                _, ders = kv.basis(u)
                assert np.all(ders[0] >= -1e-15)
                assert abs(ders[0].sum() - 1.0) < 1e-13

    def test_rejects_order_three(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(DomainError):
            kv.basis(0.5, order=3)


class TestCurveEval:
    def test_arc_start_point(self, arc_curve):
        assert np.allclose(arc_curve.evaluate(0.0).value, [0.0, 0.2], atol=1e-15)

    def test_arc_midpoint_against_de_casteljau(self, arc_curve):
        got = arc_curve.evaluate(0.5).value
        oracle = de_casteljau_rational(
            [[0, 0.2], [0.2, 0.2], [0.2, 0]], [1.0, 0.707, 1.0], 0.5
        )
        # frozen from the oracle above: 1207/8535 in both components
        assert np.allclose(oracle, [0.14141769185705916] * 2, atol=1e-15)
        assert np.allclose(got, oracle, atol=1e-14)
        # the printed weight 0.707 sits close to the exact arc value 0.2/sqrt(2)
        assert np.allclose(got, [0.2 / math.sqrt(2)] * 2, atol=1e-4)

    def test_polyline_first_segment_midpoint(self, polyline_curve):
        assert np.allclose(polyline_curve.evaluate(0.25).value, [0.5, 1.0], atol=1e-15)

    def test_domain_error(self, arc_curve):
        with pytest.raises(DomainError):
            arc_curve.evaluate(1.01)

    def test_derivatives_match_finite_differences(self, arc_curve, rng):
        # second derivatives are differenced from the first-derivative output
        # to stay above the cancellation floor of raw value differences
        h = 1e-5
        for s in 0.05 + 0.9 * rng.random(100):
            d = arc_curve.evaluate(s, 2)
            fd1 = (arc_curve.evaluate(s + h).value - arc_curve.evaluate(s - h).value) / (2 * h)
            fd2 = (arc_curve.evaluate(s + h, 1).d1 - arc_curve.evaluate(s - h, 1).d1) / (2 * h)
            assert np.abs(d.d1 - fd1).max() / max(np.abs(d.d1).max(), 1.0) < 1e-6
            assert np.abs(d.d2 - fd2).max() / max(np.abs(d.d2).max(), 1.0) < 1e-6

    def test_uniform_weights_reduce_to_bspline(self, rng):
        kv = KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)
        pts = rng.random((4, 3))
        curve = NurbsCurve(kv, pts, 2.5 * np.ones(4))
        for s in rng.random(25):
            span, ders = kv.basis(s, 2)
            window = pts[span - 2 : span + 1]
            d = curve.evaluate(s, 2)
            assert np.abs(d.value - ders[0] @ window).max() < 1e-13
            assert np.abs(d.d1 - ders[1] @ window).max() < 1e-12
            assert np.abs(d.d2 - ders[2] @ window).max() < 1e-11


class TestSurfaceEval:
    def test_bilinear_identity(self, bilinear_surface):
        assert np.allclose(
            bilinear_surface.evaluate(0.3, 0.7).value, [0.3, 0.7, 0.0], atol=1e-15
        )

    def test_corners_hit_control_points(self, curved_surface):
        net = curved_surface.control_net
        for (u, v), cp in [
            ((0, 0), net[0, 0]),
            ((1, 0), net[-1, 0]),
            ((0, 1), net[0, -1]),
            ((1, 1), net[-1, -1]),
        ]:
            assert np.allclose(curved_surface.evaluate(u, v).value, cp, atol=1e-14)

    def test_uniform_weights_match_polynomial_tensor_formula(self, rng):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        net = rng.random((4, 4, 3))
        srf = NurbsSurface(kv, kv, net, 3.0 * np.ones((4, 4)))
        for u, v in rng.random((20, 2)):
            su, du = kv.basis(u, 2)
            sv, dv = kv.basis(v, 2)
            window = net[su - 2 : su + 1, sv - 2 : sv + 1]
            sd = srf.evaluate(u, v, 2)
            direct = np.einsum("i,j,ijc->c", du[0], dv[0], window)
            assert np.abs(sd.value - direct).max() < 1e-13
            d_uv = np.einsum("i,j,ijc->c", du[1], dv[1], window)
            assert np.abs(sd.duv - d_uv).max() < 1e-11

    def test_derivatives_match_finite_differences(self, curved_surface, rng):
        h = 1e-5
        srf = curved_surface
        for u, v in 0.05 + 0.9 * rng.random((100, 2)):
            sd = srf.evaluate(u, v, 2)
            fdu = (srf.evaluate(u + h, v).value - srf.evaluate(u - h, v).value) / (2 * h)
            fdv = (srf.evaluate(u, v + h).value - srf.evaluate(u, v - h).value) / (2 * h)
            assert np.abs(sd.du - fdu).max() / max(np.abs(sd.du).max(), 1.0) < 1e-6
            assert np.abs(sd.dv - fdv).max() / max(np.abs(sd.dv).max(), 1.0) < 1e-6
            fduu = (srf.evaluate(u + h, v, 1).du - srf.evaluate(u - h, v, 1).du) / (2 * h)
            fdvv = (srf.evaluate(u, v + h, 1).dv - srf.evaluate(u, v - h, 1).dv) / (2 * h)
            fduv = (srf.evaluate(u, v + h, 1).du - srf.evaluate(u, v - h, 1).du) / (2 * h)
            assert np.abs(sd.duu - fduu).max() / max(np.abs(sd.duu).max(), 1.0) < 1e-6
            assert np.abs(sd.dvv - fdvv).max() / max(np.abs(sd.dvv).max(), 1.0) < 1e-6
            assert np.abs(sd.duv - fduv).max() / max(np.abs(sd.duv).max(), 1.0) < 1e-6

    def test_domain_error(self, bilinear_surface):
        with pytest.raises(DomainError):
            bilinear_surface.evaluate(-0.1, 0.5)


class TestKnotInsertion:
    def test_single_insertion_preserves_curve(self, arc_curve):
        refined = arc_curve.insert_knot(0.5)
        assert refined.control_points.shape[0] == 4
        assert np.abs(
            refined.evaluate(0.25).value - arc_curve.evaluate(0.25).value
        ).max() < 1e-14

    def test_double_insertion_gives_c0_and_identical_values(self, arc_curve, rng):
        refined = arc_curve.insert_knot(0.5, multiplicity=2)
        values, mults = refined.knot_vector.interior()
        assert values == [0.5] and mults == [2]
        for s in rng.random(30):
            assert np.abs(
                refined.evaluate(s).value - arc_curve.evaluate(s).value
            ).max() < 1e-14

    def test_multiplicity_limit(self, polyline_curve, arc_curve):
        # polyline already carries 0.5 once at degree 1: one more is too many
        with pytest.raises(InvalidRefinementError):
            polyline_curve.insert_knot(0.5)
        arc_c0 = arc_curve.insert_knot(0.5, multiplicity=2)
        with pytest.raises(InvalidRefinementError):
            arc_c0.insert_knot(0.5)

    def test_zero_multiplicity_is_rejected(self, arc_curve, curved_surface):
        with pytest.raises(InvalidRefinementError):
            arc_curve.knot_vector.inserted(0.5, 0)
        with pytest.raises(InvalidRefinementError):
            arc_curve.insert_knot(0.5, multiplicity=0)
        with pytest.raises(InvalidRefinementError):
            curved_surface.insert_knot(0.5, "u", multiplicity=0)

    def test_surface_insertion_both_directions(self, curved_surface, rng):
        refined = curved_surface.insert_knot(0.3, "u").insert_knot(0.7, "v")
        for u, v in rng.random((20, 2)):
            assert np.abs(
                refined.evaluate(u, v).value - curved_surface.evaluate(u, v).value
            ).max() < 1e-12


class TestDegreeElevation:
    def test_linear_segment_gets_midpoint_average(self):
        seg = segment([0.0, 0.0], [1.0, 2.0])
        el = seg.elevate_degree()
        assert el.degree == 2
        assert np.allclose(el.knot_vector.knots, [0, 0, 0, 1, 1, 1])
        assert np.allclose(el.control_points[1], [0.5, 1.0], atol=1e-14)

    def test_pointwise_identity_at_random_parameters(self, arc_curve, rng):
        el = arc_curve.elevate_degree()
        for s in rng.random(20):
            assert np.abs(
                el.evaluate(s).value - arc_curve.evaluate(s).value
            ).max() < 1e-12

    def test_polyline_elevation_keeps_c0(self, polyline_curve, rng):
        el = polyline_curve.elevate_degree()
        assert el.degree == 2
        values, mults = el.knot_vector.interior()
        assert values == [0.5] and mults == [2]
        for s in rng.random(20):
            assert np.abs(
                el.evaluate(s).value - polyline_curve.evaluate(s).value
            ).max() < 1e-12

    def test_surface_elevation(self, curved_surface, rng):
        el = curved_surface.elevate_degree("u").elevate_degree("v")
        assert el.degrees == (3, 3)
        for u, v in rng.random((20, 2)):
            assert np.abs(
                el.evaluate(u, v).value - curved_surface.evaluate(u, v).value
            ).max() < 1e-12

    def test_chained_refinements_preserve_the_curve(self, arc_curve, rng):
        chained = (
            arc_curve.elevate_degree()
            .insert_knot(0.3)
            .insert_knot(0.77, multiplicity=2)
            .elevate_degree()
        )
        assert chained.degree == 4
        for s in rng.random(30):
            assert np.abs(
                chained.evaluate(s).value - arc_curve.evaluate(s).value
            ).max() < 1e-12
        d = chained.evaluate(0.41, 2)
        ref = arc_curve.evaluate(0.41, 2)
        assert np.abs(d.d1 - ref.d1).max() < 1e-10
        assert np.abs(d.d2 - ref.d2).max() < 1e-8


class TestValidation:
    def test_control_point_count_mismatch(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        with pytest.raises(InvalidGeometryError):
            NurbsCurve(kv, [[0, 0], [1, 1]])

    def test_nonpositive_weight(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(InvalidGeometryError):
            NurbsCurve(kv, [[0, 0], [1, 1]], [1.0, 0.0])

    def test_surface_net_shape(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(InvalidGeometryError):
            NurbsSurface(kv, kv, np.zeros((3, 2, 3)))
