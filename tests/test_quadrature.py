import math

import numpy as np
import pytest

from trimiga import iges, quadrature
from trimiga.errors import DomainError, SingularMapError
from trimiga.nurbs import KnotVector, NurbsCurve, NurbsSurface, merge_close
from trimiga.plate import FieldSpace
from trimiga.quadrature import gauss_panels, gauss_points_1d, integrate, partition_regions
from trimiga.shapes import unit_square_surface
from trimiga.trimming import TrimmedRegion

from conftest import DirectGeometry, identity_region, refined_h, segment

# quarter-disc hole of radius 0.2 cut from the unit square
EXACT_AREA = 1.0 - math.pi * 0.2**2 / 4.0

# area of the printed-weight (0.707) region, frozen from a Green's theorem
# contour oracle evaluated with 64-point Gauss per smooth span (stable to
# the last digit between 48 and 64 points); see test_matches_contour_oracle
PRINTED_AREA = 0.968584928816930


class BreakLines:
    """A geometry reduced to the one call partition_regions makes of it."""

    def __init__(self, s_breaks, t_breaks):
        self.lines = list(s_breaks), list(t_breaks)

    def breaklines(self):
        return self.lines


def contour_area(region, n=64):
    """Independent area oracle: 0.5 * closed contour integral of (u dv - v du)."""
    bottom, top = region.curve_bottom, region.curve_top
    pieces = [
        bottom,
        segment(bottom.evaluate(1.0, 0).value, top.evaluate(1.0, 0).value),
        top.reversed(),
        segment(top.evaluate(0.0, 0).value, bottom.evaluate(0.0, 0).value),
    ]
    x, w = gauss_points_1d(n)
    total = 0.0
    for curve in pieces:
        spans = merge_close(curve.knot_vector.knots)[0]
        for a, b in zip(spans[:-1], spans[1:]):
            for xi, wi in zip(x, w):
                d = curve.evaluate(a + (b - a) * xi, 1)
                total += wi * (b - a) * 0.5 * (
                    d.value[0] * d.d1[1] - d.value[1] * d.d1[0]
                )
    return total


def cylinder_region():
    """A quarter cylinder of radius 2 and height 3 trimmed by two rational
    quadratic curves with an interior knot at 0.4."""
    arc = [[2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]
    net = [[[x, y, z] for z in (0.0, 3.0)] for x, y in arc]
    weights = [[w, w] for w in (1.0, math.sqrt(0.5), 1.0)]
    surface = NurbsSurface(KnotVector([0, 0, 0, 1, 1, 1], 2), KnotVector([0, 0, 1, 1], 1),
                           net, weights)
    kv = KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)
    bottom = NurbsCurve(kv, [[0, 0.1], [0.3, 0.3], [0.6, 0.05], [1, 0.2]], [1, 0.8, 1.3, 1])
    top = NurbsCurve(kv, [[0, 0.8], [0.4, 0.95], [0.7, 0.6], [1, 0.75]], [1, 1.2, 0.9, 1])
    return TrimmedRegion(surface, bottom, top)


def revolved_arcs(profile, weights):
    """Quarter turn about z of a rational quadratic profile arc in (rho, z):
    the tensor product of the exact quarter circle in u and the profile in v."""
    turn = [([1.0, 0.0], 1.0), ([1.0, 1.0], math.sqrt(0.5)), ([0.0, 1.0], 1.0)]
    net = [[[rho * cx, rho * cy, z] for rho, z in profile] for (cx, cy), _ in turn]
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    return NurbsSurface(kv, kv, net, [[wu * wv for wv in weights] for _, wu in turn])


def trimmed_inside(surface):
    """The surface trimmed by cylinder_region's curves, away from its edges."""
    region = cylinder_region()
    return TrimmedRegion(surface, region.curve_bottom, region.curve_top)


def sphere_region(radius=2.0):
    """A sphere's band between latitudes -45 and 45 degrees over a quarter
    turn, trimmed: no pole lies on it."""
    c = radius * math.sqrt(0.5)
    profile = [[c, -c], [2.0 * c, 0.0], [c, c]]
    return trimmed_inside(revolved_arcs(profile, [1.0, math.sqrt(0.5), 1.0]))


def torus_region(major=3.0, minor=1.0):
    """A torus's outer upper quarter, tube angle 0 to 90 degrees, over a
    quarter turn, trimmed."""
    profile = [[major + minor, 0.0], [major + minor, minor], [major, minor]]
    return trimmed_inside(revolved_arcs(profile, [1.0, math.sqrt(0.5), 1.0]))


def boundary_area(region, form, n=40):
    """Independent area oracle by Stokes' theorem: |closed contour integral
    of a 1-form whose exterior derivative is the area form| along the
    images of the square's edges, n Gauss points per piece between
    breakpoints. form(point, tangent) is the form's value on the tangent."""
    x, w = gauss_points_1d(n)
    cuts = [0.0] + [bp.s for bp in region.breakpoints()] + [1.0]
    # counter-clockwise around the square: the point at r, its derivative
    edges = [(cuts, lambda r: (r, 0.0), "dx_ds", 1.0), ([0.0, 1.0], lambda r: (1.0, r), "dx_dt", 1.0),
             (cuts, lambda r: (r, 1.0), "dx_ds", -1.0), ([0.0, 1.0], lambda r: (0.0, r), "dx_dt", -1.0)]
    terms = []
    for lines, st, tangent, sign in edges:
        for lo, hi in zip(lines[:-1], lines[1:]):
            for xi, wi in zip(x, w):
                cd = region.composite_eval(*st(lo + (hi - lo) * xi), 1)
                terms.append(sign * wi * (hi - lo) * form(cd.x, getattr(cd, tangent)))
    return abs(math.fsum(terms))


def turn_rate(p, d):
    """d(atan2(y, x)) along the tangent d at p: the angle about z, with no branch cut."""
    (px, py, _), (dx, dy, _) = p, d
    return (px * dy - py * dx) / (px * px + py * py)


def unrolled_cylinder_form(p, d):
    """On the radius-2 cylinder about z, unrolled to (a, z) with a = 2
    atan2(y, x): 0.5 (a dz - z da)."""
    a = 2.0 * math.atan2(p[1], p[0])
    return 0.5 * (a * d[2] - p[2] * (2.0 * turn_rate(p, d)))


def sphere_form(radius):
    """R^2 sin(latitude) d(longitude) = R z d(longitude)."""
    return lambda p, d: radius * p[2] * turn_rate(p, d)


def torus_form(major, minor):
    """r (R phi + r sin phi) d(theta), with the tube angle phi = atan2(z, rho - R)
    within (-pi, pi) on the outer quarter, and r sin phi = z."""
    def form(p, d):
        phi = math.atan2(p[2], math.hypot(p[0], p[1]) - major)
        return minor * (major * phi + p[2]) * turn_rate(p, d)
    return form


class TestGaussPoints:
    def test_midpoint_rule(self):
        x, w = gauss_points_1d(1)
        assert np.allclose(x, [0.5]) and np.allclose(w, [1.0])

    def test_two_point_rule(self):
        x, w = gauss_points_1d(2)
        shift = 1.0 / (2.0 * math.sqrt(3.0))
        assert np.allclose(sorted(x), [0.5 - shift, 0.5 + shift], atol=1e-15)
        assert np.allclose(w, [0.5, 0.5], atol=1e-15)

    def test_degree_five_exactness(self):
        x, w = gauss_points_1d(3)
        assert abs(np.sum(w * x**5) - 1.0 / 6.0) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            gauss_points_1d(0)
        with pytest.raises(DomainError):
            gauss_points_1d(65)

    def test_rule_is_computed_once_and_read_only(self):
        x, w = gauss_points_1d(5)
        again = gauss_points_1d(5)
        assert again[0] is x and again[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w *= 2.0

    def test_weights_positive(self):
        for n in (1, 5, 16, 64):
            _, w = gauss_points_1d(n)
            assert np.all(w > 0.0)


class TestPartition:
    def test_plate_region_splits_at_the_kink(self, plate_region):
        single = FieldSpace(KnotVector([0, 0, 1, 1], 1), KnotVector([0, 0, 1, 1], 1))
        tiling = partition_regions(plate_region, single)
        assert len(tiling) == 2
        assert tiling.s_lines.tolist() == [0.0, 0.5, 1.0]
        assert tiling.t_lines.tolist() == [0.0, 1.0]

    def test_field_knots_drive_splits(self, square_region):
        kv_s = KnotVector([0, 0, 1 / 3, 2 / 3, 1, 1], 1)
        field = FieldSpace(kv_s, KnotVector([0, 0, 1, 1], 1))
        tiling = partition_regions(square_region, field)
        assert len(tiling) == 3
        assert tiling.s_lines.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]

    def test_direct_geometry_splits_at_surface_knots(self):
        # two spans in u and in v; the field adds s = 0.5 and repeats t = 0.6
        surface = unit_square_surface().insert_knot(0.4, "u").insert_knot(0.6, "v")
        field = FieldSpace(KnotVector([0, 0, 0.5, 1, 1], 1),
                           KnotVector([0, 0, 0.6, 1, 1], 1))
        tiling = partition_regions(DirectGeometry(surface), field)
        assert tiling.s_lines.tolist() == [0.0, 0.4, 0.5, 1.0]
        assert tiling.t_lines.tolist() == [0.0, 0.6, 1.0]
        assert len(tiling) == 6

    def test_coincident_lines_deduplicate(self, plate_region):
        kv_s = KnotVector([0, 0, 0.5, 1, 1], 1)
        field = FieldSpace(kv_s, KnotVector([0, 0, 1, 1], 1))
        tiling = partition_regions(plate_region, field)
        assert len(tiling) == 2
        assert tiling.s_lines.tolist() == [0.0, 0.5, 1.0]

    def test_tiling_sums_to_unit_area(self, plate_region):
        field = refined_h(FieldSpace.conforming(plate_region, 2))
        tiling = partition_regions(plate_region, field)
        hs, ht = np.diff(tiling.s_lines), np.diff(tiling.t_lines)
        assert abs(math.fsum(np.outer(hs, ht).ravel().tolist()) - 1.0) < 1e-13
        assert np.all(hs > 0.0) and np.all(ht > 0.0)

    def test_lines_are_read_only(self):
        tiling = partition_regions(BreakLines([0.5], [0.5]))
        for lines in (tiling.s_lines, tiling.t_lines):
            assert lines.dtype == np.float64
            with pytest.raises(ValueError):
                lines[1] = 0.25

    def test_rule_weights_sum_to_area(self, plate_region):
        field = refined_h(FieldSpace.conforming(plate_region, 2))
        tiling = partition_regions(plate_region, field)
        assert tiling.s_lines.size - 1 == 4
        # 4 columns of 2 panels at 16 points each fit in one batch
        (batch,) = gauss_panels(tiling, 4)
        s, t, w = batch
        assert (s.shape, t.shape, w.shape) == ((4, 1, 4, 1), (1, 2, 1, 4), (4, 2, 4, 4))
        weights = w.ravel().tolist()
        assert abs(math.fsum(weights) - 1.0) < 1e-13
        assert all(w > 0.0 for w in weights)

    def test_panel_points_are_plain_floats_in_s_major_order(self, monkeypatch):
        # each batch broadcasts to a column-, then panel-major grid whose
        # flattened points and weights are the scalar rule's, panel by panel
        # in the tiling's s-major order and s-major within a panel, term for
        # term; batches of one column and of the whole tiling give the same
        # terms
        x, w = gauss_points_1d(2)
        tiling = partition_regions(BreakLines([0.25], [0.5, 0.75]))
        s_lines, t_lines = tiling.s_lines.tolist(), tiling.t_lines.tolist()
        expected = []
        for s0, s1 in zip(s_lines[:-1], s_lines[1:]):
            for t0, t1 in zip(t_lines[:-1], t_lines[1:]):
                hs, ht = s1 - s0, t1 - t0
                expected += [
                    (s0 + hs * float(xi), t0 + ht * float(xj),
                     float(wi) * float(wj) * hs * ht)
                    for xi, wi in zip(x, w)
                    for xj, wj in zip(x, w)
                ]
        for batch_points, shapes in ((1, [(1, 1, 2, 1)] * 2), (24, [(2, 1, 2, 1)])):
            monkeypatch.setattr(quadrature, "BATCH_POINTS", batch_points)
            batches = list(gauss_panels(tiling, 2))
            assert [s.shape for s, _, _ in batches] == shapes
            points = []
            for s, t, weights in batches:
                assert t.shape == (1, 3, 1, 2)
                assert weights.shape == (s.shape[0], 3, 2, 2)
                assert all(arr.dtype == np.float64 for arr in (s, t, weights))
                s, t = np.broadcast_arrays(s, t)
                points += list(zip(s.ravel().tolist(), t.ravel().tolist(),
                                   weights.ravel().tolist()))
            assert points == expected

    def test_batches_hold_whole_columns_up_to_the_point_limit(self, monkeypatch):
        tiling = partition_regions(BreakLines([0.2, 0.4, 0.6, 0.8], [0.5]))
        # 5 columns of 2 panels of 9 points: 18 points per column
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 40)
        assert [s.shape[0] for s, _, _ in gauss_panels(tiling, 3)] == [2, 2, 1]
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 17)
        assert [s.shape[0] for s, _, _ in gauss_panels(tiling, 3)] == [1] * 5

    def test_len_counts_the_panels_gauss_panels_yields(self, plate_region, monkeypatch):
        # len() is what the benchmark's tracer reports as quadrature.panels
        field = refined_h(refined_h(FieldSpace.conforming(plate_region, 2)))
        tiling = partition_regions(plate_region, field)
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 50)
        batches = list(gauss_panels(tiling, 3))
        assert len(batches) > 1
        assert len(tiling) == sum(w.shape[0] * w.shape[1] for _, _, w in batches)

    def test_tiling_ends_exactly_at_the_unit_edges(self):
        for near_end in (1.0 - 5e-13, 5e-13):
            tiling = partition_regions(BreakLines([0.5, near_end], [near_end]))
            assert tiling.s_lines.tolist() == [0.0, 0.5, 1.0]
            assert tiling.t_lines.tolist() == [0.0, 1.0]


class TestIntegrate:
    def test_identity_area_is_exact(self, square_region):
        area = integrate(square_region, lambda cd: 1.0, 4)
        assert abs(area - 1.0) < 1e-14

    def test_exact_arc_area(self, exact_plate_region):
        area = integrate(exact_plate_region, lambda cd: 1.0, 16)
        assert abs(area - EXACT_AREA) < 1e-8

    def test_printed_weight_area_regression(self, plate_region):
        area = integrate(plate_region, lambda cd: 1.0, 16)
        assert abs(area - PRINTED_AREA) < 1e-12

    def test_matches_contour_oracle(self, plate_region, exact_plate_region):
        assert abs(contour_area(plate_region) - PRINTED_AREA) < 1e-13
        assert abs(contour_area(exact_plate_region) - EXACT_AREA) < 1e-13

    def test_split_is_needed_at_the_kink(self, exact_plate_region):
        with_split = integrate(exact_plate_region, lambda cd: 1.0, 16)
        without = integrate(
            exact_plate_region, lambda cd: 1.0, 16, split_breakpoints=False
        )
        assert abs(with_split - EXACT_AREA) < 1e-8
        assert abs(without - EXACT_AREA) > 1e-6

    def test_monotone_convergence(self, plate_region):
        areas = [integrate(plate_region, lambda cd: 1.0, n) for n in (4, 8, 16)]
        change_1 = abs(areas[1] - areas[0])
        change_2 = abs(areas[2] - areas[1])
        assert change_2 < change_1
        assert change_2 < 1e-9

    def test_batching_leaves_the_sum_unchanged(self, plate_region, monkeypatch):
        areas = []
        for batch_points in (1, 1 << 40):
            monkeypatch.setattr(quadrature, "BATCH_POINTS", batch_points)
            areas.append(integrate(plate_region, lambda cd: cd.x[..., 0], 6))
        assert areas[0] == areas[1]

    def test_singular_map_propagates(self):
        curve = segment([0.0, 0.5], [1.0, 0.5])
        degenerate = TrimmedRegion(unit_square_surface(), curve, curve)
        with pytest.raises(SingularMapError):
            integrate(degenerate, lambda cd: 1.0, 2)

    def test_a_region_whose_curves_meet_is_integrated(self):
        # the triangle (0, 0), (1, 0), (1, 1): its closing edge at s = 0 is a point
        region = TrimmedRegion(unit_square_surface(), segment([0.0, 0.0], [1.0, 0.0]),
                               segment([0.0, 0.0], [1.0, 1.0]))
        assert abs(integrate(region, lambda cd: 1.0, 16) - 0.5) < 1e-15

    @staticmethod
    def assert_area_matches_the_boundary_oracle(region, form):
        """integrate at order 16 against the oracle to 1e-12: as built, after
        knot insertion and degree elevation, and after the IGES round trip."""
        oracle = boundary_area(region, form)
        assert abs(boundary_area(region, form, 60) - oracle) < 1e-14 * oracle
        refined = region.surface.insert_knot(0.3, "u").elevate_degree("v")
        for same in (region,
                     TrimmedRegion(refined, region.curve_bottom, region.curve_top),
                     iges.extract_region(iges.parse(iges.region_to_iges(region)))):
            assert abs(integrate(same, lambda cd: 1.0, 16) - oracle) < 1e-12 * oracle

    def test_curved_cad_area_matches_the_unrolled_cylinder(self):
        self.assert_area_matches_the_boundary_oracle(cylinder_region(), unrolled_cylinder_form)

    @pytest.mark.parametrize("region, form", [
        (sphere_region(2.0), sphere_form(2.0)),
        (torus_region(3.0, 1.0), torus_form(3.0, 1.0)),
    ], ids=["sphere", "torus"])
    def test_curved_cad_area_matches_its_stokes_oracle(self, region, form):
        self.assert_area_matches_the_boundary_oracle(region, form)

    def test_physical_measure_scales_with_the_surface(self, rng):
        region = TrimmedRegion(
            unit_square_surface(3.0),
            segment([0.0, 0.0], [1.0, 0.0]),
            segment([0.0, 1.0], [1.0, 1.0]),
        )
        area = integrate(region, lambda cd: 1.0, 4)
        assert abs(area - 9.0) < 1e-12

    def test_curved_surface_area_against_riemann_oracle(self, rng):
        # 3D patch area through the jacobian scale vs a brute-force midpoint
        # sum over a fine grid of cross-product norms; a single-span surface
        # keeps the integrand analytic so the Gauss panels see no kinks
        from trimiga.nurbs import NurbsSurface

        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        net = 0.3 * rng.random((3, 3, 3))
        net[..., 0] += np.arange(3)[:, None]
        net[..., 1] += np.arange(3)[None, :]
        srf = NurbsSurface(kv, kv, net, 0.5 + rng.random((3, 3)))
        region = identity_region(srf)
        n = 400
        step = 1.0 / n
        v = (np.arange(n) + 0.5) * step
        cells = []
        for i in range(n):
            # one array evaluation per row of midpoints
            sd = srf.evaluate((i + 0.5) * step, v, 1)
            cells.append(float(np.sum(np.linalg.norm(np.cross(sd.du, sd.dv), axis=-1)
                                      * step * step)))
        oracle = math.fsum(cells)
        area = integrate(region, lambda cd: 1.0, 12)
        assert abs(area - oracle) / oracle < 1e-5
