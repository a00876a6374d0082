import math

import numpy as np
import pytest

from trimiga.errors import DomainError, SingularMapError
from trimiga.nurbs import KnotVector
from trimiga.plate import FieldSpace
from trimiga.quadrature import (
    gauss_panels,
    gauss_points_1d,
    integrate,
    partition_lines,
    partition_regions,
)
from trimiga.shapes import unit_square_surface
from trimiga.trimming import TrimmedRegion

from conftest import segment

# quarter-disc hole of radius 0.2 cut from the unit square
EXACT_AREA = 1.0 - math.pi * 0.2**2 / 4.0

# area of the printed-weight (0.707) region, frozen from a Green's theorem
# contour oracle evaluated with 64-point Gauss per smooth span (stable to
# the last digit between 48 and 64 points); see test_matches_contour_oracle
PRINTED_AREA = 0.968584928816930


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
        spans = curve.knot_vector.spans()
        for a, b in zip(spans[:-1], spans[1:]):
            for xi, wi in zip(x, w):
                d = curve.evaluate(a + (b - a) * xi, 1)
                total += wi * (b - a) * 0.5 * (
                    d.value[0] * d.d1[1] - d.value[1] * d.d1[0]
                )
    return total


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

    def test_weights_positive(self):
        for n in (1, 5, 16, 64):
            _, w = gauss_points_1d(n)
            assert np.all(w > 0.0)


class TestPartition:
    def test_plate_region_splits_at_the_kink(self, plate_region):
        single = FieldSpace(KnotVector([0, 0, 1, 1], 1), KnotVector([0, 0, 1, 1], 1))
        regions = partition_regions(plate_region, single)
        assert len(regions) == 2
        assert {(r.s0, r.s1) for r in regions} == {(0.0, 0.5), (0.5, 1.0)}

    def test_field_knots_drive_splits(self, square_region):
        kv_s = KnotVector([0, 0, 1 / 3, 2 / 3, 1, 1], 1)
        field = FieldSpace(kv_s, KnotVector([0, 0, 1, 1], 1))
        regions = partition_regions(square_region, field)
        assert len(regions) == 3

    def test_coincident_lines_deduplicate(self, plate_region):
        kv_s = KnotVector([0, 0, 0.5, 1, 1], 1)
        field = FieldSpace(kv_s, KnotVector([0, 0, 1, 1], 1))
        regions = partition_regions(plate_region, field)
        assert len(regions) == 2

    def test_tiling_sums_to_unit_area(self, plate_region):
        field = FieldSpace.conforming(plate_region, 2, 2).refined_h()
        regions = partition_regions(plate_region, field)
        assert abs(sum(r.area for r in regions) - 1.0) < 1e-13
        starts = sorted({r.s0 for r in regions} | {r.t0 for r in regions})
        assert all(0.0 <= v < 1.0 for v in starts)

    def test_rule_weights_sum_to_area(self, plate_region):
        regions = partition_regions(plate_region)
        panels = list(gauss_panels(regions, 4))
        assert [len(panel) for panel in panels] == [16] * len(regions)
        weights = [w for panel in panels for _, _, w in panel]
        assert abs(math.fsum(weights) - 1.0) < 1e-13
        assert all(w > 0.0 for w in weights)

    def test_panel_points_are_plain_floats_in_s_major_order(self):
        x, _ = gauss_points_1d(2)
        (panel,) = gauss_panels(partition_lines(), 2)
        assert [(s, t) for s, t, _ in panel] == [
            (x[0], x[0]), (x[0], x[1]), (x[1], x[0]), (x[1], x[1])
        ]
        assert all(type(v) is float for point in panel for v in point)

    def test_tiling_ends_exactly_at_the_unit_edges(self):
        for near_end in (1.0 - 5e-13, 5e-13):
            regions = partition_lines([0.5, near_end], [near_end])
            assert max(r.s1 for r in regions) == 1.0
            assert max(r.t1 for r in regions) == 1.0
            assert min(r.s0 for r in regions) == 0.0
            assert sorted({r.s0 for r in regions}) == [0.0, 0.5]


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

    def test_singular_map_propagates(self):
        curve = segment([0.0, 0.5], [1.0, 0.5])
        degenerate = TrimmedRegion(unit_square_surface(), curve, curve)
        with pytest.raises(SingularMapError):
            integrate(degenerate, lambda cd: 1.0, 2)

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
        from trimiga.shapes import identity_region

        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        net = 0.3 * rng.random((3, 3, 3))
        net[..., 0] += np.arange(3)[:, None]
        net[..., 1] += np.arange(3)[None, :]
        srf = NurbsSurface(kv, kv, net, 0.5 + rng.random((3, 3)))
        region = identity_region(srf)
        n = 400
        step = 1.0 / n
        cells = []
        for i in range(n):
            u = (i + 0.5) * step
            row = 0.0
            for j in range(n):
                v = (j + 0.5) * step
                sd = srf.evaluate(u, v, 1)
                row += np.linalg.norm(np.cross(sd.du, sd.dv)) * step * step
            cells.append(row)
        oracle = math.fsum(cells)
        area = integrate(region, lambda cd: 1.0, 12)
        assert abs(area - oracle) / oracle < 1e-5
