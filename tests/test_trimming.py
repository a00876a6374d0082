import os
import sys
from collections import Counter

import numpy as np
import pytest

from trimiga import iges, native
from trimiga.errors import DomainError, InvalidGeometryError, SingularMapError
from trimiga.nurbs import KnotVector, NurbsCurve, NurbsSurface
from trimiga.quadrature import Tiling, gauss_panels, integrate
from trimiga.shapes import unit_square_surface
from trimiga.trimming import RegionReport, TrimmedRegion, check_regular

from conftest import identity_region, segment

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from regions import generate_regions  # noqa: E402


def rel(diff, ref):
    return np.abs(diff).max() / max(np.abs(ref).max(), 1.0)


class TestMapPoint:
    def test_corner_values(self, plate_region):
        cases = {
            (0.0, 0.0): [0.0, 0.2],
            (1.0, 0.0): [0.2, 0.0],
            (0.0, 1.0): [0.0, 1.0],
            (1.0, 1.0): [1.0, 0.0],
        }
        for (s, t), expected in cases.items():
            assert np.abs(plate_region.map_point(s, t).uv - expected).max() < 1e-12

    def test_blend_midpoint(self, plate_region):
        assert np.abs(plate_region.map_point(0.0, 0.5).uv - [0.0, 0.6]).max() < 1e-15

    def test_edges_interpolate_the_curves(self, plate_region):
        for s in np.linspace(0.0, 1.0, 33):
            bottom = plate_region.curve_bottom.evaluate(s, 0).value
            top = plate_region.curve_top.evaluate(s, 0).value
            assert np.abs(plate_region.map_point(s, 0.0).uv - bottom).max() < 1e-13
            assert np.abs(plate_region.map_point(s, 1.0).uv - top).max() < 1e-13

    def test_affine_in_t(self, plate_region, rng):
        for s in rng.random(25):
            lo = plate_region.map_point(s, 0.0).uv
            hi = plate_region.map_point(s, 1.0).uv
            mid = plate_region.map_point(s, 0.5).uv
            assert np.abs(mid - 0.5 * (lo + hi)).max() < 1e-13

    def test_domain_error(self, plate_region):
        with pytest.raises(DomainError):
            plate_region.map_point(1.2, 0.0)
        with pytest.raises(DomainError):
            plate_region.map_point(0.5, -0.01)

    def test_first_derivatives_match_finite_differences(self, plate_region, rng):
        h = 1e-6
        for _ in range(60):
            s = 0.05 + 0.9 * rng.random()
            if abs(s - 0.5) < 0.02:
                continue
            t = 0.05 + 0.9 * rng.random()
            m = plate_region.map_point(s, t)
            fd_s = (
                plate_region.map_point(s + h, t).uv - plate_region.map_point(s - h, t).uv
            ) / (2 * h)
            fd_t = (
                plate_region.map_point(s, t + h).uv - plate_region.map_point(s, t - h).uv
            ) / (2 * h)
            assert rel(m.duv_ds - fd_s, m.duv_ds) < 1e-7
            assert rel(m.duv_dt - fd_t, m.duv_dt) < 1e-7


class TestSecondDerivatives:
    # on the scale-1 plate the surface is the identity in (x, y), so the
    # first two components of composite_eval's derivatives are the blend's

    def test_blend_is_linear_in_t(self, plate_region, rng):
        for s, t in rng.random((20, 2)):
            cd = plate_region.composite_eval(s, t, 2)
            assert np.all(cd.d2x_dt2 == 0.0)

    def test_fields_broadcast_on_a_grid(self, plate_region):
        # duv_dt, independent of t, keeps s's shape
        s = np.array([[0.1], [0.5], [0.9]])
        t = np.array([[0.0, 0.3, 0.7, 1.0]])
        m = plate_region.map_point(s, t)
        assert m.uv.shape == m.duv_ds.shape == (3, 4, 2)
        assert m.duv_dt.shape == (3, 1, 2)
        cd = plate_region.composite_eval(s, t, 2)
        for name in ("x", "dx_ds", "dx_dt", "d2x_ds2", "d2x_dt2", "d2x_dsdt"):
            assert getattr(cd, name).shape == (3, 4, 3)

    def test_identity_trim_is_affine(self, square_region):
        m = square_region.map_point(0.37, 0.81)
        assert np.allclose(m.duv_ds, [1.0, 0.0], atol=1e-15)
        assert np.allclose(m.duv_dt, [0.0, 1.0], atol=1e-15)
        cd = square_region.composite_eval(0.37, 0.81, 2)
        for d2 in (cd.d2x_ds2, cd.d2x_dt2, cd.d2x_dsdt):
            assert np.all(d2 == 0.0)

    def test_bottom_edge_curvature_at_breakpoint(self, plate_region):
        # at t = 0 only the (smooth) arc contributes, so central differences
        # straddling s = 0.5 remain valid even though the polyline kinks there
        h = 1e-4
        d2 = plate_region.composite_eval(0.5, 0.0, 2).d2x_ds2[:2]
        fd = (
            plate_region.map_point(0.5 + h, 0.0).uv
            - 2.0 * plate_region.map_point(0.5, 0.0).uv
            + plate_region.map_point(0.5 - h, 0.0).uv
        ) / h**2
        assert rel(d2 - fd, d2) < 1e-5

    def test_second_derivatives_match_finite_differences(self, plate_region, rng):
        h = 1e-4
        for _ in range(60):
            s = 0.05 + 0.9 * rng.random()
            if abs(s - 0.5) < 0.02:
                continue
            t = 0.05 + 0.9 * rng.random()
            cd = plate_region.composite_eval(s, t, 2)
            fd_ss = (
                plate_region.map_point(s + h, t).duv_ds
                - plate_region.map_point(s - h, t).duv_ds
            ) / (2 * h)
            fd_st = (
                plate_region.map_point(s, t + h).duv_ds
                - plate_region.map_point(s, t - h).duv_ds
            ) / (2 * h)
            assert rel(cd.d2x_ds2[:2] - fd_ss, cd.d2x_ds2[:2]) < 1e-5
            assert rel(cd.d2x_dsdt[:2] - fd_st, cd.d2x_dsdt[:2]) < 1e-5


class TestCompositeEval:
    def test_identity_surface_passes_uv_through(self, plate_region, rng):
        for s, t in rng.random((20, 2)):
            m = plate_region.map_point(s, t)
            cd = plate_region.composite_eval(s, t, order=1)
            assert np.abs(cd.x[:2] - m.uv).max() < 1e-15
            assert cd.x[2] == 0.0
            assert np.abs(cd.dx_ds[:2] - m.duv_ds).max() < 1e-15

    def test_chain_rule_as_literal_identity(self, plate_region, rng):
        for s, t in rng.random((20, 2)):
            m = plate_region.map_point(s, t)
            sd = plate_region.surface.evaluate(float(m.uv[0]), float(m.uv[1]), 1)
            expected_ds = sd.du * m.duv_ds[0] + sd.dv * m.duv_ds[1]
            expected_dt = sd.du * m.duv_dt[0] + sd.dv * m.duv_dt[1]
            cd = plate_region.composite_eval(s, t, order=1)
            assert np.abs(cd.dx_ds - expected_ds).max() < 1e-12
            assert np.abs(cd.dx_dt - expected_dt).max() < 1e-12

    def test_composite_second_derivatives_match_finite_differences(
        self, plate_region, rng
    ):
        h = 1e-4
        count = 0
        while count < 50:
            s = 0.05 + 0.9 * rng.random()
            if abs(s - 0.5) < 0.02:
                continue
            t = 0.05 + 0.9 * rng.random()
            count += 1
            cd = plate_region.composite_eval(s, t, order=2)
            fd_ss = (
                plate_region.composite_eval(s + h, t, 1).dx_ds
                - plate_region.composite_eval(s - h, t, 1).dx_ds
            ) / (2 * h)
            fd_tt = (
                plate_region.composite_eval(s, t + h, 1).dx_dt
                - plate_region.composite_eval(s, t - h, 1).dx_dt
            ) / (2 * h)
            fd_st = (
                plate_region.composite_eval(s, t + h, 1).dx_ds
                - plate_region.composite_eval(s, t - h, 1).dx_ds
            ) / (2 * h)
            assert rel(cd.d2x_ds2 - fd_ss, cd.d2x_ds2) < 1e-5
            assert rel(cd.d2x_dt2 - fd_tt, cd.d2x_dt2) < 1e-5
            assert rel(cd.d2x_dsdt - fd_st, cd.d2x_dsdt) < 1e-5

    def test_mixed_term_is_symmetric_in_the_roles_of_s_and_t(self, plate_region, rng):
        for s, t in 0.02 + 0.96 * rng.random((25, 2)):
            m = plate_region.map_point(s, t)
            sd = plate_region.surface.evaluate(float(m.uv[0]), float(m.uv[1]), 2)
            us, vs = m.duv_ds
            ut, vt = m.duv_dt
            # d2uv_dsdt: the blend's t-derivative of duv_ds
            ust, vst = (
                plate_region.curve_top.evaluate(s, 1).d1
                - plate_region.curve_bottom.evaluate(s, 1).d1
            )
            one = (
                sd.duu * us * ut + sd.duv * (us * vt + ut * vs) + sd.dvv * vs * vt
                + sd.du * ust + sd.dv * vst
            )
            two = (
                sd.duu * ut * us + sd.duv * (ut * vs + vt * us) + sd.dvv * vt * vs
                + sd.du * ust + sd.dv * vst
            )
            cd = plate_region.composite_eval(s, t, order=2)
            assert np.abs(one - two).max() < 1e-10
            assert np.abs(cd.d2x_dsdt - one).max() < 1e-10

    def test_identity_trim_on_curved_surface_reproduces_surface(
        self, curved_surface, rng
    ):
        region = identity_region(curved_surface)
        for u, v in rng.random((20, 2)):
            sd = curved_surface.evaluate(u, v, 2)
            cd = region.composite_eval(u, v, order=2)
            assert np.abs(cd.x - sd.value).max() < 1e-13
            assert np.abs(cd.dx_ds - sd.du).max() < 1e-13
            assert np.abs(cd.dx_dt - sd.dv).max() < 1e-13
            assert np.abs(cd.d2x_ds2 - sd.duu).max() < 1e-13
            assert np.abs(cd.d2x_dsdt - sd.duv).max() < 1e-13

    def test_singular_map_error(self):
        curve = segment([0.0, 0.5], [1.0, 0.5])
        degenerate = TrimmedRegion(unit_square_surface(), curve, curve)
        with pytest.raises(SingularMapError) as err:
            degenerate.composite_eval(0.3, 0.4)
        assert "0.3" in str(err.value)

    def test_curve_just_outside_the_square_stays_evaluable(self):
        # the constructor snaps control points up to _CONTAIN_TOL outside
        # the square onto it, so the map stays evaluable and the region is
        # the whole square
        surface = unit_square_surface()
        region = TrimmedRegion(
            surface, segment([0.0, -5e-10], [1.0, -5e-10]), segment([0.0, 1.0], [1.0, 1.0])
        )
        with pytest.raises(DomainError):
            surface.evaluate(0.5, -5e-10)
        assert np.array_equal(region.composite_eval(0.5, 0.0, 1).x, [0.5, 0.0, 0.0])
        assert integrate(region, lambda cd: 1.0, 4) == pytest.approx(1.0, abs=1e-15)

    def test_fully_curved_composite_against_finite_differences(
        self, curved_surface, rng
    ):
        # rational 3D surface and rational trimming curves with a C1 kink:
        # every term of the first- and second-order chain rules is nonzero
        kv2 = KnotVector([0, 0, 0, 1, 1, 1], 2)
        kv2k = KnotVector([0, 0, 0, 0.6, 1, 1, 1], 2)
        bottom = NurbsCurve(
            kv2, [[0.1, 0.3], [0.5, 0.05], [0.9, 0.25]], [1.0, 0.8, 1.0]
        )
        top = NurbsCurve(
            kv2k,
            [[0.05, 0.9], [0.35, 0.7], [0.75, 0.95], [0.95, 0.8]],
            [1.0, 1.2, 0.9, 1.0],
        )
        region = TrimmedRegion(curved_surface, bottom, top)
        assert region.validate(16).ok
        h1, h2 = 1e-6, 1e-4
        checked = 0
        while checked < 40:
            s, t = 0.05 + 0.9 * rng.random(2)
            if abs(s - 0.6) < 0.03 or abs(s - 0.5) < 0.03:
                continue  # stay clear of curve and surface interior knots
            checked += 1
            cd = region.composite_eval(s, t, order=2)
            fd_s = (
                region.composite_eval(s + h1, t, 0).x
                - region.composite_eval(s - h1, t, 0).x
            ) / (2 * h1)
            fd_t = (
                region.composite_eval(s, t + h1, 0).x
                - region.composite_eval(s, t - h1, 0).x
            ) / (2 * h1)
            assert rel(cd.dx_ds - fd_s, cd.dx_ds) < 1e-7
            assert rel(cd.dx_dt - fd_t, cd.dx_dt) < 1e-7
            fd_ss = (
                region.composite_eval(s + h2, t, 1).dx_ds
                - region.composite_eval(s - h2, t, 1).dx_ds
            ) / (2 * h2)
            fd_tt = (
                region.composite_eval(s, t + h2, 1).dx_dt
                - region.composite_eval(s, t - h2, 1).dx_dt
            ) / (2 * h2)
            fd_st = (
                region.composite_eval(s, t + h2, 1).dx_ds
                - region.composite_eval(s, t - h2, 1).dx_ds
            ) / (2 * h2)
            assert np.abs(cd.d2x_dt2).max() > 1e-3  # genuinely curved in t
            assert rel(cd.d2x_ds2 - fd_ss, cd.d2x_ds2) < 1e-5
            assert rel(cd.d2x_dt2 - fd_tt, cd.d2x_dt2) < 1e-5
            assert rel(cd.d2x_dsdt - fd_st, cd.d2x_dsdt) < 1e-5


def seeded_regions(rng, count=4):
    """Random quadratic trimming pairs over the curved surface's square."""
    kv = KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)
    regions = []
    for _ in range(count):
        xs = np.concatenate([[0.0], np.sort(rng.random(2)), [1.0]])
        bottom = NurbsCurve(kv, np.column_stack([xs, 0.3 * rng.random(4)]),
                            0.5 + rng.random(4))
        top = NurbsCurve(kv, np.column_stack([xs, 0.7 + 0.3 * rng.random(4)]),
                         0.5 + rng.random(4))
        regions.append((bottom, top))
    return regions


class TestArrayCompositeEval:
    """Broadcast (s, t) grids give the scalar calls' values point by point."""

    FIELDS = {
        0: ("x", "dx_ds", "dx_dt", "jacobian_scale"),
        1: ("x", "dx_ds", "dx_dt", "jacobian_scale"),
        2: ("x", "dx_ds", "dx_dt", "d2x_ds2", "d2x_dt2", "d2x_dsdt", "jacobian_scale"),
    }

    def test_grid_matches_scalar_calls(self, curved_surface, plate_region, rng):
        regions = [plate_region] + [
            TrimmedRegion(curved_surface, bottom, top)
            for bottom, top in seeded_regions(rng)
        ]
        # s hits the curves' interior knots 0.4 and 0.5 and both ends
        s = np.concatenate([[0.0, 0.4, 0.5, 1.0], rng.random(3)])[:, None]
        t = np.concatenate([[0.0, 1.0], rng.random(3)])[None, :]
        for region in regions:
            for order in (0, 1, 2):
                grid = region.composite_eval(s, t, order)
                assert grid.jacobian_scale.shape == (7, 5)
                for i, j in np.ndindex(7, 5):
                    one = region.composite_eval(float(s[i, 0]), float(t[0, j]), order)
                    for name in self.FIELDS[order]:
                        ref = getattr(one, name)
                        got = getattr(grid, name)[i, j]
                        assert rel(got - ref, ref) <= 1e-13, (order, name, i, j)

    @pytest.mark.parametrize("name", ["plate"] + [
        f"seed 1001 region {k}" for k in (9, 0, 6, 12, 18, 24, 30, 36, 42)])
    def test_gauss_panel_batch_equals_scalar_calls_bitwise(self, name, plate_region):
        # the blend, surface and chain-rule path as the plate runs it: a
        # whole gauss_panels batch, (c, 1, n, 1) s-nodes by (1, T, 1, n)
        # t-nodes, on a tiling with extra lines; region 9 has a (2, 3)
        # surface with 3 and 2 interior knots. The batch unpacks its
        # components as views and a scalar call as floats: the two must
        # give the same bits in every field of map_point and composite_eval
        region = (plate_region if name == "plate"
                  else generate_regions(1001)[int(name.rsplit(" ", 1)[1])][0])
        s_breaks, t_breaks = region.breaklines()
        tiling = Tiling(s_breaks + [0.25, 0.5, 0.75], t_breaks + [0.3, 0.6])
        (s, t, weights), = gauss_panels(tiling, 3)
        calls = [(region.map_point, ("uv", "duv_ds", "duv_dt", "det"))] + [
            (lambda s, t, order=order: region.composite_eval(s, t, order), self.FIELDS[order])
            for order in (0, 1, 2)
        ]
        for call, fields in calls:
            batch = call(s, t)
            for k, l, i, j in np.ndindex(weights.shape):
                one = call(float(s[k, 0, i, 0]), float(t[0, l, 0, j]))
                for field in fields:
                    # duv_dt has the s-nodes' shape only
                    got = getattr(batch, field)
                    got = np.broadcast_to(got, weights.shape + got.shape[weights.ndim:])
                    want = np.asarray(getattr(one, field))
                    assert got[k, l, i, j].tobytes() == want.tobytes(), field

    def test_map_point_broadcasts_over_s_and_t(self, plate_region):
        m = plate_region.map_point(np.array([[0.25], [0.5]]), np.array([[0.0, 1.0]]))
        assert m.uv.shape == (2, 2, 2)
        assert np.array_equal(m.det, [[plate_region.map_point(s, t).det for t in (0.0, 1.0)]
                                      for s in (0.25, 0.5)])

    def test_empty_batch_gives_empty_fields(self, curved_surface, plate_region):
        empty = np.zeros(0)
        for region in (plate_region, identity_region(curved_surface)):
            for order in (0, 1, 2):
                cd = region.composite_eval(empty, empty, order)
                for name in self.FIELDS[order]:
                    assert getattr(cd, name).shape[0] == 0, (order, name)

    def test_array_domain_error(self, plate_region):
        with pytest.raises(DomainError):
            plate_region.composite_eval(np.array([[0.5], [1.2]]), np.array([[0.5]]))

    def test_first_singular_point_in_s_major_order(self):
        # the top curve meets the bottom one at s = 0.75: the map collapses
        # there for every t, so the first singular point is (0.75, t[0])
        bottom = segment([0.0, 0.25], [1.0, 0.25])
        top = NurbsCurve(KnotVector([0, 0, 0.75, 1, 1], 1),
                         [[0.0, 0.75], [0.75, 0.25], [1.0, 0.75]])
        region = TrimmedRegion(unit_square_surface(), bottom, top)
        with pytest.raises(SingularMapError) as err:
            region.composite_eval(np.array([[0.25], [0.75], [0.75]]),
                                  np.array([[0.125, 0.5]]), 1)
        assert (err.value.s, err.value.t, err.value.scale) == (0.75, 0.125, 0.0)


@pytest.mark.parametrize("s, t", [(0.3, 0.7), (np.array([[0.3], [0.6]]), np.array([[0.2, 0.7]]))],
                         ids=["scalar", "batch"])
def test_each_query_goes_through_the_public_evaluators(plate_region, monkeypatch, s, t):
    """composite_eval calls NurbsCurve.evaluate twice and NurbsSurface.evaluate
    once, map_point the curves' alone: perfbench's tracer counts these class
    attributes, so a query that went round them would hide its work there."""
    counts = Counter()
    for cls in (NurbsCurve, NurbsSurface):
        def counted(self, *args, _evaluate=cls.evaluate, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            return _evaluate(self, *args, **kwargs)
        monkeypatch.setattr(cls, "evaluate", counted)
    for order in (0, 1, 2):
        counts.clear()
        plate_region.composite_eval(s, t, order)
        assert counts == {"NurbsCurve": 2, "NurbsSurface": 1}, order
    counts.clear()
    plate_region.map_point(s, t)
    assert counts == {"NurbsCurve": 2}


class TestSingularThreshold:
    """The singular-map test is relative to the surface's size."""

    def test_small_model_is_regular(self):
        region = identity_region(unit_square_surface(1e-8))
        cd = region.composite_eval(0.5, 0.5, 1)
        assert abs(cd.jacobian_scale - 1e-16) <= 1e-28

    def test_degenerate_region_is_singular_at_any_scale(self):
        curve = segment([0.0, 0.5], [1.0, 0.5])
        for scale in (1e-8, 1.0, 1e8):
            region = TrimmedRegion(unit_square_surface(scale), curve, curve)
            with pytest.raises(SingularMapError):
                region.composite_eval(0.5, 0.5, 1)


class TestValidateRegion:
    def test_plate_region_is_valid(self, plate_region):
        report = plate_region.validate(32)
        assert report.ok
        assert report.min_abs_det > 0.0
        assert not report.sign_change

    def test_reversed_top_curve_reports_sign_change(self, plate_region):
        folded = TrimmedRegion(
            plate_region.surface,
            plate_region.curve_bottom,
            plate_region.curve_top.reversed(),
        )
        report = folded.validate(16)
        assert report.sign_change
        assert not report.ok
        assert report.min_det < 0.0 < report.max_det
        assert "sign change" in report.summary()

    def test_identity_trim_has_unit_jacobian(self, square_region):
        report = square_region.validate(8)
        assert report.ok
        assert abs(report.min_det - 1.0) < 1e-14
        assert abs(report.max_det - 1.0) < 1e-14

    def test_touching_curves_reported_via_gap(self):
        bottom = segment([0.0, 0.0], [1.0, 0.0])
        top = NurbsCurve(
            KnotVector([0, 0, 0, 1, 1, 1], 2), [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
        )
        region = TrimmedRegion(unit_square_surface(), bottom, top)
        report = region.validate(16)
        assert report.min_curve_gap < 1e-12

    def test_grid_too_small(self, plate_region):
        with pytest.raises(DomainError):
            plate_region.validate(3)

    def test_matches_a_scalar_sweep_exactly(self, plate_region):
        folded = TrimmedRegion(
            plate_region.surface,
            plate_region.curve_bottom,
            plate_region.curve_top.reversed(),
        )
        for region, grid_n in ((plate_region, 16), (plate_region, 5), (folded, 16)):
            report = region.validate(grid_n)
            assert report == scalar_sweep(region, grid_n)
        assert report.sign_change


def scalar_sweep(region, grid_n):
    """RegionReport from one scalar curve evaluation per s and one det per point."""
    grid = np.linspace(0.0, 1.0, grid_n + 1)
    dets, gaps = [], []
    for s in grid:
        b = region.curve_bottom.evaluate(s, 1)
        tp = region.curve_top.evaluate(s, 1)
        duv_dt = tp.value - b.value
        gaps.append(float(np.linalg.norm(duv_dt)))
        for t in grid:
            duv_ds = (1.0 - t) * b.d1 + t * tp.d1
            dets.append(float(duv_ds[0] * duv_dt[1] - duv_ds[1] * duv_dt[0]))
    lo, hi = min(dets), max(dets)
    return RegionReport(grid_n, lo, hi, min(abs(d) for d in dets),
                        not (lo > 0.0 or hi < 0.0), min(gaps))


class TestBreakpoints:
    def test_plate_region_has_single_c0_breakpoint(self, plate_region):
        bps = plate_region.breakpoints()
        assert len(bps) == 1
        assert abs(bps[0].s - 0.5) < 1e-15
        assert bps[0].continuity == 0

    def test_identity_trim_has_none(self, square_region):
        assert square_region.breakpoints() == []

    def test_union_deduplicates(self):
        kv_one = KnotVector([0, 0, 0, 0.25, 1, 1, 1], 2)
        kv_two = KnotVector([0, 0, 0, 0.25, 0.75, 1, 1, 1], 2)
        bottom = NurbsCurve(kv_one, [[0, 0], [0.3, 0], [0.7, 0], [1, 0]])
        top = NurbsCurve(kv_two, [[0, 1], [0.3, 1], [0.5, 1], [0.7, 1], [1, 1]])
        region = TrimmedRegion(unit_square_surface(), bottom, top)
        svals = [bp.s for bp in region.breakpoints()]
        assert np.allclose(svals, [0.25, 0.75])
        assert all(bp.continuity == 1 for bp in region.breakpoints())


class TestConstruction:
    def test_rejects_control_points_outside_unit_square(self):
        bad = segment([0.0, 0.0], [1.5, 0.0])
        with pytest.raises(InvalidGeometryError):
            TrimmedRegion(unit_square_surface(), bad, segment([0, 1], [1, 1]))

    def test_accepts_flat_3d_parameter_curves(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        arc3d = NurbsCurve(
            kv, [[0, 0.2, 0.0], [0.2, 0.2, 0.0], [0.2, 0.0, 0.0]], [1, 0.707, 1]
        )
        region = TrimmedRegion(
            unit_square_surface(), arc3d, segment([0, 1], [1, 1])
        )
        assert region.curve_bottom.dim == 2

    def test_rejects_nonflat_3d_parameter_curve(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        lifted = NurbsCurve(kv, [[0.0, 0.0, 0.2], [1.0, 0.0, 0.2]])
        with pytest.raises(InvalidGeometryError):
            TrimmedRegion(unit_square_surface(), lifted, segment([0, 1], [1, 1]))


@pytest.mark.parametrize("surface", ["plane", None, segment([0, 0], [1, 1])],
                         ids=["string", "None", "curve"])
def test_a_surface_that_is_not_a_nurbs_surface_is_rejected(surface):
    with pytest.raises(InvalidGeometryError, match="surface must be a NurbsSurface"):
        TrimmedRegion(surface, segment([0, 0], [1, 0]), segment([0, 1], [1, 1]))


OUT = 5e-10  # outside the square, within _CONTAIN_TOL


class TestSnapIntoTheSquare:
    """Control points within _CONTAIN_TOL outside the square are snapped onto it."""

    @staticmethod
    def region():
        # rational curves with control points OUT outside the square on every side
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        bottom = NurbsCurve(kv, [[-OUT, -OUT], [0.5, 0.4], [1 + OUT, -OUT]], [1.0, 0.7, 1.0])
        top = NurbsCurve(kv, [[-OUT, 1 + OUT], [0.5, 0.6], [1 + OUT, 1 + OUT]], [1.0, 1.3, 1.0])
        return TrimmedRegion(unit_square_surface(), bottom, top)

    def test_a_point_just_below_is_stored_on_the_edge(self):
        top = segment([0, 1], [1, 1])
        region = TrimmedRegion(unit_square_surface(), segment([0.0, -OUT], [1.0, -OUT]), top)
        assert region.curve_bottom.control_points.tolist() == [[0.0, 0.0], [1.0, 0.0]]
        assert region.curve_top is top  # a 2D curve inside is neither copied nor rebuilt

    def test_the_map_stays_in_the_square_on_a_grid_with_its_edges(self):
        region = self.region()
        grid = np.linspace(0.0, 1.0, 33)
        uv = region.map_point(grid, grid[:, None]).uv
        assert uv.min() >= -1e-15 and uv.max() <= 1.0 + 1e-15
        cd = region.composite_eval(grid, grid[:, None], 2)
        assert np.abs(cd.x[..., :2] - uv).max() <= 1e-15  # the surface is the identity

    @pytest.mark.parametrize("write, read", [
        (iges.region_to_iges, lambda text: list(iges.parse(text).curves.values())),
        (native.format_region, lambda text: native.parse_entities(text)[1:]),
    ], ids=["iges", "native"])
    def test_round_trips_write_the_snapped_points(self, write, read):
        region = self.region()
        written = read(write(region))
        snapped = [[[0.0, 0.0], [0.5, 0.4], [1.0, 0.0]], [[0.0, 1.0], [0.5, 0.6], [1.0, 1.0]]]
        assert [c.control_points[:, :2].tolist() for c in written] == snapped


def test_a_nan_measure_is_singular():
    with pytest.raises(SingularMapError, match="nan"):
        check_regular(float("nan"), 1e-14, 0.25, 0.5)
    with pytest.raises(SingularMapError) as info:
        check_regular(np.array([[1.0, 1.0], [np.nan, 1.0]]), 1e-14,
                      np.array([[0.1], [0.2]]), np.array([[0.3, 0.4]]))
    assert (info.value.s, info.value.t) == (0.2, 0.3)
    check_regular(np.array([1.0, 2.0]), 1e-14, 0.5, np.array([0.1, 0.2]))
