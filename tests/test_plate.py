import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimiga import plate, quadrature
from trimiga.errors import AssemblyError, DomainError, SingularMapError, SolveError
from trimiga.nurbs import KnotVector, NurbsCurve, NurbsSurface, collocation_matrix, merge_close
from trimiga.plate import (
    FieldSpace,
    Free,
    Material,
    PlateConfig,
    Symmetry,
    Traction,
    assemble,
    assemble_stiffness,
    assemble_tractions,
    convergence_rates,
    kirsch_reference,
    physical_gradients,
    plate_boundary_conditions,
    plate_field,
    solve_plate,
    solve_problem,
    stress_error_l2,
    symmetry_constraints,
)
from trimiga.quadrature import gauss_points_1d, partition_regions, unit_lines
from trimiga.shapes import (
    HOLE_PARAM_RADIUS,
    hole_arc_curve,
    outer_polyline_curve,
    plate_with_hole_region,
    unit_square_surface,
)
from trimiga.trimming import CompositeDerivatives, TrimmedRegion

from conftest import DirectGeometry, identity_region, refined_h, segment

MAT = Material(1e5, 0.3)


def unit_field(degree=1):
    kv = KnotVector([0.0] * (degree + 1) + [1.0] * (degree + 1), degree)
    return FieldSpace(kv, kv)


def hole_radius(config):
    """The built-in plate's hole radius at the configured scale."""
    return HOLE_PARAM_RADIUS * config.scale


def kirsch_stresses(config):
    """The built-in plate's reference stresses as a function of (x, y)."""

    def reference(x, y):
        ref = kirsch_reference(x, y, config.far_stress, hole_radius(config), config.material)
        return ref.sxx, ref.syy, ref.sxy

    return reference


def parametric_gradients(field, s, t):
    """(dN_ds, dN_dt) at one (s, t), as products of the 1D tables of KnotVector.basis."""
    _, ds = field.knot_vector_s.basis(s, 1)
    _, dt = field.knot_vector_t.basis(t, 1)
    return np.outer(ds[1], dt[0]).ravel(), np.outer(ds[0], dt[1]).ravel()


def tension_bcs(direction=0, magnitude=1.0):
    load = np.zeros(2)
    load[direction] = magnitude
    return {
        "s0": Symmetry(),
        "t0": Symmetry(),
        "s1": Traction(lambda x, n: load) if direction == 0 else Free(),
        "t1": Traction(lambda x, n: load) if direction == 1 else Free(),
    }


class TestFieldSpace:
    def test_conforming_space_inherits_c0_knot(self, plate_region):
        field = FieldSpace.conforming(plate_region, 2)
        values, mults = field.knot_vector_s.interior()
        assert values == [0.5] and mults == [2]
        assert field.knot_vector_t.interior() == ([], [])

    def test_bilinear_basis_at_center(self):
        field = unit_field(1)
        idx, values = field.basis(0.5, 0.5)
        assert len(values) == 4
        assert np.allclose(values, 0.25, atol=1e-15)

    def test_partition_of_unity(self, plate_region, square_region, rng):
        # the gradients on the identity map are the parametric ones
        field = refined_h(FieldSpace.conforming(plate_region, 2))
        for s, t in rng.random((40, 2)):
            _, values = field.basis(s, t)
            _, _, dN_ds, dN_dt, _ = physical_gradients(square_region, field, s, t)
            assert abs(values.sum() - 1.0) < 1e-13
            assert abs(dN_ds.sum()) < 1e-12
            assert abs(dN_dt.sum()) < 1e-12

    def test_basis_count(self, plate_region):
        field = FieldSpace.conforming(plate_region, 2)
        idx, values = field.basis(0.3, 0.8)
        assert len(values) == 9  # (p_s + 1) * (p_t + 1)

    def test_derivatives_match_finite_differences(self, plate_region, square_region, rng):
        # the gradients on the identity map are the parametric ones
        field = FieldSpace.conforming(plate_region, 2)
        h = 1e-6
        for _ in range(50):
            s, t = 0.05 + 0.9 * rng.random(2)
            _, _, dN_ds, dN_dt, _ = physical_gradients(square_region, field, s, t)
            _, vp = field.basis(s + h, t)
            _, vm = field.basis(s - h, t)
            fd_s = (vp - vm) / (2 * h)
            _, vp = field.basis(s, t + h)
            _, vm = field.basis(s, t - h)
            fd_t = (vp - vm) / (2 * h)
            assert np.abs(dN_ds - fd_s).max() / max(np.abs(dN_ds).max(), 1.0) < 1e-7
            assert np.abs(dN_dt - fd_t).max() / max(np.abs(dN_dt).max(), 1.0) < 1e-7

    def test_domain_error(self):
        with pytest.raises(DomainError):
            unit_field().basis(1.2, 0.0)

    def test_h_refinement_is_nested(self, plate_region):
        field = FieldSpace.conforming(plate_region, 2)
        fine = refined_h(field)
        params = np.linspace(0.0, 1.0, 211)
        for coarse_kv, fine_kv in (
            (field.knot_vector_s, fine.knot_vector_s),
            (field.knot_vector_t, fine.knot_vector_t),
        ):
            C_old = collocation_matrix(coarse_kv, params)
            C_new = collocation_matrix(fine_kv, params)
            sol, *_ = np.linalg.lstsq(C_new, C_old, rcond=None)
            residual = np.abs(C_new @ sol - C_old).max()
            assert residual < 1e-12

    def test_bisection_matches_one_insertion_per_span(self, plate_region):
        field = FieldSpace.conforming(plate_region, 2)
        for _ in range(4):
            fine = refined_h(field)
            for coarse_kv, fine_kv in (
                (field.knot_vector_s, fine.knot_vector_s),
                (field.knot_vector_t, fine.knot_vector_t),
            ):
                spans = merge_close(coarse_kv.knots)[0]
                one_at_a_time = coarse_kv
                for a, b in zip(spans[:-1], spans[1:]):
                    one_at_a_time = one_at_a_time.inserted(0.5 * (a + b), 1)
                assert fine_kv.degree == coarse_kv.degree
                assert np.array_equal(fine_kv.knots, one_at_a_time.knots)
            field = fine

    def test_refinement_leaves_geometry_untouched(self, plate_region, rng):
        field = FieldSpace.conforming(plate_region, 2)
        before = [plate_region.composite_eval(s, t).x for s, t in rng.random((20, 2))]
        refined_h(field)
        rng2 = np.random.default_rng(20240615)
        after = [plate_region.composite_eval(s, t).x for s, t in rng2.random((20, 2))]
        for a, b in zip(before, after):
            assert np.all(a == b)


class TestPhysicalGradients:
    def test_identity_map_gives_parametric_gradients(self, square_region, rng):
        field = unit_field(2)
        for s, t in rng.random((15, 2)):
            dN_ds, dN_dt = parametric_gradients(field, s, t)
            _, _, dN_dx, dN_dy, _ = physical_gradients(square_region, field, s, t)
            assert np.abs(dN_dx - dN_ds).max() < 1e-13
            assert np.abs(dN_dy - dN_dt).max() < 1e-13

    def test_linear_field_has_exact_gradient(self, poly_plate_region, rng):
        # interpolate u(x, y) = x exactly: the (polynomial) map components lie
        # in the conforming field space, so Greville collocation is exact
        region = poly_plate_region
        field = FieldSpace.conforming(region, 2)
        gs, gt = field.knot_vector_s.greville(), field.knot_vector_t.greville()
        V = np.array(
            [[region.composite_eval(s, t, 0).x[:2] for t in gt] for s in gs]
        )
        Cs = collocation_matrix(field.knot_vector_s, gs)
        Ct = collocation_matrix(field.knot_vector_t, gt)
        coeffs_x = np.linalg.solve(Cs, np.linalg.solve(Ct, V[..., 0].T).T)
        coeffs_y = np.linalg.solve(Cs, np.linalg.solve(Ct, V[..., 1].T).T)
        for _ in range(25):
            s, t = rng.random(2)
            _, _, dN_dx, dN_dy, _ = physical_gradients(region, field, s, t)
            idx, _ = field.basis(s, t)
            cx = coeffs_x.ravel()[idx]
            cy = coeffs_y.ravel()[idx]
            assert abs(dN_dx @ cx - 1.0) < 1e-12
            assert abs(dN_dy @ cx) < 1e-12
            assert abs(dN_dx @ cy) < 1e-12
            assert abs(dN_dy @ cy - 1.0) < 1e-12

    def test_gradients_match_map_inversion_oracle(self, plate_region, rng):
        # differentiate the field along physical axes by inverting the map
        # with Newton iteration: independent of the jacobian-solve code path
        field = FieldSpace.conforming(plate_region, 2)

        def invert(target, s, t):
            for _ in range(60):
                cd = plate_region.composite_eval(s, t, 1)
                r = cd.x[:2] - target
                if np.abs(r).max() < 1e-14:
                    break
                J = np.array([[cd.dx_ds[0], cd.dx_dt[0]], [cd.dx_ds[1], cd.dx_dt[1]]])
                ds, dt = np.linalg.solve(J, -r)
                s = min(max(s + ds, 0.0), 1.0)
                t = min(max(t + dt, 0.0), 1.0)
            return s, t

        h = 1e-6
        checked = 0
        while checked < 25:
            s, t = 0.15 + 0.7 * rng.random(2)
            if abs(s - 0.5) < 0.05:
                continue
            checked += 1
            _, _, dN_dx, dN_dy, cd = physical_gradients(plate_region, field, s, t)
            x0 = cd.x[:2]
            for axis, analytic in ((0, dN_dx), (1, dN_dy)):
                step = np.zeros(2)
                step[axis] = h
                sp, tp = invert(x0 + step, s, t)
                sm, tm = invert(x0 - step, s, t)
                _, vp = field.basis(sp, tp)
                _, vm = field.basis(sm, tm)
                fd = (vp - vm) / (2 * h)
                assert np.abs(analytic - fd).max() / max(np.abs(analytic).max(), 1.0) < 1e-6


class TestAssembly:
    def test_stiffness_is_symmetric(self, plate_region):
        field = FieldSpace.conforming(plate_region, 2)
        bcs = {"s0": Symmetry(), "s1": Symmetry(), "t0": Free(), "t1": Free()}
        K, _, _ = assemble(plate_region, field, MAT, bcs)
        assert np.abs(K - K.T).max() < 1e-10 * np.abs(K).max()

    def test_rigid_translations_are_in_the_kernel(self, plate_region):
        field = FieldSpace.conforming(plate_region, 2)
        bcs = {"s0": Free(), "s1": Free(), "t0": Free(), "t1": Free()}
        K, _, _ = assemble(plate_region, field, MAT, bcs)
        scale = np.abs(K).max()
        for component in (0, 1):
            r = np.zeros(K.shape[0])
            r[component::2] = 1.0
            assert np.abs(K @ r).max() < 1e-9 * scale

    def test_constant_stress_patch_on_identity_trim(self, square_region):
        field = unit_field(1)
        load = 1.0
        result = solve_problem(square_region, field, MAT, tension_bcs(0, load))
        for s in np.linspace(0.0, 1.0, 7):
            for t in np.linspace(0.0, 1.0, 7):
                sig = result.stress(s, t)
                assert abs(sig[0] - load) < 1e-10
                assert abs(sig[1]) < 1e-10
                assert abs(sig[2]) < 1e-10

        # the error norm against the exact field, a uniform tension
        def uniform(x, y):
            return tuple(np.broadcast_to(v, np.shape(x)) for v in (load, 0.0, 0.0))

        assert stress_error_l2(result, uniform, 3) <= 1e-12

    def test_missing_edge_is_an_error(self, square_region):
        with pytest.raises(AssemblyError):
            assemble(square_region, unit_field(), MAT, {"s0": Free()})

    def test_symmetry_needs_axis_aligned_edges(self):
        # quarter-turned-by-30-degrees square: normals are not axis aligned
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        kv = KnotVector([0, 0, 1, 1], 1)
        net = np.array(
            [
                [[0.0, 0.0, 0.0], [-s, c, 0.0]],
                [[c, s, 0.0], [c - s, c + s, 0.0]],
            ]
        )
        region = identity_region(NurbsSurface(kv, kv, net))
        with pytest.raises(AssemblyError):
            solve_problem(region, unit_field(), MAT, tension_bcs(0))

    @staticmethod
    def wavy_edge_region():
        """A fold-free region whose s = 0 edge x = q(y) / 2, with q' = (y - 1/4)
        (y - 1/2)(y - 3/4), is vertical at y = 1/4, 1/2 and 3/4 only.

        Returns (region, the edge's x as a function of y).
        """
        def edge_x(y):
            return 0.5 * (y**4 / 4 - y**3 / 2 + 0.34375 * y**2 - 0.09375 * y)

        kv = KnotVector([0.0] * 5 + [1.0] * 5, 4)
        v = np.linspace(0.0, 1.0, 5)
        net = np.zeros((2, 5, 3))
        net[0, :, 0] = np.linalg.solve(collocation_matrix(kv, v), edge_x(v))
        net[1, :, 0] = 1.0
        net[..., 1] = v  # the Bernstein coefficients i / 4 of y = v
        return identity_region(NurbsSurface(KnotVector([0, 0, 1, 1], 1), kv, net)), edge_x

    def test_symmetry_edge_is_checked_at_every_gauss_point(self):
        region, edge_x = self.wavy_edge_region()
        assert region.validate(16).ok
        field, bcs = refined_h(FieldSpace.conforming(region, 2)), tension_bcs(0)
        for call in (lambda: symmetry_constraints(region, field, bcs),
                     lambda: solve_problem(region, field, MAT, bcs)):
            with pytest.raises(AssemblyError, match="edge s0: .*axis-aligned") as err:
                call()
            x, y = map(float, re.search(r"\(x, y\) = \((.+), (.+)\)", str(err.value)).groups())
            assert abs(x - edge_x(y)) < 1e-12  # a point of the s = 0 edge

    def test_symmetry_edges_are_checked_before_any_integral(self, monkeypatch):
        def reached(*args):
            raise AssertionError("an integral ran before the symmetry edges were checked")

        for name in ("assemble_tractions", "assemble_stiffness"):
            monkeypatch.setattr(plate, name, reached)
        region, _ = self.wavy_edge_region()
        field, bcs = refined_h(FieldSpace.conforming(region, 2)), tension_bcs(0)
        for call in (lambda: assemble(region, field, MAT, bcs),
                     lambda: solve_problem(region, field, MAT, bcs)):
            with pytest.raises(AssemblyError, match="edge s0: .*axis-aligned"):
                call()

    def test_nonplanar_surface_is_rejected(self, curved_surface):
        # a bare region and the mapping-bypassed geometry, at every entry
        # point, and at the two that read only the edges
        field, bcs = unit_field(2), tension_bcs(0)
        for geometry in (identity_region(curved_surface), DirectGeometry(curved_surface)):
            for call in (
                lambda: physical_gradients(geometry, field, 0.3, 0.6),
                lambda: assemble_stiffness(geometry, field, MAT, 3),
                lambda: assemble(geometry, field, MAT, bcs),
                lambda: solve_problem(geometry, field, MAT, bcs),
                lambda: assemble_tractions(geometry, field, bcs, 3),
                lambda: symmetry_constraints(geometry, field, bcs),
            ):
                with pytest.raises(AssemblyError, match="planar"):
                    call()

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_planarity_is_relative_to_the_net_size(self, scale):
        def lifted(z):
            """The unit square at scale, one corner lifted by z times scale."""
            net = unit_square_surface(scale).control_net.copy()
            net[1, 1, 2] = z * scale
            kv = KnotVector([0, 0, 1, 1], 1)
            return identity_region(NurbsSurface(kv, kv, net))

        field = unit_field()
        dN_dx = physical_gradients(lifted(1e-12), field, 0.3, 0.6)[2]
        assert np.isfinite(dN_dx).all()
        with pytest.raises(AssemblyError, match="planar"):
            physical_gradients(lifted(1e-6), field, 0.3, 0.6)

    def test_direct_geometry_serves_first_derivatives_only(self):
        geometry = DirectGeometry(unit_square_surface())
        assert geometry.composite_eval(0.25, 0.5, 1).jacobian_scale == 1.0
        for order in (0, 2):
            with pytest.raises(DomainError, match="order 1 only"):
                geometry.composite_eval(0.25, 0.5, order)

    def test_stiffness_is_canonical_csr_with_int32_indices(self):
        for stage, nnz in ((0, 4512), (3, 214512)):
            config = PlateConfig(stage=stage)
            region = plate_with_hole_region(config.scale)
            K = assemble_stiffness(region, plate_field(region, config), MAT, 3)
            assert K.has_canonical_format
            assert K.indices.dtype == np.int32
            assert K.nnz == nnz

    def test_stiffness_matches_a_dense_point_by_point_sum(self):
        # stage 1 of the plate benchmark, with its double knot at s = 0.5
        config = PlateConfig(stage=1)
        region = plate_with_hole_region(config.scale)
        field = plate_field(region, config)
        K = assemble_stiffness(region, field, MAT, 3)
        assert K.shape == (380, 380)  # the 380 dofs of stage 1
        assert_matches_point_sum(K, region, field, 3)

    def test_direct_stiffness_matches_a_dense_point_by_point_sum(self, rng):
        # a planar biquadratic surface of two spans by three, seen directly;
        # the field's spans differ from the surface's in both directions
        kv_u = KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)
        kv_v = KnotVector([0, 0, 0, 0.3, 0.7, 1, 1, 1], 2)
        net = np.zeros((4, 5, 3))
        net[..., 0] = np.arange(4)[:, None] + 0.2 * rng.random((4, 5))
        net[..., 1] = np.arange(5)[None, :] + 0.2 * rng.random((4, 5))
        surface = NurbsSurface(kv_u, kv_v, net, 0.8 + 0.4 * rng.random((4, 5)))
        field = FieldSpace(KnotVector([0, 0, 0, 0.5, 0.5, 1, 1, 1], 2),
                           KnotVector([0, 0, 0.25, 0.5, 0.75, 1, 1], 1))
        geometry = DirectGeometry(surface)
        K = assemble_stiffness(geometry, field, MAT, 3)
        assert K.has_canonical_format and K.indices.dtype == np.int32
        assert_matches_point_sum(K, geometry, field, 3)

    def test_batching_leaves_the_integrals_unchanged(self, monkeypatch):
        # one column per batch against the whole tiling in one batch
        config = PlateConfig(stage=1, bc_mode="exact")
        solution = solve_plate(config).solution
        results = []
        for batch_points in (1, 1 << 40):
            monkeypatch.setattr(quadrature, "BATCH_POINTS", batch_points)
            K = assemble_stiffness(solution.geometry, solution.field, MAT, 3)
            results.append((K, stress_error_l2(solution, kirsch_stresses(config), 5)))
        (K1, l2_1), (K2, l2_2) = results
        assert l2_1 == l2_2
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(K1, name), getattr(K2, name))

    def test_batching_sets_no_bit_of_a_solve(self, monkeypatch):
        # one column per batch, the default and the whole tiling in one batch
        results = []
        for batch_points in (1, quadrature.BATCH_POINTS, 1 << 40):
            monkeypatch.setattr(quadrature, "BATCH_POINTS", batch_points)
            result = solve_plate(PlateConfig(stage=2, bc_mode="exact"))
            results.append((result.solution.coeffs.tobytes(), result.l2_stress_error,
                            result.rim_stress))
        assert results[0] == results[1] == results[2]

    def test_panel_across_a_field_knot_is_an_error(self, plate_region, monkeypatch):
        # tiling without the field's knot lines puts one panel over many spans
        monkeypatch.setattr(plate, "partition_regions",
                            lambda geometry, field: partition_regions(geometry))
        field = refined_h(FieldSpace.conforming(plate_region, 2))
        with pytest.raises(AssemblyError, match="field knot span"):
            assemble_stiffness(plate_region, field, MAT, 3)

    @pytest.mark.parametrize("s_knot, panel", [(0.7, (0, 1)), (0.3, (0, 0))])
    def test_split_panel_named_is_the_first_in_c_order(self, monkeypatch, s_knot, panel):
        # columns [0, .5], [.5, 1] and t-panels [0, .25], [.25, 1] against
        # field knots at s = s_knot and t = 0.6: the s-knot splits one whole
        # column and the t-knot the second panel of each column
        monkeypatch.setattr(plate, "partition_regions",
                            lambda geometry, field: quadrature.Tiling([0.5], [0.25]))
        field = FieldSpace(KnotVector([0, 0, s_knot, 1, 1], 1),
                           KnotVector([0, 0, 0.6, 1, 1], 1))
        x, _ = gauss_points_1d(3)
        c, k = panel
        s, t = 0.5 * c + 0.5 * x[0], (0.0, 0.25)[k] + (0.25, 0.75)[k] * x[0]
        with pytest.raises(AssemblyError, match=re.escape(f"(s, t) = ({s:.6g}, {t:.6g})")):
            assemble_stiffness(DirectGeometry(unit_square_surface()), field, MAT, 3)

    def test_singular_point_is_reported_in_panel_order(self):
        # one column of three panels (t-tiles [0, .25], [.25, .5], [.5, 1]);
        # the first singular point met panel by panel is in panel 1 on s-row
        # 2, ahead of one in panel 2 on s-row 0
        x, _ = gauss_points_1d(3)
        first = (x[2], 0.25 + 0.25 * x[0])
        later = (x[0], 0.5 + 0.5 * x[1])
        geometry = SingularAt([first, later])
        field = FieldSpace(KnotVector([0, 0, 1, 1], 1),
                           KnotVector([0, 0, 0.25, 0.5, 1, 1], 1))
        with pytest.raises(SingularMapError) as err:
            assemble_stiffness(geometry, field, MAT, 3)
        assert (err.value.s, err.value.t) == first

    def test_import_leaves_scipy_unloaded(self):
        # scipy is imported by the solve; importing it with the package
        # would double the import time
        code = "import sys, trimiga; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"


def uniform_knots(spans, degree):
    return [0.0] * degree + list(np.linspace(0.0, 1.0, spans + 1)) + [1.0] * degree


def dense_solution(geometry, field, bcs):
    """Coefficients from a dense solve of the system restricted to the free dofs."""
    K, f, _ = assemble(geometry, field, MAT, bcs)
    free = np.ones(K.shape[0], dtype=bool)
    free[list(symmetry_constraints(geometry, field, bcs))] = False
    dense = np.zeros(K.shape[0])
    dense[free] = np.linalg.solve(K.toarray()[np.ix_(free, free)], f[free])
    return dense


def assert_matches_point_sum(K, geometry, field, n):
    """K against a dense sum of w |J| B^T D B, one Gauss point at a time."""
    D = MAT.plane_stress_matrix()
    dense = np.zeros(K.shape)
    x, w = gauss_points_1d(n)
    for s0, hs, t0, ht in panels(partition_regions(geometry, field)):
        for i, j in np.ndindex(n, n):
            s, t = s0 + hs * x[i], t0 + ht * x[j]
            _, _, dN_dx, dN_dy, cd = physical_gradients(geometry, field, s, t)
            idx, _ = field.basis(s, t)
            B = np.zeros((3, 2 * idx.size))
            B[0, 0::2] = B[2, 1::2] = dN_dx
            B[1, 1::2] = B[2, 0::2] = dN_dy
            dofs = np.stack([2 * idx, 2 * idx + 1], axis=-1).ravel()
            weight = w[i] * w[j] * hs * ht * cd.jacobian_scale
            dense[np.ix_(dofs, dofs)] += weight * (B.T @ D @ B)
    assert K.nnz == np.count_nonzero(dense)
    assert np.abs(K.toarray() - dense).max() <= 1e-12 * np.abs(dense).max()


def panels(tiling):
    """(s0, hs, t0, ht) of each panel between a tiling's lines, s-major."""
    s_lines, t_lines = tiling.s_lines.tolist(), tiling.t_lines.tolist()
    for s0, s1 in zip(s_lines[:-1], s_lines[1:]):
        for t0, t1 in zip(t_lines[:-1], t_lines[1:]):
            yield s0, s1 - s0, t0, t1 - t0


class SingularAt:
    """The unit square seen directly, singular at the given (s, t) points."""

    surface = unit_square_surface()

    def __init__(self, points):
        self.points = points

    def composite_eval(self, s, t, order):
        s, t = np.broadcast_arrays(np.asarray(s, dtype=float), t)
        hit = np.zeros(s.shape, dtype=bool)
        for ps, pt in self.points:
            hit |= (s == ps) & (t == pt)
        x = np.stack([s, t, np.zeros_like(s)], axis=-1)
        dx_ds = np.where(hit[..., None], 0.0, np.array([1.0, 0.0, 0.0]))
        dx_dt = np.broadcast_to(np.array([0.0, 1.0, 0.0]), x.shape)
        return CompositeDerivatives(x, dx_ds, dx_dt, jacobian_scale=np.where(hit, 0.0, 1.0))

    def breaklines(self):
        return [], []

    def max_degree(self):
        return 1


def point_traction(config, xy, normal):
    """The plate's outer traction at one point, by the scalar formulas."""
    if config.bc_mode == "paper" and abs(normal[0]) > abs(normal[1]):
        return np.array([config.far_stress, 0.0])
    ref = kirsch_reference(xy[0], xy[1], config.far_stress, hole_radius(config),
                           config.material)
    return np.array([[ref.sxx, ref.sxy], [ref.sxy, ref.syy]]) @ normal


@pytest.mark.parametrize("bc_mode", ["exact", "paper"])
class TestColumnsMatchPointLoops:
    """Stage 1 of the plate benchmark against one scalar call per point."""

    def test_tractions_match_bitwise(self, bc_mode):
        config = PlateConfig(stage=1, bc_mode=bc_mode)
        region = plate_with_hole_region(config.scale)
        field = plate_field(region, config)
        bcs = plate_boundary_conditions(config, hole_radius(config))
        f = assemble_tractions(region, field, bcs, 3)
        ref = np.zeros_like(f)
        x, w = gauss_points_1d(3)
        lines = unit_lines(region.breaklines()[0] + field.knot_vector_s.interior()[0])
        for a, b in zip(lines[:-1], lines[1:]):
            h = b - a
            for k in range(3):
                s = a + h * x[k]
                cd = region.composite_eval(s, 1.0, 1)
                tangent = cd.dx_ds[:2]
                normal = np.array([tangent[1], -tangent[0]]) / np.linalg.norm(tangent)
                if normal @ cd.dx_dt[:2] < 0.0:
                    normal = -normal
                tvec = point_traction(config, cd.x[:2], normal)
                idx, values = field.basis(s, 1.0)
                ds = float(np.linalg.norm(tangent))
                ref[2 * idx] += w[k] * h * ds * values * tvec[0]
                ref[2 * idx + 1] += w[k] * h * ds * values * tvec[1]
        assert np.count_nonzero(f) > 0
        assert np.array_equal(f, ref)

    def test_stress_error_matches_a_point_loop(self, bc_mode):
        config = PlateConfig(stage=1, bc_mode=bc_mode)
        result = solve_plate(config)
        solution = result.solution
        D = config.material.plane_stress_matrix()
        x, w = gauss_points_1d(5)
        num, den = [], []
        tiling = partition_regions(solution.geometry, solution.field)
        for s0, hs, t0, ht in panels(tiling):
            for i, j in np.ndindex(5, 5):
                st = s0 + hs * x[i], t0 + ht * x[j]
                strain = solution.strain(*st)
                cd = solution.geometry.composite_eval(*st, 1)
                ref = kirsch_reference(cd.x[0], cd.x[1], config.far_stress,
                                       hole_radius(config), config.material)
                diff = D @ strain - ref.stress
                weight = w[i] * w[j] * hs * ht * cd.jacobian_scale
                num.append(weight * (diff[0] ** 2 + diff[1] ** 2 + 2.0 * diff[2] ** 2))
                den.append(weight * (ref.sxx ** 2 + ref.syy ** 2 + 2.0 * ref.sxy ** 2))
        expected = math.sqrt(math.fsum(num) / math.fsum(den))
        got = stress_error_l2(solution, kirsch_stresses(config), 5)
        assert got == result.l2_stress_error
        assert abs(got - expected) <= 1e-13 * expected


def point_loop_l2(solution, config, radius, n):
    """The relative L2 stress error by one scalar strain per Gauss point."""
    D = config.material.plane_stress_matrix()
    x, w = gauss_points_1d(n)
    num, den = [], []
    for s0, hs, t0, ht in panels(partition_regions(solution.geometry, solution.field)):
        for i, j in np.ndindex(n, n):
            st = s0 + hs * x[i], t0 + ht * x[j]
            strain = solution.strain(*st)
            cd = solution.geometry.composite_eval(*st, 1)
            ref = kirsch_reference(cd.x[0], cd.x[1], config.far_stress, radius,
                                   config.material)
            diff = D @ strain - ref.stress
            weight = w[i] * w[j] * hs * ht * cd.jacobian_scale
            num.append(weight * (diff[0] ** 2 + diff[1] ** 2 + 2.0 * diff[2] ** 2))
            den.append(weight * (ref.sxx ** 2 + ref.syy ** 2 + 2.0 * ref.sxy ** 2))
    return math.sqrt(math.fsum(num) / math.fsum(den))


class TestStressErrorNorm:
    """The tensor-grid error norm beyond the degree-2 benchmark plate."""

    @pytest.mark.parametrize("degree", [1, 3])
    def test_matches_a_point_loop_at_other_field_degrees(self, degree):
        config = PlateConfig(stage=0, degree=degree, bc_mode="exact")
        solution = solve_plate(config).solution
        got = stress_error_l2(solution, kirsch_stresses(config), degree + 2)
        expected = point_loop_l2(solution, config, hole_radius(config), degree + 2)
        assert abs(got - expected) <= 1e-13 * expected

    def test_matches_a_point_loop_on_a_region_with_several_breakpoints(self):
        # the outer polyline of the benchmark with extra vertices mid-edge:
        # three C0 knots in s, each a double knot of the field space
        top = NurbsCurve(
            KnotVector([0, 0, 0.25, 0.5, 0.75, 1, 1], 1),
            [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0], [1.0, 0.5], [1.0, 0.0]],
        )
        region = TrimmedRegion(unit_square_surface(5.0), hole_arc_curve(), top)
        values, mults = FieldSpace.conforming(region, 2).knot_vector_s.interior()
        assert np.allclose(values, [0.25, 0.5, 0.75]) and mults == [2, 2, 2]
        config = PlateConfig(stage=0, bc_mode="exact")
        solution = solve_plate(config, region=region).solution
        got = stress_error_l2(solution, kirsch_stresses(config), 5)
        expected = point_loop_l2(solution, config, hole_radius(config), 5)
        assert abs(got - expected) <= 1e-13 * expected

    def test_batching_leaves_the_norm_unchanged_at_degree_3(self, monkeypatch):
        # one column per batch against the whole tiling in one batch
        config = PlateConfig(stage=1, degree=3, bc_mode="exact")
        solution = solve_plate(config).solution
        l2 = []
        for batch_points in (1, 1 << 40):
            monkeypatch.setattr(quadrature, "BATCH_POINTS", batch_points)
            l2.append(stress_error_l2(solution, kirsch_stresses(config), 6))
        assert l2[0] == l2[1]

    def test_a_reference_zero_on_the_whole_region_is_a_domain_error(self):
        solution = solve_plate(PlateConfig(stage=0, bc_mode="exact")).solution
        with pytest.raises(DomainError, match="the reference stress is zero on the whole region"):
            stress_error_l2(solution, lambda x, y: (0.0, 0.0, 0.0), 4)

    @staticmethod
    def first_point(solution, hit):
        """(x, y) of the first point in gauss_panels' order where hit(x) holds."""
        geometry = solution.geometry
        for s, t, _ in quadrature.gauss_panels(partition_regions(geometry, solution.field), 4):
            x = geometry.composite_eval(s, t, 1).x
            if hit(x).any():
                return x[hit(x)][0, :2].tolist()

    def test_a_reference_that_is_not_finite_is_named_at_its_first_point(self):
        config = PlateConfig(stage=0, bc_mode="exact")
        solution = solve_plate(config).solution
        exact = kirsch_stresses(config)

        def reference(x, y):
            sxx, syy, sxy = exact(x, y)
            return np.where(y > 2.0, np.nan, sxx), syy, sxy

        x0, y0 = self.first_point(solution, lambda x: x[..., 1] > 2.0)
        with pytest.raises(DomainError, match=re.escape(
                f"the reference stress term is not finite at (x, y) = ({x0}, {y0})")):
            stress_error_l2(solution, reference, 4)

    def test_an_error_term_that_is_not_finite_is_named_at_its_first_point(self):
        config = PlateConfig(stage=0, bc_mode="exact")
        solution = solve_plate(config).solution
        # NaN coefficients: every strain, so every error term, is NaN
        broken = plate.SolveResult(solution.geometry, solution.field, solution.material,
                                   np.full_like(solution.coeffs, np.nan), solution.residual,
                                   solution.fixed_dofs)
        x0, y0 = self.first_point(solution, lambda x: np.ones(x.shape[:-1], bool))
        with pytest.raises(DomainError, match=re.escape(
                f"the stress error term is not finite at (x, y) = ({x0}, {y0})")):
            stress_error_l2(broken, kirsch_stresses(config), 4)

    def test_a_term_is_named_in_panel_order_across_batches_of_several_columns(
            self, monkeypatch):
        # the norm evaluates on a (column, s-node, row, t-node) grid, whose
        # first NaN here is another point than gauss_panels' first: it lies
        # in column 5 of 8, the last of the second of three batches
        config = PlateConfig(stage=0, bc_mode="exact")
        solution = solve_plate(config).solution
        tiling = partition_regions(solution.geometry, solution.field)
        rows = tiling.t_lines.size - 1
        # the norm's batches hold twice BATCH_POINTS: three columns of 4 x 4 points
        monkeypatch.setattr(quadrature, "BATCH_POINTS", 3 * rows * 16 // 2)
        assert len(list(quadrature.gauss_panels(tiling, 4, 2 * quadrature.BATCH_POINTS))) == 3
        exact = kirsch_stresses(config)

        def reference(x, y):
            sxx, syy, sxy = exact(x, y)
            return np.where(x - y > 1.5, np.nan, sxx), syy, sxy

        def hit(x):
            return x[..., 0] - x[..., 1] > 1.5

        x0, y0 = self.first_point(solution, hit)
        # the points in the grid's order: one column per batch, axes swapped
        grid = np.concatenate([solution.geometry.composite_eval(s, t, 1).x.swapaxes(1, 2)
                               .reshape(-1, 3) for s, t, _ in
                               quadrature.gauss_panels(tiling, 4, rows * 16)])
        assert grid[hit(grid)][0, :2].tolist() != [x0, y0]
        with pytest.raises(DomainError, match=re.escape(
                f"the reference stress term is not finite at (x, y) = ({x0}, {y0})")):
            stress_error_l2(solution, reference, 4)


def exact_sum(values):
    """math.fsum, or the exact sum rounded once where a partial sum of fsum
    overflows; OverflowError where the exact sum does."""
    try:
        return math.fsum(values)
    except OverflowError:
        return float(sum(map(Fraction, values)))


#: exact zeros of both signs, subnormals, the smallest normal and terms near
#: the largest double
SPECIAL_TERMS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.0 ** 1023,
                 np.nextafter(np.finfo(float).max, 0.0), np.finfo(float).max,
                 -np.finfo(float).max]


@st.composite
def term_arrays(draw):
    """0-6 arrays of 0-5,000 terms, of both signs or all positive as the
    norm's are, their exponents drawn from a window of any width anywhere in
    the double range, with special terms at drawn places."""
    arrays = []
    for _ in range(draw(st.integers(0, 6))):
        size = draw(st.integers(0, 5000))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        signs = rng.choice([-1.0, 1.0], size) if draw(st.booleans()) else 1.0
        lo = draw(st.integers(-1080, 1024))
        hi = min(lo + draw(st.integers(0, 2104)), 1024)
        terms = np.ldexp(rng.uniform(0.5, 1.0, size) * signs, rng.integers(lo, hi + 1, size))
        if size:
            special = draw(st.lists(st.sampled_from(SPECIAL_TERMS)
                                    | st.floats(allow_nan=False, allow_infinity=False),
                                    max_size=8))
            terms[draw(st.lists(st.integers(0, size - 1), min_size=len(special),
                                max_size=len(special)))] = special
        arrays.append(terms)
    return arrays


@settings(derandomize=True, deadline=None, max_examples=100)
@given(term_arrays())
def test_the_norm_sum_is_fsum_bit_for_bit(arrays):
    values = [v for a in arrays for v in a.tolist()]
    try:
        want = exact_sum(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            plate._fsum(arrays)
        return
    assert np.float64(plate._fsum(arrays)).tobytes() == np.float64(want).tobytes()


def polar_kirsch_stress(x, y, far_stress, hole_radius):
    """Kirsch's stresses written in polar angles, by arctan2, cos and sin."""
    a, T = hole_radius, far_stress
    r = np.hypot(x, y)
    theta = np.arctan2(y, x)
    a2 = (a / r) ** 2
    a4 = a2 * a2
    c2, s2 = np.cos(2 * theta), np.sin(2 * theta)
    c4, s4 = np.cos(4 * theta), np.sin(4 * theta)
    sxx = T * (1.0 - a2 * (1.5 * c2 + c4) + 1.5 * a4 * c4)
    syy = T * (-a2 * (0.5 * c2 - c4) - 1.5 * a4 * c4)
    sxy = T * (-a2 * (0.5 * s2 + s4) + 1.5 * a4 * s4)
    return sxx, syy, sxy


class TestKirschReference:
    def test_rim_concentration_factor(self):
        # exact at the rim's ends, whatever the hole radius a and far stress T
        for a, T in [(1.0, 1.0), (0.37, 2.5), (5.0, 1e3)]:
            top = kirsch_reference(0.0, a, T, a, MAT)
            assert (top.sxx, top.syy, top.sxy) == (3.0 * T, 0.0, 0.0)
            side = kirsch_reference(a, 0.0, T, a, MAT)
            assert (side.sxx, side.syy, side.sxy) == (0.0, -T, 0.0)

    @pytest.mark.parametrize("a, T", [(1.0, 1.0), (0.37, 2.5), (5.0, 1e3)])
    def test_stresses_match_a_polar_oracle(self, rng, a, T):
        r = a * (1.0 + 9.0 * rng.random(1200))
        theta = 0.5 * math.pi * rng.random(1200)
        # the quadrant's edges and the rim too
        r[:4], theta[:4] = a, [0.0, 0.5 * math.pi, 0.25 * math.pi, 0.0]
        x, y = r * np.cos(theta), r * np.sin(theta)
        ref = kirsch_reference(x, y, T, a, MAT)
        want = polar_kirsch_stress(x, y, T, a)
        for got, expected in zip((ref.sxx, ref.syy, ref.sxy), want):
            assert np.abs(got - expected).max() <= 1e-14 * T

    @pytest.mark.parametrize("a, T", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-1.0, 1.0),
        (1.0, math.nan), (1.0, -math.inf), (1.0, math.inf), (1.0, 0.0),
    ])
    def test_hole_radius_and_far_stress_must_be_finite_and_positive(self, a, T):
        with pytest.raises(DomainError):
            kirsch_reference(3.0, 4.0, T, a, MAT)

    def test_far_field_limit(self):
        ref = kirsch_reference(1.0e4, 17.0, 1.0, 1.0, MAT)
        assert abs(ref.sxx - 1.0) < 1e-7
        assert abs(ref.syy) < 1e-7
        assert abs(ref.sxy) < 1e-7

    def test_inside_hole_rejected(self):
        with pytest.raises(DomainError):
            kirsch_reference(0.3, 0.4, 1.0, 1.0, MAT)

    def test_equilibrium_by_finite_differences(self, rng):
        h = 1e-5
        for _ in range(100):
            r = 1.3 + 5.0 * rng.random()
            theta = 0.5 * math.pi * rng.random()
            x, y = r * math.cos(theta), r * math.sin(theta)
            xp = kirsch_reference(x + h, y, 1.0, 1.0, MAT)
            xm = kirsch_reference(x - h, y, 1.0, 1.0, MAT)
            yp = kirsch_reference(x, y + h, 1.0, 1.0, MAT)
            ym = kirsch_reference(x, y - h, 1.0, 1.0, MAT)
            div_x = (xp.sxx - xm.sxx) / (2 * h) + (yp.sxy - ym.sxy) / (2 * h)
            div_y = (xp.sxy - xm.sxy) / (2 * h) + (yp.syy - ym.syy) / (2 * h)
            assert abs(div_x) < 1e-6 and abs(div_y) < 1e-6

    def test_displacements_consistent_with_stresses(self, rng):
        # strains from differentiated displacements, pushed through Hooke's
        # law, must land on the closed-form stresses
        D = MAT.plane_stress_matrix()
        h = 1e-6
        for _ in range(40):
            r = 1.2 + 6.0 * rng.random()
            theta = 0.5 * math.pi * rng.random()
            x, y = r * math.cos(theta), r * math.sin(theta)
            xp = kirsch_reference(x + h, y, 1.0, 1.0, MAT)
            xm = kirsch_reference(x - h, y, 1.0, 1.0, MAT)
            yp = kirsch_reference(x, y + h, 1.0, 1.0, MAT)
            ym = kirsch_reference(x, y - h, 1.0, 1.0, MAT)
            eps = np.array(
                [
                    (xp.ux - xm.ux) / (2 * h),
                    (yp.uy - ym.uy) / (2 * h),
                    (yp.ux - ym.ux) / (2 * h) + (xp.uy - xm.uy) / (2 * h),
                ]
            )
            ref = kirsch_reference(x, y, 1.0, 1.0, MAT)
            assert np.abs(D @ eps - ref.stress).max() < 1e-7

    def test_traction_free_rim(self):
        for theta in np.linspace(0.05, math.pi / 2 - 0.05, 9):
            x, y = math.cos(theta), math.sin(theta)
            ref = kirsch_reference(x, y, 1.0, 1.0, MAT)
            sig = np.array([[ref.sxx, ref.sxy], [ref.sxy, ref.syy]])
            assert np.abs(sig @ [x, y]).max() < 1e-13


class TestSolver:
    def test_trimmed_and_untrimmed_solves_agree(self):
        surface = unit_square_surface(5.0)
        region = identity_region(surface)
        field = refined_h(unit_field(2))
        bcs = tension_bcs(0)
        through_map = solve_problem(region, field, MAT, bcs)
        direct = solve_problem(DirectGeometry(surface), field, MAT, bcs)
        assert np.abs(through_map.coeffs - direct.coeffs).max() < 1e-10

    def test_linear_fields_reproduce_on_polynomial_trimmed_region(
        self, poly_plate_region, rng
    ):
        region = poly_plate_region
        field = FieldSpace.conforming(region, 2)
        for gx, gy in ((1.0, 0.0), (0.4, -0.9), (0.73, 0.21)):
            sig = MAT.plane_stress_matrix() @ np.array([gx, gy, 0.0])
            S = np.array([[sig[0], sig[2]], [sig[2], sig[1]]])
            bcs = {
                "s0": Symmetry(),
                "s1": Symmetry(),
                "t0": Traction(lambda x, n, S=S: n @ S.T),
                "t1": Traction(lambda x, n, S=S: n @ S.T),
            }
            result = solve_problem(region, field, MAT, bcs)
            scale = max(abs(gx), abs(gy))
            for s, t in rng.random((30, 2)):
                cd = region.composite_eval(s, t, 1)
                exact = np.array([gx * cd.x[0], gy * cd.x[1]])
                assert np.abs(result.displacement(s, t) - exact).max() < 1e-10 * scale

    def test_rational_region_reproduction_is_only_approximate(self, plate_region):
        # with the rational arc weight the map components leave the polynomial
        # field space, so linear fields cannot be captured exactly; the gap
        # shrinks under refinement but never reaches machine precision
        field = FieldSpace.conforming(plate_region, 2)
        sig = MAT.plane_stress_matrix() @ np.array([1.0, 0.0, 0.0])
        S = np.array([[sig[0], sig[2]], [sig[2], sig[1]]])
        bcs = {
            "s0": Symmetry(),
            "s1": Symmetry(),
            "t0": Traction(lambda x, n: n @ S.T),
            "t1": Traction(lambda x, n: n @ S.T),
        }
        result = solve_problem(plate_region, field, MAT, bcs)
        worst = 0.0
        for s in np.linspace(0.0, 1.0, 9):
            for t in np.linspace(0.0, 1.0, 9):
                cd = plate_region.composite_eval(s, t, 1)
                worst = max(
                    worst,
                    np.abs(result.displacement(s, t) - [cd.x[0], 0.0]).max(),
                )
        assert worst < 5e-3

    @pytest.mark.parametrize("degree, bound", [(2, 1.75), (3, 2.75), (4, 3.75)])
    def test_exact_arc_patch_error_falls_at_the_field_degree(self, exact_plate_region,
                                                             degree, bound):
        # acceptance criterion 4's linear field on the exact circular arc: x(s, t)
        # is rational there, so the spline field only approximates it. The
        # largest relative stress error on a 41 x 41 grid, halvings 0-4, read
        # 9.0e-2 .. 3.3e-4 at p = 2, 6.9e-3 .. 3.3e-6 at p = 3 and 1.9e-3 ..
        # 6.7e-8 at p = 4; the last halving's rates 2.00, 3.03 and 4.06
        region = exact_plate_region
        gx, gy = 0.85, -0.4
        sig = MAT.plane_stress_matrix() @ np.array([gx, gy, 0.0])
        S = np.array([[sig[0], sig[2]], [sig[2], sig[1]]])
        bcs = {
            "s0": Symmetry(),
            "s1": Symmetry(),
            "t0": Traction(lambda x, n: n @ S.T),
            "t1": Traction(lambda x, n: n @ S.T),
        }
        grid = np.linspace(0.0, 1.0, 41)
        field, errors = FieldSpace.conforming(region, degree), []
        for _ in range(5):
            stress = solve_problem(region, field, MAT, bcs).stress(grid[:, None], grid)
            errors.append(np.abs(stress - sig).max() / np.abs(sig).max())
            field = refined_h(field)
        assert min(errors) > 1e-10  # criterion 4's tolerance is out of reach
        assert math.log2(errors[-2] / errors[-1]) >= bound

    def test_solver_residual_is_tracked(self, square_region):
        result = solve_problem(square_region, unit_field(1), MAT, tension_bcs(0))
        assert result.residual < 1e-10

    def test_sparse_solve_matches_a_dense_solve(self):
        config = PlateConfig(stage=1, bc_mode="exact")
        region = plate_with_hole_region(config.scale)
        field = plate_field(region, config)
        bcs = plate_boundary_conditions(config, hole_radius(config))
        result = solve_problem(region, field, MAT, bcs)
        K, f, _ = assemble(region, field, MAT, bcs)
        free = np.ones(K.shape[0], dtype=bool)
        free[list(symmetry_constraints(region, field, bcs))] = False
        dense = np.zeros(K.shape[0])
        dense[free] = np.linalg.solve(K.toarray()[np.ix_(free, free)], f[free])
        coeffs = result.coeffs.ravel()
        assert np.abs(coeffs - dense).max() <= 1e-12 * np.abs(dense).max()

    def test_unconstrained_plate_is_a_solve_error(self):
        # without the symmetry edges the rigid motions leave K singular
        config = PlateConfig(stage=0, bc_mode="exact")
        region = plate_with_hole_region(config.scale)
        bcs = {**plate_boundary_conditions(config, hole_radius(config)),
               "s0": Free(), "s1": Free()}
        with pytest.raises(SolveError):
            solve_problem(region, plate_field(region, config), MAT, bcs)

    def test_band_width_comes_from_the_pattern(self, square_region):
        # 3 x 9 spans: the t-functions outnumber the s-functions, so the
        # band is wider than an s-count would make it
        field = FieldSpace(KnotVector(uniform_knots(3, 2), 2), KnotVector(uniform_knots(9, 2), 2))
        assert field.shape == (5, 11)
        bcs = tension_bcs(0)
        result = solve_problem(square_region, field, MAT, bcs)
        dense = dense_solution(square_region, field, bcs)
        coeffs = result.coeffs.ravel()
        assert np.abs(coeffs - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("degree_s, degree_t, knots_s", [
        (1, 1, uniform_knots(4, 1)),
        (2, 2, uniform_knots(3, 2)),
        (3, 3, uniform_knots(3, 3)),
        (2, 2, [0, 0, 0, 0.3, 0.5, 0.5, 0.7, 1, 1, 1]),  # a C0 s-knot
        (3, 1, [0, 0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1, 1]),  # a C0 s-knot at degree 3
    ])
    def test_band_handed_to_lapack_is_the_constrained_lower_band(
        self, square_region, monkeypatch, degree_s, degree_t, knots_s
    ):
        import scipy.linalg

        bands = []
        solve = scipy.linalg.solveh_banded

        def capture(ab, b, **kwargs):
            bands.append(np.array(ab))
            return solve(ab, b, **kwargs)

        monkeypatch.setattr(scipy.linalg, "solveh_banded", capture)
        field = FieldSpace(KnotVector(knots_s, degree_s),
                           KnotVector(uniform_knots(4, degree_t), degree_t))
        bcs = tension_bcs(0)
        solve_problem(square_region, field, MAT, bcs)
        # the dense reference: K with each fixed dof an identity row and
        # column, its diagonals 0 .. kd, kd the widest stored entry's
        K, _, _ = assemble(square_region, field, MAT, bcs)
        fixed = list(symmetry_constraints(square_region, field, bcs))
        dense = K.toarray()
        dense[fixed, :] = 0.0
        dense[:, fixed] = 0.0
        dense[fixed, fixed] = 1.0
        coo = K.tocoo()
        kd = int((coo.row - coo.col).max())
        n = K.shape[0]
        reference = np.zeros((kd + 1, n))
        for k in range(kd + 1):
            reference[k, :n - k] = np.diagonal(dense, -k)
        assert len(bands) == 1 and len(fixed) > 0
        assert bands[0].shape == reference.shape
        assert np.array_equal(bands[0], reference)

    @staticmethod
    def assert_holds_little_besides_the_matrix_and_its_band(config, solve):
        """A warm solve() traces within 1.25 x K's CSR arrays and its n x (kd + 1) band."""
        region = plate_with_hole_region(config.scale, config.arc_weight)
        bcs = plate_boundary_conditions(config, hole_radius(config))
        solve()  # warm: the lazy imports and caches
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            solve()
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        K, _, _ = assemble(region, plate_field(region, config), MAT, bcs)
        coo = K.tocoo()
        width = int((coo.row - coo.col).max()) + 1
        held = K.data.nbytes + K.indices.nbytes + K.indptr.nbytes + K.shape[0] * width * 8
        assert peak <= 1.25 * held

    def test_stage3_solve_holds_little_besides_the_matrix_and_its_band(self):
        # K's CSR arrays and the band are what the solve must hold; the
        # allowance covers one batch of the assembly or three s-columns of
        # the band fill, not a copy of K's arrays
        config = PlateConfig(stage=3, bc_mode="exact")
        region = plate_with_hole_region(config.scale, config.arc_weight)
        field = plate_field(region, config)
        bcs = plate_boundary_conditions(config, hole_radius(config))
        self.assert_holds_little_besides_the_matrix_and_its_band(
            config, lambda: solve_problem(region, field, MAT, bcs))

    def test_stage3_plate_solve_with_its_error_norm_holds_no_more(self):
        # the error norm's batches, twice the stiffness's points, must stay
        # within the allowance of the matrix and its band
        config = PlateConfig(stage=3, bc_mode="exact")
        self.assert_holds_little_besides_the_matrix_and_its_band(
            config, lambda: solve_plate(config))

    def test_under_integrated_plate_is_a_solve_error(self):
        # one Gauss point per panel leaves K singular: the factor meets a
        # pivot that is not positive
        with pytest.raises(SolveError, match="linear solve failed"):
            solve_plate(PlateConfig(stage=0, quad_order=1))

    def test_fixed_dofs_are_exactly_zero(self):
        solution = solve_plate(PlateConfig(stage=0, bc_mode="exact")).solution
        fixed = solution.fixed_dofs
        # one sorted integer array over both Symmetry edges
        assert fixed.dtype.kind == "i" and np.all(np.diff(fixed) > 0)
        assert len(fixed) == 12
        assert np.all(solution.coeffs.ravel()[fixed] == 0.0)

    def test_plate_stage_zero(self):
        result = solve_plate(PlateConfig(stage=0, bc_mode="exact"))
        assert result.dofs == 132
        assert result.solution.residual < 1e-10
        assert result.l2_stress_error < 0.1
        assert 2.5 < result.rim_stress < 3.5
        assert abs(result.rim_stress - result.solution.stress(0.0, 0.0)[0]) == 0.0

    def test_stress_of_a_batch_matches_single_points_bitwise(self):
        solution = solve_plate(PlateConfig(stage=0, bc_mode="exact")).solution
        r = np.linspace(0.0, 1.0, 17)
        s, t = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
        single = np.array([solution.stress(a, b) for a, b in zip(s, t)])
        assert np.array_equal(solution.stress(s, t), single)

    def test_bc_modes_differ(self):
        paper = solve_plate(PlateConfig(stage=0, bc_mode="paper"))
        exact = solve_plate(PlateConfig(stage=0, bc_mode="exact"))
        assert paper.l2_stress_error != exact.l2_stress_error

    def test_two_stage_decrease(self):
        results = [solve_plate(PlateConfig(stage=k, bc_mode="exact")) for k in range(2)]
        assert results[1].l2_stress_error < results[0].l2_stress_error
        (rate,) = convergence_rates(results)
        assert rate > 0.5

    def test_paper_mode_error_decreases_over_all_stages(self):
        # the uniform right-edge pull differs from the reference tractions,
        # so the error saturates at the modeling gap but still shrinks
        errors = [
            solve_plate(PlateConfig(stage=k, bc_mode="paper")).l2_stress_error
            for k in range(3)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_config_validation(self):
        with pytest.raises(DomainError):
            PlateConfig(stage=-1)
        with pytest.raises(DomainError):
            PlateConfig(bc_mode="sideways")
        for field, value in (("degree", 0), ("scale", 0.0), ("scale", -5.0),
                             ("far_stress", 0.0), ("arc_weight", 0.0),
                             ("quad_order", 0), ("quad_order", 63), ("quad_order", 2.5),
                             ("arc_weight", math.nan), ("scale", math.inf),
                             ("far_stress", math.inf), ("arc_weight", math.inf)):
            with pytest.raises(DomainError, match=field):
                PlateConfig(**{field: value})
        for value in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="youngs_modulus"):
                Material(value, 0.3)
        with pytest.raises(DomainError):
            Material(1.0, 0.6)

    def test_custom_region_matches_builtin(self):
        # a region built by the caller (same geometry) must give the same
        # answer; the hole radius is inferred from the rim point
        from trimiga.shapes import plate_with_hole_region

        cfg = PlateConfig(stage=0, bc_mode="exact")
        builtin = solve_plate(cfg)
        custom = solve_plate(cfg, region=plate_with_hole_region(scale=5.0))
        assert np.array_equal(custom.solution.coeffs, builtin.solution.coeffs)
        assert custom.l2_stress_error == builtin.l2_stress_error
        assert custom.rim_stress == builtin.rim_stress

    def test_linear_reproduction_with_multiple_breakpoints(self, rng):
        # polyline with two kinks: the conforming space carries two C0 knots
        # and the partition three s-strips; the patch test must still be exact
        from trimiga.nurbs import KnotVector, NurbsCurve
        from trimiga.shapes import hole_arc_curve, unit_square_surface
        from trimiga.trimming import TrimmedRegion

        top = NurbsCurve(
            KnotVector([0, 0, 0.3, 0.7, 1, 1], 1),
            [[0.0, 1.0], [0.4, 0.95], [0.8, 0.9], [1.0, 0.0]],
        )
        region = TrimmedRegion(unit_square_surface(), hole_arc_curve(1.0), top)
        assert region.validate(16).ok
        assert [round(bp.s, 6) for bp in region.breakpoints()] == [0.3, 0.7]
        field = FieldSpace.conforming(region, 2)
        values, mults = field.knot_vector_s.interior()
        assert np.allclose(values, [0.3, 0.7]) and mults == [2, 2]
        gx, gy = 0.6, -0.35
        sig = MAT.plane_stress_matrix() @ np.array([gx, gy, 0.0])
        S = np.array([[sig[0], sig[2]], [sig[2], sig[1]]])
        bcs = {
            "s0": Symmetry(),
            "s1": Symmetry(),
            "t0": Traction(lambda x, n: n @ S.T),
            "t1": Traction(lambda x, n: n @ S.T),
        }
        result = solve_problem(region, field, MAT, bcs)
        for s, t in rng.random((30, 2)):
            cd = region.composite_eval(s, t, 1)
            exact = np.array([gx * cd.x[0], gy * cd.x[1]])
            assert np.abs(result.displacement(s, t) - exact).max() < 1e-10

    @pytest.mark.parametrize("arc", [
        [[0.0, 0.2], [0.3, 0.2], [0.3, 0.0]],  # unchecked, it solved with L2 0.0828
        [[0.0, 0.3], [0.2, 0.3], [0.2, 0.0]],  # unchecked, it failed in the reference
    ], ids=["wide", "tall"])
    def test_a_custom_hole_that_is_not_a_circle_is_a_domain_error(self, arc):
        bottom = NurbsCurve(KnotVector([0, 0, 0, 1, 1, 1], 2), arc, [1.0, 0.707, 1.0])
        region = TrimmedRegion(unit_square_surface(5.0), bottom, outer_polyline_curve())
        with pytest.raises(DomainError, match=r"the hole edge \(t = 0\) leaves the circle "
                                              r"of radius 1\.\d+ about the origin at \(x, y\)"):
            solve_plate(PlateConfig(stage=0, bc_mode="exact"), region=region)

    @pytest.mark.parametrize("weight", [1.0, 0.5])
    def test_the_built_in_hole_is_checked_as_a_given_region_is(self, weight):
        # unchecked, the built-in plate measured these arcs against Kirsch's
        # field for a circle: L2 0.0884 at weight 1.0 and 0.0892 at 0.5
        config = PlateConfig(stage=0, arc_weight=weight)
        messages = []
        for region in (None, plate_with_hole_region(config.scale, weight)):
            with pytest.raises(DomainError, match=r"the hole edge \(t = 0\) leaves the circle "
                                                  r"of radius 1\.0 about the origin at") as info:
                solve_plate(config, region=region)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_full_cad_pipeline(self):
        # IGES export -> parse -> region extraction -> solve: the analysis
        # result must be indistinguishable from the directly built geometry
        from trimiga import iges
        from trimiga.shapes import plate_with_hole_region

        model = iges.parse(iges.region_to_iges(plate_with_hole_region(scale=5.0)))
        region = iges.extract_region(model)
        cfg = PlateConfig(stage=0, bc_mode="exact")
        from_cad = solve_plate(cfg, region=region)
        builtin = solve_plate(cfg)
        assert abs(from_cad.l2_stress_error - builtin.l2_stress_error) < 1e-12
        assert abs(from_cad.rim_stress - builtin.rim_stress) < 1e-9


@pytest.mark.parametrize("condition, error", [
    ("fixed", AssemblyError("edge s1: unsupported condition 'fixed'")),
    (None, AssemblyError("edge s1: unsupported condition None")),
    # a load that is not finite fails before assembly, naming its first point
    (Traction(lambda x, n: np.array([math.nan, 0.0])),
     AssemblyError("edge s1: traction (nan, 0.0) at point (1.0, 0.21132486540518")),
    (Traction(lambda x, n: np.where(x[:, 1:] > 0.5, [0.0, -math.inf], x)),
     AssemblyError("edge s1: traction (0.0, -inf) at point (1.0, 0.78867513459481")),
    (Traction(lambda x, n: 1.0),
     AssemblyError("edge s1: traction must have shape (2, 2) or (2,), got ()")),
    (Traction(lambda x, n: np.zeros((len(x), 3))),
     AssemblyError("edge s1: traction must have shape (2, 2) or (2,), got (2, 3)")),
    (Traction(lambda x, n: np.zeros(1)),
     AssemblyError("edge s1: traction must have shape (2, 2) or (2,), got (1,)")),
    (Traction(lambda x, n: "load"),
     AssemblyError("edge s1: traction must be numbers, got 'load'")),
], ids=["string", "None", "NaN traction", "inf traction", "scalar traction",
        "(N, 3) traction", "(1,) traction", "text traction"])
def test_a_condition_the_solver_cannot_use_is_a_typed_error(square_region, condition, error):
    bcs = tension_bcs() | {"s1": condition}
    with pytest.raises(type(error), match=re.escape(str(error))):
        solve_problem(square_region, unit_field(), MAT, bcs)


# the triangle (0, 0), (1, 0), (1, 1) from two curves out of (0, 0), and its
# mirror (0, 0), (1, 1), (0, 1) from two curves into (1, 1); each is solvable
# without the check, by conditions that leave the point edge free
@pytest.mark.parametrize("bottom, top, edge, bcs", [
    (([0, 0], [1, 0]), ([0, 0], [1, 1]), "s0",
     {"s0": Free(), "s1": Symmetry(), "t0": Symmetry(), "t1": Traction(lambda x, n: [1.0, 0.0])}),
    (([0, 0], [1, 1]), ([0, 1], [1, 1]), "s1",
     {"s0": Symmetry(), "s1": Free(), "t0": Traction(lambda x, n: [1.0, 0.0]), "t1": Symmetry()}),
], ids=["meet at s = 0", "meet at s = 1"])
def test_a_closing_edge_that_is_one_point_is_an_assembly_error(bottom, top, edge, bcs):
    region = TrimmedRegion(unit_square_surface(), segment(*bottom), segment(*top))
    field = FieldSpace.conforming(region, 2)
    for call in (lambda: solve_problem(region, field, MAT, bcs),
                 lambda: assemble(region, field, MAT, bcs)):
        with pytest.raises(AssemblyError, match=f"edge {edge}: the trimming curves meet there"):
            call()


def test_a_solution_that_misses_the_load_fails_the_residual_gate(square_region, monkeypatch):
    import scipy.linalg

    solve = scipy.linalg.solveh_banded
    monkeypatch.setattr(scipy.linalg, "solveh_banded",
                        lambda *args, **kwargs: solve(*args, **kwargs) * (1.0 + 1e-6))
    with pytest.raises(SolveError, match=r"solver residual 1\.0\d\de-06 exceeds 1e-10"):
        solve_problem(square_region, unit_field(), MAT, tension_bcs())


@pytest.mark.parametrize("x, y, named", [
    ([[2.0, 0.1], [0.2, 2.0]], [[0.0, 0.3], [0.1, 0.0]], (0.1, 0.3)),
    ([[2.0, 0.2], [0.1, 2.0]], [[0.0, 0.1], [0.3, 0.0]], (0.2, 0.1)),
    ([[2.0], [0.1]], [0.0, 0.2, 0.5], (0.1, 0.0)),  # broadcast against each other
])
def test_a_batch_names_its_first_point_inside_the_hole_in_c_order(x, y, named):
    message = f"point {named} lies inside the hole of radius 1.0"
    with pytest.raises(DomainError, match=re.escape(message)):
        kirsch_reference(np.array(x), np.array(y), 1.0, 1.0, MAT)
