"""2D plane-stress isogeometric Galerkin solver over a trimmed region.

The displacement field lives in a tensor-product B-spline space over the
(s, t) square, independent of the geometry: refining the field never
touches the map. Where a trimming curve is merely C0, the field space
carries matching interior knot multiplicity so its functions kink with the
map, and every integration region boundary lines up with those knots.

The plate-with-a-hole benchmark drives the whole stack: quarter-symmetric
square with a circular hole at the corner, unit far-field tension, hoop
stress concentration factor 3 at the rim, and a closed-form reference field
to measure the relative L2 stress error against.
"""

import math
from dataclasses import dataclass, field as dataclass_field, replace

import numpy as np

from .errors import AssemblyError, DomainError, SingularMapError, SolveError
from .nurbs import KnotVector
from .quadrature import gauss_panels, gauss_points_1d, partition_lines, unit_lines
from .shapes import (
    HOLE_PARAM_RADIUS,
    PRINTED_ARC_WEIGHT,
    plate_with_hole_region,
)
from .trimming import CompositeDerivatives, TrimmedRegion

_PLANAR_TOL = 1e-9
_EDGES = ("s0", "s1", "t0", "t1")


# ---------------------------------------------------------------------------
# field space


class FieldSpace:
    """Tensor-product B-spline space in (s, t) for the unknowns."""

    def __init__(self, knot_vector_s, knot_vector_t):
        self.knot_vector_s = knot_vector_s
        self.knot_vector_t = knot_vector_t

    @classmethod
    def conforming(cls, region, degree_s=2, degree_t=2):
        """Coarsest space whose continuity matches the map of the region.

        Each trimming-curve breakpoint becomes an interior s-knot with the
        multiplicity that reproduces the breakpoint's continuity class.
        """
        kv_s = _open_knots(degree_s)
        for bp in region.breakpoints():
            mult = min(max(degree_s - bp.continuity, 1), degree_s)
            kv_s = kv_s.inserted(bp.s, mult)
        return cls(kv_s, _open_knots(degree_t))

    @property
    def degrees(self):
        return self.knot_vector_s.degree, self.knot_vector_t.degree

    @property
    def shape(self):
        return self.knot_vector_s.num_basis, self.knot_vector_t.num_basis

    @property
    def dim(self):
        ns, nt = self.shape
        return ns * nt

    def refined_h(self):
        """Insert every span midpoint in both directions (nested space)."""
        return FieldSpace(
            _bisected(self.knot_vector_s), _bisected(self.knot_vector_t)
        )

    def refined_p(self):
        """Raise both degrees by one, keeping every continuity class."""
        return FieldSpace(self.knot_vector_s.elevated(), self.knot_vector_t.elevated())

    def refined(self, strategy):
        if strategy == "h":
            return self.refined_h()
        if strategy == "p":
            return self.refined_p()
        raise DomainError(f"refinement strategy must be 'h' or 'p', got {strategy!r}")

    def basis(self, s, t, order=1):
        """Nonzero functions at (s, t): flat indices, values and derivatives.

        Returns (indices, N, dN_ds, dN_dt); the derivative arrays are None
        for order 0. Flat index = i_s * n_t + i_t.
        """
        span_s, ds = self.knot_vector_s.basis(s, order)
        span_t, dt = self.knot_vector_t.basis(t, order)
        ps, pt = self.degrees
        _, nt = self.shape
        is_ = np.arange(span_s - ps, span_s + 1)
        it = np.arange(span_t - pt, span_t + 1)
        indices = (is_[:, None] * nt + it[None, :]).ravel()
        values = np.outer(ds[0], dt[0]).ravel()
        if order == 0:
            return indices, values, None, None
        dN_ds = np.outer(ds[1], dt[0]).ravel()
        dN_dt = np.outer(ds[0], dt[1]).ravel()
        return indices, values, dN_ds, dN_dt

    def greville_grid(self):
        """(s, t) Greville abscissae as two 1D arrays."""
        return self.knot_vector_s.greville(), self.knot_vector_t.greville()


def _open_knots(degree):
    return KnotVector([0.0] * (degree + 1) + [1.0] * (degree + 1), degree)


def _bisected(kv):
    spans = kv.spans()
    new = kv
    for a, b in zip(spans[:-1], spans[1:]):
        new = new.inserted(0.5 * (a + b), 1)
    return new


# ---------------------------------------------------------------------------
# material and boundary conditions


@dataclass(frozen=True)
class Material:
    """Linear elastic isotropic material."""

    youngs_modulus: float
    poisson_ratio: float

    def __post_init__(self):
        if self.youngs_modulus <= 0:
            raise DomainError(f"Young's modulus must be positive, got {self.youngs_modulus}")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise DomainError(f"Poisson ratio must be in [0, 0.5), got {self.poisson_ratio}")

    def plane_stress_matrix(self):
        e, nu = self.youngs_modulus, self.poisson_ratio
        c = e / (1.0 - nu * nu)
        return c * np.array(
            [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]]
        )

    @property
    def shear_modulus(self):
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


@dataclass(frozen=True)
class Symmetry:
    """Fix the displacement component normal to the (axis-aligned) edge."""


@dataclass(frozen=True)
class Free:
    """Traction-free edge."""


@dataclass(frozen=True)
class Traction:
    """Prescribed traction: fn(x, n) -> (2,) with n the outward unit normal."""

    fn: object


def _check_bcs(bcs):
    if set(bcs) != set(_EDGES):
        raise AssemblyError(
            f"boundary conditions must cover exactly the edges {_EDGES}, "
            f"got {sorted(bcs)}"
        )
    for edge, bc in bcs.items():
        if not isinstance(bc, (Symmetry, Free, Traction)):
            raise AssemblyError(f"edge {edge}: unsupported condition {bc!r}")


# ---------------------------------------------------------------------------
# geometry adapters (planar)
#
# Both adapters answer eval(s, t) with a CompositeDerivatives bundle, list
# their s and t break lines, and report the highest degree they carry.


class MappedGeometry:
    """Planar geometry seen through the trimmed-region composite map."""

    def __init__(self, region):
        _require_planar(region.surface)
        self.region = region

    def eval(self, s, t):
        return self.region.composite_eval(s, t, order=1)

    def s_breaklines(self):
        return [bp.s for bp in self.region.breakpoints()]

    def t_breaklines(self):
        return []

    def max_degree(self):
        r = self.region
        return max(*r.surface.degrees, r.curve_bottom.degree, r.curve_top.degree)


class DirectGeometry:
    """Planar surface evaluated directly: (s, t) are the surface (u, v).

    Bypasses the trimming map entirely; useful to cross-check that an
    identity trim changes nothing.
    """

    def __init__(self, surface):
        _require_planar(surface)
        self.surface = surface

    def eval(self, s, t):
        sd = self.surface.evaluate(s, t, order=1)
        scale = float(np.linalg.norm(np.cross(sd.du, sd.dv)))
        if scale < 1e-14:
            raise SingularMapError(s, t, scale)
        return CompositeDerivatives(sd.value, sd.du, sd.dv, jacobian_scale=scale)

    def s_breaklines(self):
        return list(self.surface.knot_vector_u.interior()[0])

    def t_breaklines(self):
        return list(self.surface.knot_vector_v.interior()[0])

    def max_degree(self):
        return max(self.surface.degrees)


def _require_planar(surface):
    z = surface.control_net[..., 2]
    if float(z.max() - z.min()) > _PLANAR_TOL:
        raise AssemblyError(
            "plane-stress analysis needs a planar surface; control net z spans "
            f"{z.max() - z.min():.3g}"
        )


def _as_geometry(geometry):
    """A TrimmedRegion is analysed through its composite map."""
    if isinstance(geometry, TrimmedRegion):
        return MappedGeometry(geometry)
    return geometry


def _max_degree(geometry, field):
    return max(geometry.max_degree(), *field.degrees)


def _breaklines(geometry, field):
    """Interior (s, t) break lines of the geometry and the field space."""
    return (
        geometry.s_breaklines() + field.knot_vector_s.interior()[0],
        geometry.t_breaklines() + field.knot_vector_t.interior()[0],
    )


# ---------------------------------------------------------------------------
# gradients and assembly


def physical_gradients(geometry, field, s, t):
    """Field-function gradients w.r.t. physical (x, y) at one (s, t).

    Returns (indices, values, dN_dx, dN_dy, cd) where cd is the geometry
    bundle at the point. Solves the 2x2 system J^T grad_x N = grad_st N.
    """
    cd = _as_geometry(geometry).eval(s, t)
    indices, values, dN_ds, dN_dt = field.basis(s, t, 1)
    a, b = cd.dx_ds[0], cd.dx_dt[0]
    c, d = cd.dx_ds[1], cd.dx_dt[1]
    det = a * d - b * c
    if abs(det) < 1e-14:
        raise SingularMapError(s, t, abs(det))
    # inverse of J^T applied to (dN_ds, dN_dt)
    dN_dx = (d * dN_ds - c * dN_dt) / det
    dN_dy = (-b * dN_ds + a * dN_dt) / det
    return indices, values, dN_dx, dN_dy, cd


def assemble_stiffness(geometry, field, material, n_quad):
    """Dense stiffness matrix for 2 dofs per basis function."""
    n = field.dim
    K = np.zeros((2 * n, 2 * n))
    D = material.plane_stress_matrix()
    regions = partition_lines(*_breaklines(geometry, field))
    for panel in gauss_panels(regions, n_quad):
        for s, t, weight in panel:
            idx, _, dN_dx, dN_dy, cd = physical_gradients(geometry, field, s, t)
            m = idx.size
            B = np.zeros((3, 2 * m))
            B[0, 0::2] = dN_dx
            B[1, 1::2] = dN_dy
            B[2, 0::2] = dN_dy
            B[2, 1::2] = dN_dx
            Ke = weight * cd.jacobian_scale * (B.T @ D @ B)
            dofs = np.empty(2 * m, dtype=int)
            dofs[0::2] = 2 * idx
            dofs[1::2] = 2 * idx + 1
            K[np.ix_(dofs, dofs)] += Ke
    return K


def _edge_point(edge, r):
    if edge == "s0":
        return 0.0, r
    if edge == "s1":
        return 1.0, r
    if edge == "t0":
        return r, 0.0
    return r, 1.0


def _edge_geometry(geometry, edge, r):
    """Position, tangent along the edge, outward unit normal, at edge param r."""
    s, t = _edge_point(edge, r)
    cd = geometry.eval(s, t)
    xy = cd.x[:2]
    if edge in ("s0", "s1"):
        tangent = cd.dx_dt[:2]
        outward = -cd.dx_ds[:2] if edge == "s0" else cd.dx_ds[:2]
    else:
        tangent = cd.dx_ds[:2]
        outward = -cd.dx_dt[:2] if edge == "t0" else cd.dx_dt[:2]
    normal = np.array([tangent[1], -tangent[0]])
    norm = np.linalg.norm(normal)
    if norm < 1e-14:
        raise SingularMapError(s, t, norm)
    normal /= norm
    if normal @ outward < 0.0:
        normal = -normal
    return s, t, xy, float(np.linalg.norm(tangent)), normal


def assemble_tractions(geometry, field, bcs, n_quad):
    """Load vector from the Traction edges."""
    f = np.zeros(2 * field.dim)
    x, w = gauss_points_1d(n_quad)
    s_lines, t_lines = _breaklines(geometry, field)
    for edge, bc in bcs.items():
        if not isinstance(bc, Traction):
            continue
        lines = unit_lines(t_lines if edge in ("s0", "s1") else s_lines)
        for a, b in zip(lines[:-1], lines[1:]):
            h = b - a
            for k in range(n_quad):
                r = a + h * x[k]
                s, t, xy, ds, normal = _edge_geometry(geometry, edge, r)
                tvec = np.asarray(bc.fn(xy, normal), dtype=float)
                idx, values, _, _ = field.basis(s, t, 0)
                f[2 * idx] += w[k] * h * ds * values * tvec[0]
                f[2 * idx + 1] += w[k] * h * ds * values * tvec[1]
    return f


def _edge_function_indices(field, edge):
    ns, nt = field.shape
    if edge == "s0":
        return np.arange(nt)
    if edge == "s1":
        return (ns - 1) * nt + np.arange(nt)
    if edge == "t0":
        return np.arange(ns) * nt
    return np.arange(ns) * nt + (nt - 1)


def symmetry_constraints(geometry, field, bcs):
    """Zero constraints for the normal displacement on Symmetry edges."""
    fixed = {}
    for edge, bc in bcs.items():
        if not isinstance(bc, Symmetry):
            continue
        normals = [_edge_geometry(geometry, edge, r)[4] for r in (0.25, 0.5, 0.75)]
        comp = int(np.argmax(np.abs(normals[1])))
        if any(abs(n[1 - comp]) > 1e-6 for n in normals):
            raise AssemblyError(
                f"edge {edge}: symmetry condition needs an axis-aligned normal, "
                f"got {normals[1]}"
            )
        for g in _edge_function_indices(field, edge):
            fixed[2 * int(g) + comp] = 0.0
    return fixed


def assemble(geometry, field, material, bcs, n_quad=None):
    """Stiffness matrix and traction load vector (constraints not applied)."""
    _check_bcs(bcs)
    geometry = _as_geometry(geometry)
    if n_quad is None:
        n_quad = _max_degree(geometry, field) + 1
    K = assemble_stiffness(geometry, field, material, n_quad)
    f = assemble_tractions(geometry, field, bcs, n_quad)
    return K, f


class SolveResult:
    """Solved displacement field with stress post-processing."""

    def __init__(self, geometry, field, material, coeffs, residual, fixed_dofs):
        self.geometry = geometry
        self.field = field
        self.material = material
        self.coeffs = coeffs           # (dim, 2) displacement coefficients
        self.residual = residual
        self.fixed_dofs = fixed_dofs
        self.dofs = 2 * field.dim

    def displacement(self, s, t):
        idx, values, _, _ = self.field.basis(s, t, 0)
        return values @ self.coeffs[idx]

    def strain(self, s, t):
        return self._strain(s, t)[0]

    def _strain(self, s, t):
        """Strain (exx, eyy, gxy) and the geometry bundle at (s, t)."""
        idx, _, dN_dx, dN_dy, cd = physical_gradients(self.geometry, self.field, s, t)
        u = self.coeffs[idx]
        exx = dN_dx @ u[:, 0]
        eyy = dN_dy @ u[:, 1]
        gxy = dN_dy @ u[:, 0] + dN_dx @ u[:, 1]
        return np.array([exx, eyy, gxy]), cd

    def stress(self, s, t):
        """Plane-stress components (sxx, syy, sxy) at (s, t)."""
        sig = self.material.plane_stress_matrix() @ self.strain(s, t)
        return sig


def solve_problem(geometry, field, material, bcs, n_quad=None):
    """Assemble, constrain, and solve; returns a SolveResult."""
    geometry = _as_geometry(geometry)
    K, f = assemble(geometry, field, material, bcs, n_quad)
    fixed = symmetry_constraints(geometry, field, bcs)
    n = K.shape[0]
    free = np.array(sorted(set(range(n)) - set(fixed)), dtype=int)
    u = np.zeros(n)
    rhs = f[free]
    Kff = K[np.ix_(free, free)]
    try:
        u[free] = np.linalg.solve(Kff, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"linear solve failed: {exc}") from None
    res = float(np.linalg.norm(Kff @ u[free] - rhs))
    ref = float(np.linalg.norm(rhs))
    residual = res / ref if ref > 0 else res
    if not np.isfinite(residual) or residual > 1e-10:
        raise SolveError(f"solver residual {residual:.3e} exceeds 1e-10")
    return SolveResult(geometry, field, material, u.reshape(-1, 2), residual, fixed)


# ---------------------------------------------------------------------------
# reference solution: infinite plate with a circular hole under x-tension


@dataclass(frozen=True)
class ReferencePoint:
    """Closed-form stresses and displacements at one physical point."""

    sxx: float
    syy: float
    sxy: float
    ux: float
    uy: float

    @property
    def stress(self):
        return np.array([self.sxx, self.syy, self.sxy])


def kirsch_reference(x, y, far_stress, hole_radius, material):
    """Stress concentration fields around a circular hole, plane stress.

    Uniaxial far tension along x; hoop stress reaches 3 * far_stress on the
    rim at 90 degrees. Points inside the hole are rejected.
    """
    a = hole_radius
    if a <= 0 or far_stress <= 0:
        raise DomainError("hole radius and far stress must be positive")
    r = math.hypot(x, y)
    if r < a * (1.0 - 1e-12):
        raise DomainError(f"point ({x}, {y}) lies inside the hole of radius {a}")
    r = max(r, a)
    theta = math.atan2(y, x)
    T = far_stress
    a2 = (a / r) ** 2
    a4 = a2 * a2
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    c4, s4 = math.cos(4 * theta), math.sin(4 * theta)
    sxx = T * (1.0 - a2 * (1.5 * c2 + c4) + 1.5 * a4 * c4)
    syy = T * (-a2 * (0.5 * c2 - c4) - 1.5 * a4 * c4)
    sxy = T * (-a2 * (0.5 * s2 + s4) + 1.5 * a4 * s4)
    mu = material.shear_modulus
    kappa = (3.0 - material.poisson_ratio) / (1.0 + material.poisson_ratio)
    ra = r / a
    ar = a / r
    ar3 = ar ** 3
    c1, s1 = math.cos(theta), math.sin(theta)
    c3, s3 = math.cos(3 * theta), math.sin(3 * theta)
    pref = T * a / (8.0 * mu)
    ux = pref * (ra * (kappa + 1.0) * c1 + 2.0 * ar * ((1.0 + kappa) * c1 + c3) - 2.0 * ar3 * c3)
    uy = pref * (ra * (kappa - 3.0) * s1 + 2.0 * ar * ((1.0 - kappa) * s1 + s3) - 2.0 * ar3 * s3)
    return ReferencePoint(sxx, syy, sxy, ux, uy)


# ---------------------------------------------------------------------------
# plate-with-a-hole study


def _default_material():
    return Material(1e5, 0.3)


#: uniform halvings applied to the coarsest conforming space before stage
#: counting starts: the first two halvings sit outside the asymptotic range
#: of the stress boundary layer near the hole, so the three benchmark stages
#: are halvings 2, 3 and 4.
BASE_HALVINGS = 2


@dataclass
class PlateConfig:
    """One solve of the quarter plate with a hole."""

    stage: int = 0
    degree: int = 2
    quad_order: int | None = None
    bc_mode: str = "paper"             # "paper": uniform pull on the right edge
    arc_weight: float = PRINTED_ARC_WEIGHT
    scale: float = 5.0
    far_stress: float = 1.0
    material: Material = dataclass_field(default_factory=_default_material)

    def __post_init__(self):
        if self.stage < 0:
            raise DomainError(f"refinement stage must be >= 0, got {self.stage}")
        if self.bc_mode not in ("paper", "exact"):
            raise DomainError(f"bc_mode must be 'paper' or 'exact', got {self.bc_mode!r}")

    @property
    def hole_radius(self):
        return HOLE_PARAM_RADIUS * self.scale


def plate_boundary_conditions(config, hole_radius=None):
    """Symmetry on the straight edges, free hole, tractions on the outside.

    The outer polyline folds the top and right physical edges into the
    single t=1 edge; they are told apart by the outward normal. In "paper"
    mode the right edge carries the uniform far-field pull and the top edge
    the reference tractions; in "exact" mode both carry reference tractions.
    """
    far = config.far_stress
    a = hole_radius if hole_radius is not None else config.hole_radius
    material = config.material

    def reference_traction(xy, normal):
        ref = kirsch_reference(xy[0], xy[1], far, a, material)
        sig = np.array([[ref.sxx, ref.sxy], [ref.sxy, ref.syy]])
        return sig @ normal

    def outer_traction(xy, normal):
        if config.bc_mode == "paper" and abs(normal[0]) > abs(normal[1]):
            return np.array([far, 0.0])
        return reference_traction(xy, normal)

    return {
        "s0": Symmetry(),
        "s1": Symmetry(),
        "t0": Free(),
        "t1": Traction(outer_traction),
    }


class PlateResult:
    """SolveResult plus the convergence metrics of the benchmark."""

    def __init__(self, config, solution, l2_stress_error, rim_stress):
        self.config = config
        self.solution = solution
        self.l2_stress_error = l2_stress_error
        self.rim_stress = rim_stress
        self.dofs = solution.dofs


def plate_field(region, config):
    field = FieldSpace.conforming(region, config.degree, config.degree)
    for _ in range(BASE_HALVINGS + config.stage):
        field = field.refined_h()
    return field


def solve_plate(config=None, region=None):
    """Solve the quarter plate with a hole at the configured refinement stage.

    A custom region (same layout: hole arc at t=0, straight symmetry edges at
    s=0 and s=1) may replace the built-in geometry; its hole radius is read
    off the rim point at (s, t) = (0, 0).
    """
    config = config or PlateConfig()
    hole_radius = config.hole_radius
    if region is None:
        region = plate_with_hole_region(config.scale, config.arc_weight)
    else:
        hole_radius = float(np.linalg.norm(region.composite_eval(0.0, 0.0, 0).x[:2]))
    field = plate_field(region, config)
    bcs = plate_boundary_conditions(config, hole_radius)
    geometry = MappedGeometry(region)
    solution = solve_problem(geometry, field, config.material, bcs, config.quad_order)
    n_quad = (config.quad_order or (_max_degree(geometry, field) + 1)) + 2
    l2 = stress_error_l2(solution, config, hole_radius, n_quad)
    rim = float(solution.stress(0.0, 0.0)[0])
    return PlateResult(config, solution, l2, rim)


def stress_error_l2(solution, config, hole_radius=None, n_quad=7):
    """Relative L2 norm of the stress error against the reference field.

    Frobenius norm on the symmetric tensor, so the shear component counts
    twice.
    """
    far, material = config.far_stress, config.material
    a = hole_radius if hole_radius is not None else config.hole_radius
    D = solution.material.plane_stress_matrix()
    regions = partition_lines(*_breaklines(solution.geometry, solution.field))
    num_parts, den_parts = [], []
    for panel in gauss_panels(regions, n_quad):
        num, den = [], []
        for s, t, weight in panel:
            strain, cd = solution._strain(s, t)
            ref = kirsch_reference(cd.x[0], cd.x[1], far, a, material)
            diff = D @ strain - ref.stress
            w = weight * cd.jacobian_scale
            num.append(w * (diff[0] ** 2 + diff[1] ** 2 + 2.0 * diff[2] ** 2))
            den.append(w * (ref.sxx ** 2 + ref.syy ** 2 + 2.0 * ref.sxy ** 2))
        num_parts.append(math.fsum(num))
        den_parts.append(math.fsum(den))
    return math.sqrt(math.fsum(num_parts) / math.fsum(den_parts))


def convergence_study(config=None, max_stage=2):
    """Solve stages 0..max_stage; returns the list of PlateResult."""
    config = config or PlateConfig()
    return [solve_plate(replace(config, stage=stage)) for stage in range(max_stage + 1)]


def convergence_rates(results):
    """Estimated order between consecutive stages (h halves every stage)."""
    rates = []
    for a, b in zip(results[:-1], results[1:]):
        rates.append(math.log(a.l2_stress_error / b.l2_stress_error) / math.log(2.0))
    return rates
