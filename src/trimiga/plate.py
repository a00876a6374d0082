"""2D plane-stress isogeometric Galerkin solver over a trimmed region.

Point functions (field basis, gradients, strains, the reference field)
take arrays of (s, t) or (x, y) that broadcast together; a scalar query is
a batch of one. Integrals run on the Tiling of quadrature.partition_regions,
one batch of whole columns of Gauss panels at a time (gauss_panels), so the
trimming curves are evaluated at a batch's s-nodes only, and a batch's
arrays are freed before the next batch is evaluated, which bounds the peak
memory. The constrained system is solved by LAPACK's banded Cholesky
driver: in the field's own numbering K is a band, so no reordering is
needed.

The displacement field lives in a tensor-product B-spline space over the
(s, t) square, independent of the geometry: refining the field never
touches the map. Where a trimming curve is merely C0, the field space
carries matching interior knot multiplicity so its functions kink with the
map, and the tiling's lines include those knots.

The plate-with-a-hole benchmark drives the whole stack: quarter-symmetric
square with a circular hole at the corner, unit far-field tension, hoop
stress concentration factor 3 at the rim, and a closed-form reference field
to measure the relative L2 stress error against.
"""

import itertools
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import quadrature
from .errors import AssemblyError, DomainError, SolveError
from .nurbs import MERGE_TOL, KnotVector, _check_int, _first_where, _unpack, merge_close
from .quadrature import gauss_panels, gauss_points_1d, partition_regions
from .shapes import PRINTED_ARC_WEIGHT, plate_with_hole_region
from .trimming import check_regular

#: the largest z span of a planar control net, relative to its bounding-box
#: diagonal (the size NurbsSurface.singular_length scales by)
_PLANAR_TOL = 1e-9
#: the square's edges: the parameter axis each one fixes (0 for s, 1 for t)
#: and the value it fixes it at
_EDGES = {"s0": (0, 0.0), "s1": (0, 1.0), "t0": (1, 0.0), "t1": (1, 1.0)}


# ---------------------------------------------------------------------------
# field space


class FieldSpace:
    """Tensor-product B-spline space in (s, t) for the unknowns."""

    def __init__(self, knot_vector_s, knot_vector_t):
        self.knot_vector_s = knot_vector_s
        self.knot_vector_t = knot_vector_t

    @classmethod
    def conforming(cls, region, degree):
        """Coarsest space, of one degree in s and t, matching the map's continuity.

        Each trimming-curve breakpoint becomes an interior s-knot with the
        multiplicity that reproduces the breakpoint's continuity class.
        """
        kv_s = _open_knots(degree)
        for bp in region.breakpoints():
            mult = min(max(degree - bp.continuity, 1), degree)
            kv_s = kv_s.inserted(bp.s, mult)
        return cls(kv_s, _open_knots(degree))

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

    def basis(self, s, t):
        """Nonzero functions at (s, t): (indices, values).

        Flat index = i_s * n_t + i_t. Both arrays have the broadcast shape
        of s and t followed by one axis over the (degree_s + 1) *
        (degree_t + 1) functions, s-major. Their gradients come from
        physical_gradients.
        """
        span_s, ds = self.knot_vector_s.basis(s, 0)
        span_t, dt = self.knot_vector_t.basis(t, 0)
        return self._functions(span_s, span_t), _products(ds, dt, 0, 0)

    def _functions(self, span_s, span_t):
        """Flat indices of the functions nonzero on span pairs that broadcast
        together, in a new last axis, s-major."""
        ps, pt = self.degrees
        _, nt = self.shape
        is_ = np.asarray(span_s)[..., None] + np.arange(-ps, 1)
        it = np.asarray(span_t)[..., None] + np.arange(-pt, 1)
        return _flat(is_[..., :, None] * nt + it[..., None, :])


def _flat(grid):
    """(..., ps + 1, pt + 1) -> (..., (ps + 1) * (pt + 1))."""
    return grid.reshape(grid.shape[:-2] + (-1,))


def _products(ds, dt, ks, kt):
    """The tensor-product functions' (ks, kt)-th partials from 1D tables."""
    return _flat(ds[..., ks, :, None] * dt[..., kt, None, :])


def _open_knots(degree):
    return KnotVector([0.0] * (degree + 1) + [1.0] * (degree + 1), degree)


def _bisected(kv, times=1):
    """kv with every span bisected, `times` over; one KnotVector is built."""
    knots = kv.knots.tolist()
    for _ in range(times):
        spans = merge_close(knots)[0]
        knots = sorted(knots + [0.5 * (a + b) for a, b in zip(spans[:-1], spans[1:])])
    return KnotVector(knots, kv.degree)


# ---------------------------------------------------------------------------
# material and boundary conditions


@dataclass(frozen=True)
class Material:
    """Linear elastic isotropic material."""

    youngs_modulus: float
    poisson_ratio: float

    def __post_init__(self):
        _check_positive(youngs_modulus=self.youngs_modulus)
        if not 0.0 <= self.poisson_ratio < 0.5:  # NaN too
            raise DomainError(f"poisson_ratio must be in [0, 0.5), got {self.poisson_ratio}")

    def plane_stress_matrix(self):
        e, nu = self.youngs_modulus, self.poisson_ratio
        c = e / (1.0 - nu * nu)
        return c * np.array(
            [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, 0.5 * (1.0 - nu)]]
        )

    @property
    def shear_modulus(self):
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


def _check_positive(**values):
    """DomainError naming the first of the named values that is not finite and positive."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
        if value <= 0:
            raise DomainError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class Symmetry:
    """Fix the displacement component normal to the (axis-aligned) edge."""


@dataclass(frozen=True)
class Free:
    """Traction-free edge."""


@dataclass(frozen=True)
class Traction:
    """Prescribed traction: fn(x, n) with the (N, 2) points of one edge.

    n holds the outward unit normals, also (N, 2); fn returns finite (N, 2)
    tractions, or a (2,) one that applies to every point. Anything else is
    an AssemblyError before any assembly.
    """

    fn: object


def _check_bcs(bcs):
    if set(bcs) != set(_EDGES):
        raise AssemblyError(
            f"boundary conditions must cover exactly the edges {tuple(_EDGES)}, "
            f"got {sorted(bcs)}"
        )
    for edge, bc in bcs.items():
        if not isinstance(bc, (Symmetry, Free, Traction)):
            raise AssemblyError(f"edge {edge}: unsupported condition {bc!r}")


# ---------------------------------------------------------------------------
# geometry (planar)


def _check_closing_edges(geometry):
    """AssemblyError naming a closing edge that is one point, where the
    clamped trimming curves' first (s0) or last (s1) control points meet
    within MERGE_TOL: no stiffness integral exists there."""
    bottom, top = geometry.curve_bottom.control_points, geometry.curve_top.control_points
    for edge, k in (("s0", 0), ("s1", -1)):
        if np.abs(bottom[k] - top[k]).max() <= MERGE_TOL:
            raise AssemblyError(f"edge {edge}: the trimming curves meet there, so the "
                                "closing edge is a single point")


def _require_planar(surface):
    points = surface.control_net.reshape(-1, 3)
    span = points.max(axis=0) - points.min(axis=0)
    if span[2] > _PLANAR_TOL * np.linalg.norm(span):
        raise AssemblyError("plane-stress analysis needs a planar surface; control net z "
                            f"spans {span[2]:.3g} of its {np.linalg.norm(span):.3g} diagonal")


def _default_order(geometry, field):
    """The default Gauss points per direction: the highest degree + 1."""
    return max(geometry.max_degree(), *field.degrees) + 1


# ---------------------------------------------------------------------------
# gradients and assembly


def physical_gradients(geometry, field, s, t):
    """Field-function gradients w.r.t. physical (x, y) at (s, t).

    Returns (span_s, span_t, dN_dx, dN_dy, cd): the knot spans, the
    gradients of the functions field._functions(span_s, span_t) indexes,
    in a last axis, and the geometry bundle. The one gradient kernel: it
    solves J^T grad_x N = grad_st N, grad_st N from the 1D basis tables.
    """
    cd = geometry.composite_eval(s, t, 1)
    span_s, ds = field.knot_vector_s.basis(s, 1)
    span_t, dt = field.knot_vector_t.basis(t, 1)
    # one axis over the functions after the points' (a scalar's are floats)
    jac = [np.asarray(e)[..., None] for e in _jacobian(geometry, cd, s, t)]
    dN_dx, dN_dy = _to_physical(jac, _products(ds, dt, 1, 0), _products(ds, dt, 0, 1))
    return span_s, span_t, dN_dx, dN_dy, cd


def _jacobian(geometry, cd, s, t):
    """(a, b, c, d, det) of the planar J = [[x_s, x_t], [y_s, y_t]] per point.

    The entries are the bundle's own components (nurbs._unpack), floats
    for a scalar query and arrays for a batch, so no derivative field is
    packed. A point whose determinant is singular raises SingularMapError.
    """
    _require_planar(geometry.surface)
    (a, c, _), (b, d, _) = _unpack(cd._dx_ds, 1), _unpack(cd._dx_dt, 1)
    det = a * d - b * c
    check_regular(np.abs(det), geometry.surface.singular_area, s, t)
    return a, b, c, d, det


def _to_physical(jac, d_ds, d_dt):
    """(d_dx, d_dy) from (d_ds, d_dt) by the inverse of J^T at each point.

    jac is _jacobian's tuple, its arrays shaped to broadcast against the
    derivative arrays.
    """
    a, b, c, d, det = jac
    return (d * d_ds - c * d_dt) / det, (-b * d_ds + a * d_dt) / det


#: strain row of each (displacement component, derivative direction) pair:
#: (x, x) -> exx, (y, y) -> eyy, and the mixed pairs -> gxy
_STRAIN_ROW = np.array([[0, 2], [2, 1]])


def _coupling(kv):
    """First coupled function and count per function of one direction.

    Two functions couple when they share a non-empty knot span; on span k
    the functions k - degree .. k are nonzero, so each row is one range.
    """
    p = kv.degree
    spans = np.flatnonzero(np.diff(kv.knots) > 0)
    i = np.arange(kv.num_basis)
    first = spans[np.searchsorted(spans, i)] - p
    last = spans[np.searchsorted(spans, i + p, side="right") - 1]
    return first, last - first + 1


def _stiffness_pattern(field):
    """CSR pattern of the stiffness, kron(P_s, P_t) with 2 x 2 dof blocks.

    Returns (indptr, indices, positions). A row lists its function's
    coupled s-range, then t-range, then the two components, ascending.
    positions(g) maps the (P, m) function indices of P element blocks to
    the data positions of their entries, of shape (2, 2, P, m, m) over the
    components (c, e) and the functions (a, b).
    """
    # int32 throughout, as the CSR arrays: positions makes the largest
    # integer arrays of the assembly
    (first_s, count_s), (first_t, count_t) = (
        np.int32(_coupling(kv)) for kv in (field.knot_vector_s, field.knot_vector_t)
    )
    ns, nt = field.shape
    row_len = np.repeat(2 * np.outer(count_s, count_t).ravel(), 2)
    indptr = np.zeros(row_len.size + 1, dtype=np.int32)
    indptr[1:] = np.cumsum(row_len)
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    # The row of dof (i, j, c) holds, for each coupled s-function
    # first_s[i] + u, the 2 count_t[j] columns from 2 ((first_s[i] + u) n_t
    # + first_t[j]) on. So the 2 n_t rows of every s-function in a run of
    # equal count_s are one pattern shifted by 2 n_t first_s[i], and the
    # run fills one contiguous (functions, pattern) block of indices.
    t_first, t_count = (np.repeat(2 * a, 2) for a in (first_t, count_t))  # per (j, c)
    cuts = list(np.flatnonzero(np.diff(count_s)) + 1)
    for i0, i1 in zip([0] + cuts, cuts + [ns]):
        seg_start = (t_first[:, None] + 2 * nt * np.arange(count_s[i0])).ravel()
        seg_len = np.repeat(t_count, count_s[i0])
        # seg_start[k] + (0 .. seg_len[k] - 1) for each segment k, back to back
        pattern = np.repeat(seg_start - (np.cumsum(seg_len) - seg_len), seg_len)
        pattern += np.arange(pattern.size)
        block = indices[indptr[2 * nt * i0]:indptr[2 * nt * i1]].reshape(i1 - i0, -1)
        np.add((2 * nt * first_s[i0:i1])[:, None], pattern, out=block)

    def positions(g):
        g = g.astype(np.int32)
        i, j = np.divmod(g, np.int32(nt))
        ia, ja, ib, jb = i[:, :, None], j[:, :, None], i[:, None, :], j[:, None, :]
        slot = 2 * ((ib - first_s[ia]) * count_t[ja] + jb - first_t[ja])
        c = np.arange(2, dtype=np.int32)
        start = indptr[2 * g + c[:, None, None]]
        return start[:, None, :, :, None] + slot + c[:, None, None, None]

    return indptr, indices, positions


def assemble_stiffness(geometry, field, material, n_quad):
    """Sparse (CSR) stiffness matrix for 2 dofs per basis function.

    Each Gauss panel adds one element block, the sum over its points of
    w |J| B^T D B; its points must share one field span. The block is
    formed from the three Gram products sum w dN_x^T dN_x, sum w dN_x^T dN_y
    and sum w dN_y^T dN_y, and added straight into the data of the CSR
    pattern, one batch of panels at a time. Each entry is the sum of its
    panels' terms in the tiling's panel order (_add_blocks), so no bit of K
    depends on quadrature.BATCH_POINTS.
    """
    from scipy import sparse

    D = material.plane_stress_matrix()
    r = _STRAIN_ROW
    # coef[(c, e), (d, f)] weighs sum w dN_d^T dN_f in block entry (c, e)
    coef = D[r[:, None, :, None], r[None, :, None, :]].reshape(4, 4)
    indptr, indices, positions = _stiffness_pattern(field)
    data = np.zeros(indices.size)
    for s, t, weights in gauss_panels(partition_regions(geometry, field), n_quad):
        _add_blocks(data, positions, *_element_blocks(geometry, field, coef, s, t, weights))
    n = 2 * field.dim
    return sparse.csr_array((data, indices, indptr), shape=(n, n))


# _element_blocks and _add_blocks are functions of their own so that a
# batch's arrays are freed on return: its gradients before its blocks are
# scattered, and its blocks before the next batch is evaluated.


def _element_blocks(geometry, field, coef, s, t, weights):
    """The element blocks of one gauss_panels batch of P panels.

    Returns (first, blocks): the (P, m) functions of each panel, m of them,
    and the (4, P m m) block entries over (c, e) and then (panel, a, b).
    """
    span_s, span_t, dN_dx, dN_dy, cd = physical_gradients(geometry, field, s, t)
    C, T, n = weights.shape[:3]
    # a panel's points share one span pair when its column's n s-nodes
    # share one s-span and its n t-nodes one t-span
    span_s, span_t = span_s.reshape(C, n), span_t.reshape(T, n)
    split = (np.any(span_s != span_s[:, :1], axis=1)[:, None]
             | np.any(span_t != span_t[:, :1], axis=1))
    if split.any():
        # a panel is named by its first node: its column's first s, its row's first t
        s0, t0 = _first_where(split, s[:, :1, 0, 0], t[0, :, 0, 0])
        raise AssemblyError(
            f"the Gauss panel at (s, t) = ({s0:.6g}, {t0:.6g}) "
            "spans more than one field knot span"
        )
    P, q, m = C * T, n * n, dN_dx.shape[-1]
    first = field._functions(span_s[:, None, 0], span_t[None, :, 0]).reshape(P, m)
    w = (weights * cd.jacobian_scale).reshape(P, q, 1)
    dx, dy = dN_dx.reshape(P, q, m), dN_dy.reshape(P, q, m)
    wdx = np.swapaxes(w * dx, 1, 2)
    gram = np.empty((4, P, m, m))
    np.matmul(wdx, dx, out=gram[0])
    np.matmul(wdx, dy, out=gram[1])
    gram[2] = np.swapaxes(gram[1], 1, 2)
    np.matmul(np.swapaxes(w * dy, 1, 2), dy, out=gram[3])
    return first, coef @ gram.reshape(4, -1)


def _add_blocks(data, positions, first, blocks):
    """Add _element_blocks' blocks into the CSR data at their positions, one
    by one in the tiling's panel order, as np.add.at is unbuffered."""
    np.add.at(data, positions(first).ravel(), blocks.ravel())


def _edge_geometry(geometry, tiling, edge, n_quad):
    """An edge's Gauss rule: n_quad points between each two neighbouring
    tiling lines that cross it.

    Returns (s, t, xy, weights, normals): the points' parameters, (N, 2)
    positions, Gauss weight times tangent length, and (N, 2) outward unit
    normals.
    """
    axis, value = _EDGES[edge]
    x, w = gauss_points_1d(n_quad)
    lines = (tiling.t_lines, tiling.s_lines)[axis]
    h = np.diff(lines)[:, None]
    r = (lines[:-1, None] + h * x).ravel()
    st = [r, r]
    st[axis] = value
    _require_planar(geometry.surface)
    # the fixed parameter stays a float: that gives the broadcast batch's
    # bits, and on an s-edge the trimming curves run one scalar query
    cd = geometry.composite_eval(*st, 1)
    s, t = np.broadcast_arrays(*st)
    xy = cd.x[..., :2]
    d = (cd.dx_ds[..., :2], cd.dx_dt[..., :2])  # along s, along t
    tangent, outward = d[1 - axis], (d[axis] if value else -d[axis])
    normal = np.stack([tangent[..., 1], -tangent[..., 0]], axis=-1)
    norm = np.sqrt(normal[..., 0] ** 2 + normal[..., 1] ** 2)
    check_regular(norm, geometry.surface.singular_length, s, t)
    normal = normal / norm[..., None]
    inward = np.sum(normal * outward, axis=-1) < 0.0
    normal = np.where(inward[..., None], -normal, normal)
    return s, t, xy, (w * h).ravel() * norm, normal


def _checked_traction(edge, value, xy):
    """value as floats; AssemblyError unless finite and xy's (N, 2) shape or (2,)."""
    try:
        tvec = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise AssemblyError(f"edge {edge}: traction must be numbers, got {value!r}") from None
    if tvec.shape not in (xy.shape, (2,)):
        raise AssemblyError(f"edge {edge}: traction must have shape {xy.shape} or (2,), "
                            f"got {tvec.shape}")
    full = np.broadcast_to(tvec, xy.shape)
    bad = ~np.isfinite(full).all(axis=-1)
    if bad.any():
        x, y, tx, ty = _first_where(bad, xy[:, 0], xy[:, 1], full[:, 0], full[:, 1])
        raise AssemblyError(f"edge {edge}: traction ({tx}, {ty}) at point ({x}, {y}) "
                            "is not finite")
    return tvec


def assemble_tractions(geometry, field, bcs, n_quad):
    """Load vector from the Traction edges, on the tiling's lines along each."""
    f = np.zeros(2 * field.dim)
    tiling = partition_regions(geometry, field)
    for edge, bc in bcs.items():
        if not isinstance(bc, Traction):
            continue
        s, t, xy, w, normal = _edge_geometry(geometry, tiling, edge, n_quad)
        tvec = _checked_traction(edge, bc.fn(xy, normal), xy)
        idx, values = field.basis(s, t)
        scale = w[:, None] * values
        np.add.at(f.reshape(-1, 2), idx, scale[..., None] * tvec[..., None, :])
    return f


def symmetry_constraints(geometry, field, bcs):
    """The sorted dofs that Symmetry edges fix: the normal displacement.

    An edge's normals are read where its tractions would be, at the
    default-order Gauss points on the tiling's lines (_edge_geometry). Each
    must lie on the axis of the edge's first normal within 1e-6, or
    AssemblyError names the first (x, y) where one does not.
    """
    fixed = [np.empty(0, dtype=np.intp)]
    tiling, n_quad = partition_regions(geometry, field), _default_order(geometry, field)
    functions = np.arange(field.dim).reshape(field.shape)
    for edge, bc in bcs.items():
        if not isinstance(bc, Symmetry):
            continue
        _, _, xy, _, normals = _edge_geometry(geometry, tiling, edge, n_quad)
        comp = int(np.argmax(np.abs(normals[0])))
        off = ~(np.abs(normals[:, 1 - comp]) <= 1e-6)  # NaN too
        if off.any():
            x, y, nx, ny = _first_where(off, xy[:, 0], xy[:, 1], normals[:, 0], normals[:, 1])
            raise AssemblyError(f"edge {edge}: symmetry condition needs an axis-aligned "
                                f"normal, got ({nx}, {ny}) at (x, y) = ({x}, {y})")
        axis, value = _EDGES[edge]
        fixed.append(2 * np.take(functions, -int(value), axis=axis) + comp)
    return np.unique(np.concatenate(fixed))


def assemble(geometry, field, material, bcs, n_quad=None):
    """Stiffness matrix, traction load vector and the fixed dofs, (K, f, fixed).

    The constraints are not applied to K or f; fixed is symmetry_constraints'.
    The checks that need no integral run first: the conditions cover the
    four edges, no closing edge is one point, and each Symmetry edge is
    axis-aligned.
    """
    _check_bcs(bcs)
    _check_closing_edges(geometry)
    fixed = symmetry_constraints(geometry, field, bcs)
    if n_quad is None:
        n_quad = _default_order(geometry, field)
    # tractions next: a load that cannot be used fails before the stiffness
    f = assemble_tractions(geometry, field, bcs, n_quad)
    K = assemble_stiffness(geometry, field, material, n_quad)
    return K, f, fixed


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
        idx, values = self.field.basis(s, t)
        return (values[..., None, :] @ self.coeffs[idx])[..., 0, :]

    def strain(self, s, t):
        """Strain (exx, eyy, gxy) in a last axis at (s, t)."""
        span_s, span_t, dN_dx, dN_dy, _ = physical_gradients(self.geometry, self.field, s, t)
        u = self.coeffs[self.field._functions(span_s, span_t)]
        grad_x = (dN_dx[..., None, :] @ u)[..., 0, :]  # (dux/dx, duy/dx)
        grad_y = (dN_dy[..., None, :] @ u)[..., 0, :]  # (dux/dy, duy/dy)
        return np.stack(
            [grad_x[..., 0], grad_y[..., 1], grad_y[..., 0] + grad_x[..., 1]], axis=-1
        )

    def stress(self, s, t):
        """Plane-stress components (sxx, syy, sxy) in a last axis at (s, t)."""
        return (self.material.plane_stress_matrix() @ self.strain(s, t)[..., None])[..., 0]


def solve_problem(geometry, field, material, bcs, n_quad=None):
    """Assemble, constrain, and solve by banded Cholesky; returns a SolveResult.

    K is symmetric positive definite once constrained, and banded in the
    field's s-major, t-fastest numbering: function (i, j) couples only with
    (i ± degree_s, j ± degree_t), so the half-bandwidth is about
    2 (degree_s n_t + degree_t). The lower band is filled from K's CSR
    arrays into a C-ordered (n, kd + 1) array, row j holding K[j + k, j] at
    k, three field s-columns of dofs (3 x 2 n_t rows) at a time, so no copy
    of K's arrays is made; its transpose is LAPACK's band[i - j, j] =
    K[i, j] in Fortran order, which one driver (?pbsv, by solveh_banded)
    factors in place and solves with. A fixed dof's row is masked out as the
    band is filled, and it becomes an identity row and column of the band
    with a zero load. A pivot that is not positive is a SolveError.
    """
    from scipy.linalg import LinAlgError, solveh_banded

    K, f, fixed = assemble(geometry, field, material, bcs, n_quad)
    free = np.ones(K.shape[0], dtype=bool)
    free[fixed] = False
    # three s-columns per pass: one per pass made 67 passes at stage 3, and
    # more than three hold larger index arrays for no further gain
    band = _constrained_band(K, free, 3 * 2 * field.shape[1])
    rhs = np.where(free, f, 0.0)
    try:
        u = solveh_banded(band.T, rhs, overwrite_ab=True, overwrite_b=True, lower=True,
                          check_finite=False)
    except LinAlgError as exc:
        raise SolveError(f"linear solve failed: {exc}") from None
    res = float(np.linalg.norm((K @ u - f)[free]))
    ref = float(np.linalg.norm(f[free]))
    residual = res / ref if ref > 0 else res
    if not np.isfinite(residual) or residual > 1e-10:
        raise SolveError(f"solver residual {residual:.3e} exceeds 1e-10")
    return SolveResult(geometry, field, material, u.reshape(-1, 2), residual, fixed)


def _constrained_band(K, free, run):
    """The lower band of K with each fixed dof an identity row and column.

    Returns the C-ordered (n, kd + 1) array whose row j holds K[j + k, j]
    at k; kd is the largest distance from a row to its first stored column.
    The stored K[i, j] with i >= j are copied one run of rows at a time, a
    fixed dof's row masked out, so no array the size of K's is made besides
    the band; a fixed dof's column is then zeroed and its diagonal set to 1.
    """
    n = K.shape[0]
    indptr, indices, data = K.indptr, K.indices, K.data
    kd = int((np.arange(n) - indices[indptr[:-1]]).max())
    band = np.zeros((n, kd + 1))
    flat = band.reshape(-1)
    row_len = np.diff(indptr)
    for r0 in range(0, n, run):
        r1 = min(r0 + run, n)
        lo, hi = indptr[r0], indptr[r1]
        rows = np.repeat(np.arange(r0, r1), row_len[r0:r1])
        cols = indices[lo:hi]
        keep = (rows >= cols) & np.repeat(free[r0:r1], row_len[r0:r1])
        # K[i, j] is flat[j (kd + 1) + i - j]
        flat[(rows + np.multiply(cols, kd, dtype=np.intp))[keep]] = data[lo:hi][keep]
    fixed = np.flatnonzero(~free)
    band[fixed] = 0.0  # its column
    band[fixed, 0] = 1.0
    return band


# ---------------------------------------------------------------------------
# reference solution: infinite plate with a circular hole under x-tension


@dataclass(frozen=True)
class ReferencePoint:
    """Closed-form stresses and displacements at physical points.

    Each field has the broadcast shape of the queried x and y.
    """

    sxx: float | np.ndarray
    syy: float | np.ndarray
    sxy: float | np.ndarray
    ux: float | np.ndarray
    uy: float | np.ndarray

    @property
    def stress(self):
        """(sxx, syy, sxy) in a last axis."""
        return np.stack([self.sxx, self.syy, self.sxy], axis=-1)


def kirsch_reference(x, y, far_stress, hole_radius, material):
    """Stress concentration fields around a circular hole, plane stress.

    Uniaxial far tension along x; hoop stress reaches 3 * far_stress on the
    rim at 90 degrees. Points inside the hole are rejected.
    """
    r, (sxx, syy, sxy) = _kirsch_stress(x, y, far_stress, hole_radius)
    a, T = hole_radius, far_stress
    theta = np.arctan2(y, x)
    mu = material.shear_modulus
    kappa = (3.0 - material.poisson_ratio) / (1.0 + material.poisson_ratio)
    ra = r / a
    ar = a / r
    ar3 = ar ** 3
    c1, s1 = np.cos(theta), np.sin(theta)
    c3, s3 = np.cos(3 * theta), np.sin(3 * theta)
    pref = T * a / (8.0 * mu)
    ux = pref * (ra * (kappa + 1.0) * c1 + 2.0 * ar * ((1.0 + kappa) * c1 + c3) - 2.0 * ar3 * c3)
    uy = pref * (ra * (kappa - 3.0) * s1 + 2.0 * ar * ((1.0 - kappa) * s1 + s3) - 2.0 * ar3 * s3)
    return ReferencePoint(sxx, syy, sxy, ux, uy)


def _kirsch_stress(x, y, far_stress, hole_radius):
    """Radius r, clamped to the rim, and stresses (sxx, syy, sxy) of kirsch_reference.

    No trigonometric call: with r² = x² + y², the double-angle identities
    give cos 2θ = (x - y)(x + y) / r² and sin 2θ = 2xy / r², and 4θ follows
    from 2θ the same way, so the rim points (0, a) and (a, 0) get their
    stresses exactly. The displacements are left out: the error norm and the
    traction edge need only the stresses. A hole radius or far stress that
    is not finite and positive is a DomainError.
    """
    _check_positive(hole_radius=hole_radius, far_stress=far_stress)
    a, T = hole_radius, far_stress
    r = np.hypot(x, y)
    inside = r < a * (1.0 - 1e-12)
    if np.any(inside):
        xi, yi = _first_where(inside, x, y)
        raise DomainError(f"point ({xi}, {yi}) lies inside the hole of radius {a}")
    r2 = x * x + y * y
    c2, s2 = (x - y) * (x + y) / r2, 2.0 * x * y / r2
    c4, s4 = (c2 - s2) * (c2 + s2), 2.0 * s2 * c2
    r = np.maximum(r, a)
    a2 = (a / r) ** 2
    a4 = a2 * a2
    sxx = T * (1.0 - a2 * (1.5 * c2 + c4) + 1.5 * a4 * c4)
    syy = T * (-a2 * (0.5 * c2 - c4) - 1.5 * a4 * c4)
    sxy = T * (-a2 * (0.5 * s2 + s4) + 1.5 * a4 * s4)
    return r, (sxx, syy, sxy)


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
        _check_int(self.stage, "refinement stage", 0)
        if self.bc_mode not in ("paper", "exact"):
            raise DomainError(f"bc_mode must be 'paper' or 'exact', got {self.bc_mode!r}")
        _check_int(self.degree, "degree", 1)
        # the error norm integrates on quad_order + 2 points, and a rule has at most 64
        if self.quad_order is not None:
            _check_int(self.quad_order, "quad_order (a quadrature order)", 1, 62)
        _check_positive(scale=self.scale, far_stress=self.far_stress,
                        arc_weight=self.arc_weight)


def plate_boundary_conditions(config, hole_radius):
    """Symmetry on the straight edges, free hole, tractions on the outside.

    The outer polyline folds the top and right physical edges into the
    single t=1 edge; they are told apart by the outward normal. In "paper"
    mode the right edge carries the uniform far-field pull and the top edge
    the reference tractions; in "exact" mode both carry reference tractions.
    """
    far = config.far_stress

    def outer_traction(xy, normal):
        sxx, syy, sxy = _kirsch_stress(xy[:, 0], xy[:, 1], far, hole_radius)[1]
        sig = np.moveaxis(np.array([[sxx, sxy], [sxy, syy]]), -1, 0)
        traction = (sig @ normal[..., None])[..., 0]
        if config.bc_mode == "paper":
            right = np.abs(normal[:, 0]) > np.abs(normal[:, 1])
            traction = np.where(right[:, None], [far, 0.0], traction)
        return traction

    return {
        "s0": Symmetry(),
        "s1": Symmetry(),
        "t0": Free(),
        "t1": Traction(outer_traction),
    }


class PlateResult:
    """SolveResult plus the convergence metrics of the benchmark."""

    def __init__(self, solution, l2_stress_error, rim_stress):
        self.solution = solution
        self.l2_stress_error = l2_stress_error
        self.rim_stress = rim_stress
        self.dofs = solution.dofs


def plate_field(region, config):
    field = FieldSpace.conforming(region, config.degree)
    halvings = BASE_HALVINGS + config.stage
    return FieldSpace(*(_bisected(kv, halvings)
                        for kv in (field.knot_vector_s, field.knot_vector_t)))


def solve_plate(config=None, region=None):
    """Solve the quarter plate with a hole at the configured refinement stage.

    A custom region (same layout: hole arc at t=0, straight symmetry edges at
    s=0 and s=1) may replace the built-in geometry. Either way the hole
    radius is read off the rim point at (s, t) = (0, 0), and the t = 0 edge
    must lie on that circle (_check_circular_hole).
    """
    config = config or PlateConfig()
    if region is None:
        region = plate_with_hole_region(config.scale, config.arc_weight)
    hole_radius = float(np.linalg.norm(region.composite_eval(0.0, 0.0, 0).x[:2]))
    field = plate_field(region, config)
    n_quad = config.quad_order or _default_order(region, field)
    _check_circular_hole(region, field, n_quad, hole_radius)
    bcs = plate_boundary_conditions(config, hole_radius)
    solution = solve_problem(region, field, config.material, bcs, n_quad)
    far = config.far_stress
    l2 = stress_error_l2(solution, lambda x, y: _kirsch_stress(x, y, far, hole_radius)[1],
                         n_quad + 2)
    rim = float(solution.stress(0.0, 0.0)[0])
    return PlateResult(solution, l2, rim)


#: how far, relative to the rim radius, the hole edge may stray from
#: the circle: the printed 0.707 arc weight strays 2.6e-5 at the stage-0
#: Gauss points, a weight of 1.0 strays 6.1e-2
_HOLE_TOL = 1e-4


def _check_circular_hole(region, field, n_quad, radius):
    """DomainError naming the first Gauss point of the t = 0 edge, on the
    tiling's lines, whose distance from the origin is not radius within
    _HOLE_TOL relative: the reference field is Kirsch's, for a circular
    hole about the origin."""
    xy = _edge_geometry(region, partition_regions(region, field), "t0", n_quad)[2]
    x, y = xy[:, 0], xy[:, 1]
    off = ~(np.abs(np.hypot(x, y) - radius) <= _HOLE_TOL * radius)  # NaN too
    if off.any():
        x0, y0 = _first_where(off, x, y)
        raise DomainError(f"the hole edge (t = 0) leaves the circle of radius {radius} "
                          f"about the origin at (x, y) = ({x0}, {y0})")


def stress_error_l2(solution, reference, n_quad):
    """Relative L2 norm of the stress error against a reference field.

    reference(x, y) returns the stresses (sxx, syy, sxy), each broadcasting
    against x and y, on n_quad Gauss points per panel and direction.
    Frobenius norm on the symmetric tensor, so the shear component counts
    twice. The displacement gradient comes from sum factorization on each
    batch's tensor grid: the coefficients are contracted with the t-basis
    once, as every batch shares its t-nodes, then with the batch's s-basis.
    Both are fixed-order sums, so a point's value does not depend on its
    batch. Each gradient component is then one contiguous (c, T, n, n)
    array, in gauss_panels' order, and J^-T is applied to both at once.
    Each of the two integrals is one exactly rounded sum over all its
    terms (_fsum), so neither depends on the batching. So the batches hold
    twice the stiffness's quadrature.BATCH_POINTS, read at each call: fewer
    numpy calls per point, for a transient that stays below the solve's
    band phase. A term that is not finite, as a NaN reference stress gives,
    is a DomainError naming its point, the first in gauss_panels' order; so
    is a reference that is zero on the whole region.
    """
    geometry, field = solution.geometry, solution.field
    kv_s, kv_t = field.knot_vector_s, field.knot_vector_t
    D = solution.material.plane_stress_matrix()
    batches = gauss_panels(partition_regions(geometry, field), n_quad,
                           2 * quadrature.BATCH_POINTS)
    batch = next(batches)
    # t-side, once: every batch has the same (1, T, 1, n) t-nodes, at which
    # u and u_t are the (2, n_s, T * n) t-contracted values and t-derivatives
    span, ders = kv_t.basis(batch[1].ravel(), 1)
    coeffs = np.moveaxis(solution.coeffs.reshape(field.shape + (2,)), -1, 0)
    u, u_t = (_contract(coeffs, span - kv_t.degree, ders[:, k], 2) for k in (0, 1))
    num_parts, den_parts = [], []
    for s, t, weights in itertools.chain([batch], batches):
        cd = geometry.composite_eval(s, t, 1)
        span, ders = kv_s.basis(s.ravel(), 1)
        du_ds = _contract(u, span - kv_s.degree, ders[:, 1], 1)
        du_dt = _contract(u_t, span - kv_s.degree, ders[:, 0], 1)
        # from the (2, c * n, T * n) grid to gauss_panels' (c, T, n, n) order
        c, T, n = weights.shape[:3]
        du_ds, du_dt = (np.ascontiguousarray(g.reshape(2, c, n, T, n).swapaxes(2, 3))
                        for g in (du_ds, du_dt))
        du_dx, du_dy = _to_physical(_jacobian(geometry, cd, s, t), du_ds, du_dt)
        exx, eyy, gxy = du_dx[0], du_dy[1], du_dy[0] + du_dx[1]
        x, y, _ = _unpack(cd._x, 1)
        sxx, syy, sxy = reference(x, y)
        dxx, dyy, dxy = (d[0] * exx + d[1] * eyy + d[2] * gxy - ref
                         for d, ref in zip(D.tolist(), (sxx, syy, sxy)))
        w = weights * cd.jacobian_scale
        num = w * (dxx ** 2 + dyy ** 2 + 2.0 * dxy ** 2)
        den = w * (sxx ** 2 + syy ** 2 + 2.0 * sxy ** 2)
        for what, terms in (("reference stress", den), ("stress error", num)):
            finite = np.isfinite(terms)
            if not finite.all():
                x0, y0 = _first_where(~finite, x, y)
                raise DomainError(f"the {what} term is not finite at (x, y) = ({x0}, {y0})")
        num_parts.append(num)
        den_parts.append(den)
    reference_norm = _fsum(den_parts)
    if not reference_norm:
        raise DomainError("the reference stress is zero on the whole region")
    return math.sqrt(_fsum(num_parts) / reference_norm)


def _fsum(arrays):
    """The exactly rounded sum of every entry of the finite float arrays,
    which it overwrites.

    Error-free extraction (Rump, Ogita & Oishi 2008, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31): with n terms, the largest
    |term| below 2**e and sigma = 2**(e + n.bit_length() + 1), hi = (sigma +
    x) - sigma rounds each term to one grid of 2**-53 sigma, x - hi is exact,
    and every partial sum of the hi values stays on that grid below sigma,
    so each array's hi.sum() is exact in any order. The remainders, at most 2**-54
    sigma, are summed the same way until all are zero, and one fsum of these
    few level sums rounds once. Where sigma would overflow, the terms are
    scaled by 2**-shift for the extraction, exactly where it matters: a term
    that underflows there lies far below the grid and gives hi = 0. The
    remainder then comes off in two halves, neither of which overflows, and
    the level sums are combined as fractions.
    """
    n = sum(a.size for a in arrays)
    levels = []  # (exact level sum, shift): the level adds that times 2**shift
    while big := max((float(np.abs(a).max()) for a in arrays if a.size), default=0.0):
        if not math.isfinite(big):
            raise ValueError("_fsum needs finite terms")
        e = math.frexp(big)[1] + n.bit_length() + 1
        shift = max(e - 1023, 0)
        sigma = math.ldexp(1.0, e - shift)
        for a in arrays:
            hi = sigma + (a * math.ldexp(1.0, -shift) if shift else a)
            hi -= sigma
            levels.append((float(hi.sum()), shift))
            if shift:
                hi *= math.ldexp(1.0, shift - 1)
                a -= hi
            a -= hi
    if any(shift for _, shift in levels):
        # imported here: only sums near the largest double need it, and
        # fractions imports decimal, which would add to every start-up
        from fractions import Fraction

        return float(sum(Fraction(level) * 2 ** shift for level, shift in levels))
    return math.fsum(level for level, _ in levels)


def _contract(coeffs, first, ders, axis):
    """Coefficients contracted along one axis with a 1D basis table.

    ders holds, per node, the degree + 1 nonzero functions' values (or
    derivatives) from the function index first; the node axis replaces
    the function axis of coeffs. Each entry sums its terms in ascending
    function order, whatever the number of nodes.
    """
    shape = [1] * coeffs.ndim
    shape[axis] = first.size
    acc = 0.0
    for j in range(ders.shape[-1]):
        acc = acc + ders[:, j].reshape(shape) * np.take(coeffs, first + j, axis=axis)
    return acc


def convergence_rates(results):
    """Estimated order between consecutive stages (h halves every stage)."""
    rates = []
    for a, b in zip(results[:-1], results[1:]):
        rates.append(math.log(a.l2_stress_error / b.l2_stress_error) / math.log(2.0))
    return rates
