"""The double parameter map over a region bounded by two trimming curves.

A point (s, t) in the unit square is first sent into the surface parameter
square (u, v) by blending the bottom curve C_I(s) and the top curve C_II(s)
linearly in t, then through the surface into model space:

    (u, v)(s, t) = (1 - t) * C_I(s) + t * C_II(s)
    x(s, t)      = S(u(s, t), v(s, t))

The straight closing edges at s = 0 and s = 1 are implied by the blend and
never stored. map_point returns the blend with its first derivatives;
composite_eval chains first and second derivatives exactly, the blend's
second-order terms staying inside it. The mixed second derivative uses the
symmetric two-variable chain rule, which is what central finite differences
reproduce.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidGeometryError, SingularMapError, UnsupportedTopologyError
from .nurbs import MERGE_TOL, NurbsCurve, NurbsSurface, _rank, merge_close

_CONTAIN_TOL = 1e-9


@dataclass(slots=True)
class MapDerivatives:
    """Blend map value and first derivatives at (s, t).

    When the query sits exactly on an interior knot of a trimming curve, the
    s derivative is the right-sided limit. For array queries uv and duv_ds
    gain the points' shape in front of their last axis; duv_dt, independent
    of t, gains s's shape only, which broadcasts against the points'.
    """

    uv: np.ndarray
    duv_ds: np.ndarray
    duv_dt: np.ndarray

    @property
    def det(self):
        """Signed parameter-space Jacobian det d(u,v)/d(s,t)."""
        det = (
            self.duv_ds[..., 0] * self.duv_dt[..., 1]
            - self.duv_ds[..., 1] * self.duv_dt[..., 0]
        )
        return det if _rank(det) else float(det)


@dataclass(slots=True)
class CompositeDerivatives:
    """Model-space point and derivatives of the composite map at (s, t).

    For array queries every field gains the points' shape in front of its
    last axis; jacobian_scale has the points' shape.
    """

    x: np.ndarray
    dx_ds: np.ndarray
    dx_dt: np.ndarray
    d2x_ds2: np.ndarray | None = None
    d2x_dt2: np.ndarray | None = None
    d2x_dsdt: np.ndarray | None = None
    jacobian_scale: float | np.ndarray = 0.0


@dataclass(frozen=True)
class Breakpoint:
    """Interior s-knot of a trimming curve with its continuity class."""

    s: float
    continuity: int


@dataclass(frozen=True)
class RegionReport:
    """Grid sweep diagnostics produced by TrimmedRegion.validate.

    The blend stays within _CONTAIN_TOL of the unit square: the constructor
    keeps every control point that close, a positive-weight curve stays in
    the convex hull of its control points, and the blend is convex in t.
    """

    grid_n: int
    min_det: float
    max_det: float
    min_abs_det: float
    sign_change: bool
    min_curve_gap: float

    @property
    def ok(self):
        return not self.sign_change

    def summary(self):
        lines = [
            f"grid {self.grid_n}x{self.grid_n}:"
            f" {'OK' if self.ok else 'INVALID'}",
            f"  det range [{self.min_det:.6g}, {self.max_det:.6g}],"
            f" min |det| = {self.min_abs_det:.6g}",
            f"  min gap between trimming curves = {self.min_curve_gap:.6g}",
        ]
        if self.sign_change:
            lines.append("  jacobian sign change: fold-over or degeneracy detected")
        return "\n".join(lines)


def _as_parameter_curve(curve, name):
    """Accept a 2D curve, or a 3D one whose z coordinate is identically zero."""
    if curve.dim == 2:
        return curve
    z = curve.control_points[:, 2]
    if np.max(np.abs(z)) > _CONTAIN_TOL:
        raise InvalidGeometryError(
            f"{name} trimming curve must live in the parameter plane "
            f"(max |z| = {np.max(np.abs(z)):.3g})"
        )
    return NurbsCurve(curve.knot_vector, curve.control_points[:, :2], curve.weights)


class TrimmedRegion:
    """A surface with two parameter-space trimming curves defining the map."""

    def __init__(self, surface, curve_bottom, curve_top):
        if not isinstance(surface, NurbsSurface):
            raise InvalidGeometryError("surface must be a NurbsSurface")
        bottom = _as_parameter_curve(curve_bottom, "bottom")
        top = _as_parameter_curve(curve_top, "top")
        for name, c in (("bottom", bottom), ("top", top)):
            pts = c.control_points
            if np.any(pts < -_CONTAIN_TOL) or np.any(pts > 1.0 + _CONTAIN_TOL):
                raise InvalidGeometryError(
                    f"{name} trimming curve control points must lie in the unit "
                    f"square (found {pts.min():.6g}..{pts.max():.6g})"
                )
        self.surface = surface
        self.curve_bottom = bottom
        self.curve_top = top
        self._breakpoints = _merge_breakpoints(bottom, top)

    def breakpoints(self):
        """Interior s-knots of both curves, deduplicated, worst continuity."""
        return list(self._breakpoints)

    def breaklines(self):
        """Interior (s, t) break lines of the map: the breakpoints, no t-lines."""
        return [bp.s for bp in self._breakpoints], []

    def max_degree(self):
        """Highest degree of the surface and the two trimming curves."""
        return max(*self.surface.degrees, self.curve_bottom.degree, self.curve_top.degree)

    def _check_st(self, s, t):
        """(s, t) moved into the unit square.

        DomainError where a point lies further than MERGE_TOL outside, as
        a NaN coordinate does.
        """
        if _rank(s) or _rank(t):
            s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
            inside = (s >= -MERGE_TOL) & (s <= 1.0 + MERGE_TOL)
            inside = inside & (t >= -MERGE_TOL) & (t <= 1.0 + MERGE_TOL)
            if not inside.all():
                s0, t0 = _first_where(~inside, s, t)
                raise DomainError(f"(s, t) = ({s0}, {t0}) outside the unit square")
            return np.clip(s, 0.0, 1.0), np.clip(t, 0.0, 1.0)
        if not (-MERGE_TOL <= s <= 1.0 + MERGE_TOL) or not (
            -MERGE_TOL <= t <= 1.0 + MERGE_TOL
        ):
            raise DomainError(f"(s, t) = ({s}, {t}) outside the unit square")
        return min(max(s, 0.0), 1.0), min(max(t, 0.0), 1.0)

    def _blend(self, s, t, order):
        """Blend map at (s, t), and at order 2 its (d2uv_ds2, d2uv_dsdt).

        The curves are evaluated at s's values only. d2uv_dt2 is zero, as
        the blend is linear in t.
        """
        b = self.curve_bottom.evaluate(s, order)
        tp = self.curve_top.evaluate(s, order)
        t = np.asarray(t)[..., None]
        uv = (1.0 - t) * b.value + t * tp.value
        m = MapDerivatives(uv, (1.0 - t) * b.d1 + t * tp.d1, tp.value - b.value)
        if order < 2:
            return m, None
        return m, ((1.0 - t) * b.d2 + t * tp.d2, tp.d1 - b.d1)

    def map_point(self, s, t):
        """Blend map with first derivatives at (s, t)."""
        s, t = self._check_st(s, t)
        return self._blend(s, t, 1)[0]

    def composite_eval(self, s, t, order=2):
        """Model-space point and chained derivatives of x(u(s,t), v(s,t)).

        s and t may be arrays that broadcast together, such as a batch of
        Gauss panels' (C, 1, n, 1) s-nodes and (1, T, 1, n) t-nodes: the
        trimming curves are then evaluated at the s values only.
        SingularMapError names the first singular point in C order (column
        by column, panel by panel, s-major within a panel, on a batch).
        """
        if order not in (0, 1, 2):
            raise DomainError(f"derivative order must be 0, 1 or 2, got {order}")
        s, t = self._check_st(s, t)
        m, second = self._blend(s, t, max(order, 1))
        # the blend may leave the square by roundoff and by the _CONTAIN_TOL
        # the constructor allows control points, and the surface raises
        # DomainError outside it
        uv = np.minimum(np.maximum(m.uv, 0.0), 1.0)
        sd = self.surface.evaluate(uv[..., 0], uv[..., 1], max(order, 1))
        us, vs = m.duv_ds[..., 0, None], m.duv_ds[..., 1, None]
        ut, vt = m.duv_dt[..., 0, None], m.duv_dt[..., 1, None]
        dx_ds = sd.du * us + sd.dv * vs
        dx_dt = sd.du * ut + sd.dv * vt
        scale = cross_norm(dx_ds, dx_dt)
        check_regular(scale, self.surface.singular_area, s, t)
        if order < 2:
            return CompositeDerivatives(sd.value, dx_ds, dx_dt, jacobian_scale=scale)
        d2uv_ds2, d2uv_dsdt = second
        uss, vss = d2uv_ds2[..., 0, None], d2uv_ds2[..., 1, None]
        ust, vst = d2uv_dsdt[..., 0, None], d2uv_dsdt[..., 1, None]
        d2x_ds2 = (
            sd.duu * us * us
            + 2.0 * sd.duv * us * vs
            + sd.dvv * vs * vs
            + sd.du * uss
            + sd.dv * vss
        )
        d2x_dt2 = sd.duu * ut * ut + 2.0 * sd.duv * ut * vt + sd.dvv * vt * vt
        d2x_dsdt = (
            sd.duu * us * ut
            + sd.duv * (us * vt + ut * vs)
            + sd.dvv * vs * vt
            + sd.du * ust
            + sd.dv * vst
        )
        return CompositeDerivatives(
            sd.value, dx_ds, dx_dt, d2x_ds2, d2x_dt2, d2x_dsdt, scale
        )

    def validate(self, grid_n=32):
        """Sweep an (n+1) x (n+1) grid; report-only, never raises.

        Each curve is evaluated once at the n + 1 s-values, and det is
        formed on the whole (t, s) grid at once.
        """
        if grid_n < 4:
            raise DomainError(f"grid_n must be at least 4, got {grid_n}")
        grid = np.linspace(0.0, 1.0, grid_n + 1)
        m = self._blend(grid, grid[:, None], 1)[0]
        det = m.det
        min_det, max_det = float(det.min()), float(det.max())
        sign_change = not (min_det > 0.0 or max_det < 0.0)
        return RegionReport(
            grid_n, min_det, max_det, float(np.abs(det).min()), sign_change,
            float(np.linalg.norm(m.duv_dt, axis=-1).min()),
        )


def require_valid(region, source):
    """region.validate(16), or UnsupportedTopologyError naming source if it fails.

    Every reader of a region file applies it, so a fold-over is rejected
    whatever the format.
    """
    report = region.validate(16)
    if not report.ok:
        raise UnsupportedTopologyError(f"{source} fails validation\n" + report.summary())
    return report


def cross_norm(a, b):
    """|a x b| of 3-vectors along the last axis; a float for single vectors."""
    c0 = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    c1 = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    c2 = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    norm = np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)
    return norm if _rank(norm) else float(norm)


def _first_where(mask, *values):
    """The values at the first True of mask in C order (s-major on a panel)."""
    k = int(np.argmax(mask))
    return [float(np.broadcast_to(v, np.shape(mask)).flat[k]) for v in values]


def check_regular(measure, tol, s, t):
    """SingularMapError at the first point (s-major) whose measure is <= tol.

    tol comes from the surface's model size (NurbsSurface.singular_area or
    singular_length), so the test does not depend on the model's units.
    """
    singular = measure <= tol
    # a float measure gives a bool, which np.any takes microseconds to test
    if singular if isinstance(singular, bool) else singular.any():
        raise SingularMapError(*_first_where(singular, s, t, measure))


def _merge_breakpoints(bottom, top):
    """Union of interior knots with the minimum continuity class per location."""
    entries = []
    for curve in (bottom, top):
        p = curve.degree
        values, mults = curve.knot_vector.interior()
        for value, mult in zip(values, mults):
            entries.append((value, p - mult))
    entries.sort()
    merged = []
    for value, count in zip(*merge_close(value for value, _ in entries)):
        group, entries = entries[:count], entries[count:]
        merged.append(Breakpoint(value, min(cont for _, cont in group)))
    return tuple(merged)

