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

The blend, the chain rule, MapDerivatives.det and cross_norm are written
once, on components: floats for a scalar query, views for a batch, with the
same bits (nurbs._unpack). A query reads its rank once, in _check_st, and
runs straight through named components: the curves' into the blend, written
u = r * b_u + t * c_u with r = 1 - t, the blend's and the surface's into the
chain rule. Each bundle is built once, positionally, from lists of
components. The components are read from the bundles' private slots, where
they stay the lists the formulas produced, floats for a scalar query and
arrays for a batch: no curve or surface field becomes an array, and an
answer's fields become arrays only when a caller reads them (nurbs._Field).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidGeometryError, SingularMapError, UnsupportedTopologyError
from .nurbs import (MERGE_TOL, NurbsCurve, NurbsSurface, _check_int, _Field, _first_where,
                    _rank, _unpack, merge_close)

_CONTAIN_TOL = 1e-9


# slotted bundles of nurbs._Field fields, built as nurbs.CurveDerivatives is
@dataclass(init=False)
class MapDerivatives:
    """Blend map value and first derivatives at (s, t).

    When the query sits exactly on an interior knot of a trimming curve, the
    s derivative is the right-sided limit. For array queries uv and duv_ds
    gain the points' shape in front of their last axis; duv_dt, independent
    of t, gains s's shape only, which broadcasts against the points'.
    """

    __slots__ = ("_uv", "_duv_ds", "_duv_dt")
    uv: np.ndarray = _Field()
    duv_ds: np.ndarray = _Field()
    duv_dt: np.ndarray = _Field()

    def __init__(self, uv, duv_ds, duv_dt):
        self._uv, self._duv_ds, self._duv_dt = uv, duv_ds, duv_dt

    @property
    def det(self):
        """Signed parameter-space Jacobian det d(u,v)/d(s,t)."""
        ds, dt = self._duv_ds, self._duv_dt
        rank = 0 if type(ds) is list else ds.ndim - 1
        (us, vs), (ut, vt) = _unpack(ds, rank), _unpack(dt, rank)
        return us * vt - vs * ut


@dataclass(init=False)
class CompositeDerivatives:
    """Model-space point and derivatives of the composite map at (s, t).

    For array queries every field gains the points' shape in front of its
    last axis; jacobian_scale has the points' shape, a float for a scalar.
    """

    __slots__ = ("_x", "_dx_ds", "_dx_dt", "_d2x_ds2", "_d2x_dt2", "_d2x_dsdt",
                 "jacobian_scale")
    x: np.ndarray = _Field()
    dx_ds: np.ndarray = _Field()
    dx_dt: np.ndarray = _Field()
    d2x_ds2: np.ndarray | None = _Field()
    d2x_dt2: np.ndarray | None = _Field()
    d2x_dsdt: np.ndarray | None = _Field()
    jacobian_scale: float | np.ndarray

    def __init__(self, x, dx_ds, dx_dt, d2x_ds2=None, d2x_dt2=None, d2x_dsdt=None,
                 jacobian_scale=0.0):
        self._x, self._dx_ds, self._dx_dt = x, dx_ds, dx_dt
        self._d2x_ds2, self._d2x_dt2, self._d2x_dsdt = d2x_ds2, d2x_dt2, d2x_dsdt
        self.jacobian_scale = jacobian_scale


@dataclass(frozen=True)
class Breakpoint:
    """Interior s-knot of a trimming curve with its continuity class."""

    s: float
    continuity: int


@dataclass(frozen=True)
class RegionReport:
    """Grid sweep diagnostics produced by TrimmedRegion.validate.

    The blend stays inside the unit square, up to roundoff: the constructor
    puts every control point in it, a positive-weight curve stays in the
    convex hull of its control points, and the blend is convex in t.
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
    """curve as a 2D curve in the unit square; a 3D one needs z identically zero.

    A control point up to _CONTAIN_TOL outside is snapped onto the square, as
    KnotVector snaps its end knots; a 2D curve inside is returned uncopied."""
    pts = curve.control_points
    z = np.max(np.abs(pts[:, 2:]), initial=0.0)
    if z > _CONTAIN_TOL:
        raise InvalidGeometryError(
            f"{name} trimming curve must live in the parameter plane (max |z| = {z:.3g})"
        )
    pts = pts[:, :2]
    lo, hi = pts.min(), pts.max()
    if lo < -_CONTAIN_TOL or hi > 1.0 + _CONTAIN_TOL:
        raise InvalidGeometryError(
            f"{name} trimming curve control points must lie in the unit "
            f"square (found {lo:.6g}..{hi:.6g})"
        )
    if lo < 0.0 or hi > 1.0:
        pts = np.clip(pts, 0.0, 1.0)
    elif curve.dim == 2:
        return curve
    return NurbsCurve(curve.knot_vector, pts, curve.weights)


class TrimmedRegion:
    """A surface with two parameter-space trimming curves defining the map."""

    def __init__(self, surface, curve_bottom, curve_top):
        if not isinstance(surface, NurbsSurface):
            raise InvalidGeometryError("surface must be a NurbsSurface")
        bottom = _as_parameter_curve(curve_bottom, "bottom")
        top = _as_parameter_curve(curve_top, "top")
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
        """(rank, s, t): the query's rank (nurbs._rank), read once here, and
        (s, t) moved into the unit square.

        DomainError where a point lies further than MERGE_TOL outside, as
        a NaN coordinate does.
        """
        rank = _rank(s) or _rank(t)
        if rank:
            s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
            inside = (s >= -MERGE_TOL) & (s <= 1.0 + MERGE_TOL)
            inside = inside & (t >= -MERGE_TOL) & (t <= 1.0 + MERGE_TOL)
            if not inside.all():
                s0, t0 = _first_where(~inside, s, t)
                raise DomainError(f"(s, t) = ({s0}, {t0}) outside the unit square")
            return rank, np.clip(s, 0.0, 1.0), np.clip(t, 0.0, 1.0)
        if not (-MERGE_TOL <= s <= 1.0 + MERGE_TOL) or not (
            -MERGE_TOL <= t <= 1.0 + MERGE_TOL
        ):
            raise DomainError(f"(s, t) = ({s}, {t}) outside the unit square")
        return 0, min(max(s, 0.0), 1.0), min(max(t, 0.0), 1.0)

    def _blend(self, rank, s, t, order):
        """The blend's components at (s, t) for order 1 or 2, evaluating the
        curves at s's values only (nurbs._unpack): u, v, u_s, v_s, u_t, v_t,
        then u_ss, v_ss, u_st, v_st at order 2 or four Nones at order 1.
        u_tt and v_tt are zero, as the blend is linear in t."""
        b = self.curve_bottom.evaluate(s, order)
        c = self.curve_top.evaluate(s, order)
        r = 1.0 - t
        (bu, bv), (cu, cv) = _unpack(b._value, rank), _unpack(c._value, rank)
        (bus, bvs), (cus, cvs) = _unpack(b._d1, rank), _unpack(c._d1, rank)
        first = (r * bu + t * cu, r * bv + t * cv, r * bus + t * cus, r * bvs + t * cvs,
                 cu - bu, cv - bv)
        if order < 2:
            return first + (None,) * 4
        (buss, bvss), (cuss, cvss) = _unpack(b._d2, rank), _unpack(c._d2, rank)
        return first + (r * buss + t * cuss, r * bvss + t * cvss, cus - bus, cvs - bvs)

    def _map(self, rank, s, t):
        """map_point for (s, t) already inside the square."""
        u, v, us, vs, ut, vt, *_ = self._blend(rank, s, t, 1)
        return MapDerivatives([u, v], [us, vs], [ut, vt])

    def map_point(self, s, t):
        """Blend map with first derivatives at (s, t)."""
        return self._map(*self._check_st(s, t))

    def composite_eval(self, s, t, order=2):
        """Model-space point and chained derivatives of x(u(s,t), v(s,t)).

        s and t may be arrays that broadcast together, such as a batch of
        Gauss panels' (C, 1, n, 1) s-nodes and (1, T, 1, n) t-nodes: the
        trimming curves are then evaluated at the s values only.
        SingularMapError names the first singular point in C order (column
        by column, panel by panel, s-major within a panel, on a batch).
        """
        _check_int(order, "derivative order", 0, 2)
        rank, s, t = self._check_st(s, t)
        u, v, us, vs, ut, vt, uss, vss, ust, vst = self._blend(rank, s, t, order or 1)
        # the blend leaves the square by roundoff at most, which basis clamps
        sd = self.surface.evaluate(u, v, order or 1)
        # the chain rule, per model-space component
        xu, xv = _unpack(sd._du, rank), _unpack(sd._dv, rank)
        dx_ds, dx_dt = [], []
        for a, b in zip(xu, xv):
            dx_ds.append(a * us + b * vs)
            dx_dt.append(a * ut + b * vt)
        scale = cross_norm(dx_ds, dx_dt)
        check_regular(scale, self.surface.singular_area, s, t)
        if order < 2:
            return CompositeDerivatives(sd._value, dx_ds, dx_dt, None, None, None, scale)
        xuu, xuv, xvv = _unpack(sd._duu, rank), _unpack(sd._duv, rank), _unpack(sd._dvv, rank)
        d2x_ds2, d2x_dt2, d2x_dsdt = [], [], []
        for a, b, aa, ab, bb in zip(xu, xv, xuu, xuv, xvv):
            d2x_ds2.append(aa * us * us + 2.0 * ab * us * vs + bb * vs * vs + a * uss + b * vss)
            d2x_dt2.append(aa * ut * ut + 2.0 * ab * ut * vt + bb * vt * vt)
            d2x_dsdt.append(aa * us * ut + ab * (us * vt + ut * vs) + bb * vs * vt
                            + a * ust + b * vst)
        return CompositeDerivatives(sd._value, dx_ds, dx_dt, d2x_ds2, d2x_dt2, d2x_dsdt, scale)

    def validate(self, grid_n):
        """Sweep an (n+1) x (n+1) grid and report what it finds.

        A fold-over or degeneracy is reported, not raised; a grid_n that is
        not an integer >= 4 raises DomainError. Each curve is evaluated once
        at the n + 1 s-values, and det is formed on the whole (t, s) grid.
        """
        _check_int(grid_n, "grid_n", 4)
        grid = np.linspace(0.0, 1.0, grid_n + 1)
        m = self._map(1, grid, grid[:, None])
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
    """|a x b| of 3-vectors given by components: a float for floats (nurbs._unpack)."""
    c0 = a[1] * b[2] - a[2] * b[1]
    c1 = a[2] * b[0] - a[0] * b[2]
    c2 = a[0] * b[1] - a[1] * b[0]
    square = c0 * c0 + c1 * c1 + c2 * c2
    return np.sqrt(square) if _rank(square) else math.sqrt(square)


def check_regular(measure, tol, s, t):
    """SingularMapError at the first point (s-major) whose measure is not > tol.

    A NaN measure is singular. tol comes from the surface's model size
    (NurbsSurface.singular_area or singular_length), so the test does not
    depend on the model's units.
    """
    regular = measure > tol
    # a float measure gives a bool, which np.all takes microseconds to test
    if not (regular if isinstance(regular, bool) else regular.all()):
        raise SingularMapError(*_first_where(np.logical_not(regular), s, t, measure))


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

