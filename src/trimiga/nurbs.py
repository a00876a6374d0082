"""B-spline and NURBS evaluation.

Knot vectors, rational curves and surfaces with derivatives up to second
order, plus the two exact refinement operations (knot insertion and degree
elevation), both done by one Greville refit. All evaluation is rational
through homogeneous coordinates, so polynomial B-splines are just the
all-weights-equal special case.

Conventions:
  * knot vectors are clamped and normalized to [0, 1] on construction;
  * a parameter sitting exactly on an interior knot belongs to the
    right-adjacent span (u = 1 belongs to the last span), which makes
    one-sided derivative values at breakpoints deterministic;
  * knot vectors, curves and surfaces are immutable; refinement returns
    new objects.

The quotient rule is written once, on components: Python floats for a scalar
query and views for a batch (_unpack), after shared matmuls. Elementwise IEEE
arithmetic rounds alike on both, so both give the same bits. An evaluator
reads the query's rank once, from its basis tables' ndim, gathers a scalar
query's span block by slices, and builds its bundle once, positionally, from
named components. A bundle keeps each field as the list of components the
formulas produced, floats for a scalar query and arrays for a batch, and
builds its array the first time a caller reads the field (_Field);
trimming.TrimmedRegion reads the lists themselves, so the curves' and the
surface's fields never become arrays on its way, at either rank.

The knot-span basis (KnotVector.basis) is one kernel text for both as well:
the Cox-de Boor triangle of NURBS Book A2.2 (Piegl & Tiller), one list of
values and one of knot sums per degree level, and the first and second
derivative rows in closed form from the two levels below the top, with
A2.3's floating-point operations in A2.3's order, so its bits are A2.3's.
"""

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidGeometryError, InvalidRefinementError

#: values closer than this are one value: knots, break lines, breakpoints
MERGE_TOL = 1e-12

#: a map is singular where its area measure is below SINGULAR_TOL * L**2 or
#: its edge tangent below SINGULAR_TOL * L, L the surface's control net
#: bounding-box diagonal (see NurbsSurface.singular_area)
SINGULAR_TOL = 1e-14


#: types whose rank is 0 without asking numpy, which costs about a
#: microsecond per probe on a Python float
_SCALAR_TYPES = (float, int, np.generic)


def _rank(x):
    """np.ndim(x), answered at once for Python and numpy scalars."""
    return 0 if isinstance(x, _SCALAR_TYPES) else np.ndim(x)


def _unpack(a, rank, axes=1):
    """a's last `axes` axes in front, indexed a[k][l][c]: nested lists of
    Python floats for a scalar query (rank 0), views of a for a batch.

    A list, as the evaluators leave a bundle's field at either rank, passes
    through; a scalar's array becomes one by tolist(). The batch view is one
    transpose with its axis order written out, the view np.moveaxis gives
    without its Python-side axis normalisation.
    """
    if type(a) is list:
        return a
    if not rank:
        return a.tolist()
    lead = a.ndim - axes
    return a.transpose((*range(lead, a.ndim), *range(lead)))


def _quotient(a, w, terms=()):
    """Components of (a - w_1 d_1 - w_2 d_2 ...) / w, subtracted left to right.

    a is a homogeneous derivative, its weight last and dropped; each term
    pairs a weight derivative w_k with a lower derivative's components d_k.
    """
    out = []
    for c, x in enumerate(a[:-1]):
        for wk, d in terms:
            x = x - wk * d[c]
        out.append(x / w)
    return out


def _first_where(mask, *values):
    """The values, broadcast against mask, at its first True in C order, as Python numbers."""
    k = int(np.argmax(mask))
    return [np.broadcast_to(v, np.shape(mask)).item(k) for v in values]


def _check_int(value, name, lo, hi=math.inf):
    """DomainError unless value is an integer, Python's or numpy's, within lo..hi."""
    if not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        bound = f">= {lo}" if hi == math.inf else f"within {lo}..{hi}"
        raise DomainError(f"{name} must be {bound}, got {value}")


def merge_close(values):
    """Group sorted values within MERGE_TOL of their group's first value.

    Returns (firsts, counts): the first value of each group and its size.
    """
    firsts, counts = [], []
    for v in values:
        if firsts and abs(v - firsts[-1]) <= MERGE_TOL:
            counts[-1] += 1
        else:
            firsts.append(v)
            counts.append(1)
    return firsts, counts


class KnotVector:
    """Clamped, non-decreasing knot sequence normalized to [0, 1]."""

    def __init__(self, knots, degree):
        if not isinstance(degree, (int, np.integer)) or degree < 0:
            raise InvalidGeometryError(f"degree must be a non-negative integer, got {degree!r}")
        knots = np.asarray(knots, dtype=float).copy()
        if knots.ndim != 1 or knots.size < 2 * (degree + 1):
            raise InvalidGeometryError(
                f"need at least {2 * (degree + 1)} knots for degree {degree}, "
                f"got {knots.size}"
            )
        _require_finite(knots, "knots")
        if np.any(np.diff(knots) < 0):
            raise InvalidGeometryError("knots must be non-decreasing")
        span = knots[-1] - knots[0]
        if span <= 0:
            raise InvalidGeometryError("knot range is empty")
        knots = (knots - knots[0]) / span
        p = degree
        if np.any(np.abs(knots[: p + 1]) > MERGE_TOL) or np.any(
            np.abs(knots[-(p + 1):] - 1.0) > MERGE_TOL
        ):
            raise InvalidGeometryError(
                "knot vector must be clamped: first and last knot need "
                f"multiplicity {p + 1}"
            )
        knots[: p + 1] = 0.0
        knots[-(p + 1):] = 1.0
        inner = knots[p + 1 : -(p + 1)]
        if np.any(inner <= MERGE_TOL) or np.any(inner >= 1.0 - MERGE_TOL):
            raise InvalidGeometryError(
                "interior knots must lie inside (0, 1): an end knot needs "
                f"multiplicity exactly {p + 1}"
            )
        for value, mult in zip(*merge_close(inner)):
            if mult > p:
                raise InvalidGeometryError(
                    f"interior knot {value} has multiplicity {mult} > degree {p}"
                )
        self.degree = p
        self.knots = knots
        self.knots.flags.writeable = False
        self._knot_list = knots.tolist()

    @property
    def num_basis(self):
        return self.knots.size - self.degree - 1

    def interior(self):
        """Distinct interior knots with multiplicities, as two lists."""
        p = self.degree
        return merge_close(self.knots[p + 1 : -(p + 1)])

    def find_span(self, u):
        """Index k with knots[k] <= u < knots[k+1]; u = 1 maps to the last span.

        Elementwise for an array of parameters: the span that basis locates.
        """
        return self.basis(u, 0)[0]

    def basis(self, u, order=0):
        """Nonzero basis functions and derivatives at u (Cox-de Boor).

        Returns (span, ders) where ders[k, j] is the k-th derivative of
        basis function span-degree+j, k = 0..order. Order-0 values are
        non-negative and sum to one. For an array u, span has u's shape and
        ders has shape u.shape + (order + 1, degree + 1); the arithmetic is
        the scalar one, applied elementwise.

        The values come from the triangle of NURBS Book A2.2, one list per
        degree level. Derivative row k comes in closed form from level
        degree - k and the knot sums of the k levels above it, by A2.3's
        operations in A2.3's order: 1.0 / D, -a / D and (a1 - a0) / D, a sum
        started from 0.0 where A2.3 starts it (which fixes the sign of a
        zero), times degree (degree - 1) ... (degree - k + 1) formed as
        A2.3 forms it. The bits are A2.3's.

        u further than MERGE_TOL outside [0, 1], or NaN, is a DomainError;
        otherwise it is clamped into [0, 1] and its span found by a binary
        search of the knots, bisect for a scalar and searchsorted for an
        array. A scalar's rows are packed by one np.array; an array is
        filled row by row.
        """
        _check_int(order, "derivative order", 0, 2)
        p = self.degree
        rank = _rank(u)
        if rank:
            u = np.asarray(u, dtype=float)
            inside = (u >= -MERGE_TOL) & (u <= 1.0 + MERGE_TOL)
            if not inside.all():
                raise DomainError(f"parameter {_first_where(~inside, u)[0]} outside [0, 1]")
            u = np.minimum(np.maximum(u, 0.0), 1.0)
            U = self.knots
            span = np.minimum(np.searchsorted(U, u, side="right") - 1, U.size - p - 2)
        else:
            if not -MERGE_TOL <= u <= 1.0 + MERGE_TOL:
                raise DomainError(f"parameter {u} outside [0, 1]")
            u = min(max(float(u), 0.0), 1.0)
            U = self._knot_list
            span = min(bisect_right(U, u) - 1, len(U) - p - 2)
        # A2.2's triangle: N[j] holds the degree-j values, D[j][r] that
        # level's knot sums right[r + 1] + left[j - r] (A2.3's indices)
        left, right = [], []
        N, D = [[1.0]], [None]
        for j in range(p):
            left.append(u - U[span - j])
            right.append(U[span + j + 1] - u)
            sums, row, saved = [], [], 0.0
            for r, lower in enumerate(N[j]):
                sum_ = right[r] + left[j - r]
                sums.append(sum_)
                temp = lower / sum_
                row.append(saved + right[r] * temp)
                saved = left[j - r] * temp
            row.append(saved)
            N.append(row)
            D.append(sums)
        rows = [N[p]]
        if order:
            # lo and hi are A2.3's a_1 entries, d its running sum
            fac = float(p)
            fac2 = fac * (p - 1)
            d1, d2 = [], []
            for r in range(p + 1):
                d = 0.0
                if r:
                    lo = 1.0 / D[p][r - 1]
                    d = lo * N[p - 1][r - 1]
                if r < p:
                    hi = -1.0 / D[p][r]
                    d += hi * N[p - 1][r]
                d1.append(d * fac)
                if order == 2:
                    d = 0.0
                    if r >= 2:
                        d = lo / D[p - 1][r - 2] * N[p - 2][r - 2]
                    if 1 <= r < p:
                        d += (hi - lo) / D[p - 1][r - 1] * N[p - 2][r - 1]
                    if r < p - 1:
                        d += -hi / D[p - 1][r] * N[p - 2][r]
                    d2.append(d * fac2)
            rows += [d1, d2][:order]
        if not rank:
            return span, np.array(rows)
        ders = np.empty(u.shape + (order + 1, p + 1))
        for k, row in enumerate(rows):
            for r, x in enumerate(row):
                ders[..., k, r] = x
        return span, ders

    def greville(self):
        """Greville abscissae, one per basis function."""
        p = self.degree
        if p == 0:
            return 0.5 * (self.knots[:-1] + self.knots[1:])
        return np.array(
            [self.knots[i + 1 : i + p + 1].mean() for i in range(self.num_basis)]
        )

    def multiplicity(self, value):
        return int(np.sum(np.abs(self.knots - value) <= MERGE_TOL))

    def inserted(self, value, multiplicity=1):
        """Knot vector with `value` inserted `multiplicity` more times."""
        if not isinstance(value, numbers.Real):
            raise InvalidRefinementError(f"new knot must be a real number, got {value!r}")
        if not 0.0 < value < 1.0:
            raise InvalidRefinementError(f"new knot {value} must lie strictly in (0, 1)")
        if not isinstance(multiplicity, (int, np.integer)):
            raise InvalidRefinementError(f"multiplicity must be an integer, got {multiplicity!r}")
        if multiplicity < 1:
            raise InvalidRefinementError("multiplicity must be at least 1")
        have = self.multiplicity(value)
        if have + multiplicity > self.degree:
            raise InvalidRefinementError(
                f"knot {value}: multiplicity {have}+{multiplicity} would exceed "
                f"degree {self.degree}"
            )
        knots = np.sort(np.concatenate([self.knots, [value] * multiplicity]))
        return KnotVector(knots, self.degree)

    def elevated(self):
        """Knot vector for the degree+1 space with identical continuity."""
        uniques, mults = merge_close(self.knots)
        knots = np.repeat(uniques, [m + 1 for m in mults])
        return KnotVector(knots, self.degree + 1)

    def __repr__(self):
        return f"KnotVector(degree={self.degree}, knots={self.knots.tolist()})"


def collocation_matrix(kv, params):
    """Dense matrix of all basis functions evaluated at the given parameters."""
    span, ders = kv.basis(np.asarray(params, dtype=float), 0)
    M = np.zeros((span.size, kv.num_basis))
    rows = np.arange(span.size)[:, None]
    M[rows, span[:, None] + np.arange(-kv.degree, 1)] = ders[:, 0]
    return M


class _Field:
    """An array field of a derivative bundle, kept in the slot of its name
    with a leading underscore.

    The evaluators leave each field as the list of its components: Python
    floats for a scalar query, arrays for a batch. The first read turns the
    list into the array whose last axis holds them and keeps that instead:
    np.array for floats, and for a batch one empty array filled component
    by component, the values of np.stack(components, axis=-1) without its
    per-call overhead. An array set on the bundle is returned as it is. So
    each bundle builds its own arrays, and a field never read is never
    built. Code that reads a bundle's components, as trimming does, reads
    the slot: _unpack takes both forms.
    """

    def __set_name__(self, owner, name):
        self.slot = owner.__dict__["_" + name]

    def __get__(self, bundle, owner=None):
        if bundle is None:
            return self
        a = self.slot.__get__(bundle)
        if type(a) is list:
            if type(a[0]) is float:
                a = np.array(a)
            else:
                out = np.empty(np.shape(a[0]) + (len(a),))
                for k, c in enumerate(a):
                    out[..., k] = c
                a = out
            self.slot.__set__(bundle, a)
        return a

    def __set__(self, bundle, value):
        self.slot.__set__(bundle, value)


# The derivative bundles are slotted, not frozen: every scalar evaluation
# builds several, and a frozen dataclass takes about 2 microseconds more.
# Their fields are _Field descriptors over private slots, so each bundle
# writes its own __init__ (init=False); fields, replace and repr still work.
@dataclass(init=False)
class CurveDerivatives:
    """Point on a curve with derivatives w.r.t. its single parameter."""

    __slots__ = ("_value", "_d1", "_d2")
    value: np.ndarray = _Field()
    d1: np.ndarray | None = _Field()
    d2: np.ndarray | None = _Field()

    def __init__(self, value, d1=None, d2=None):
        self._value, self._d1, self._d2 = value, d1, d2


@dataclass(init=False)
class SurfaceDerivatives:
    """Point on a surface with partials w.r.t. its two parameters."""

    __slots__ = ("_value", "_du", "_dv", "_duu", "_duv", "_dvv")
    value: np.ndarray = _Field()
    du: np.ndarray | None = _Field()
    dv: np.ndarray | None = _Field()
    duu: np.ndarray | None = _Field()
    duv: np.ndarray | None = _Field()
    dvv: np.ndarray | None = _Field()

    def __init__(self, value, du=None, dv=None, duu=None, duv=None, dvv=None):
        self._value, self._du, self._dv = value, du, dv
        self._duu, self._duv, self._dvv = duu, duv, dvv


def _require_finite(values, what):
    """values, or InvalidGeometryError if any is NaN or infinite."""
    if not np.all(np.isfinite(values)):
        raise InvalidGeometryError(f"{what} must be finite")
    return values


def _control_net(points, weights):
    """The weights and the homogeneous net (w * P, w) of finite control points.

    One weight per point, in the shape of the points' leading axes, ones by
    default, each positive and finite. A finite point times a finite weight
    can still overflow, which is rejected without numpy's warning. All three
    arrays come back read-only.
    """
    lead = points.shape[:-1]
    weights = np.ones(lead) if weights is None else np.array(weights, dtype=float)
    if weights.shape != lead:
        raise InvalidGeometryError(f"weights must have shape {lead}, got {weights.shape}")
    if np.any(_require_finite(weights, "weights") <= 0):
        raise InvalidGeometryError("all weights must be positive")
    with np.errstate(over="ignore"):
        hnet = np.concatenate([points * weights[..., None], weights[..., None]], axis=-1)
    _require_finite(hnet, "weighted control points")
    for a in (points, weights, hnet):
        a.flags.writeable = False
    return weights, hnet


class NurbsCurve:
    """Rational B-spline curve in 2D (parameter space) or 3D (model space)."""

    def __init__(self, knot_vector, control_points, weights=None):
        if not isinstance(knot_vector, KnotVector):
            raise InvalidGeometryError("knot_vector must be a KnotVector")
        pts = _require_finite(np.asarray(control_points, dtype=float), "control points")
        if pts.ndim != 2 or pts.shape[1] not in (2, 3):
            raise InvalidGeometryError(
                "control points must be an (n, 2) or (n, 3) array"
            )
        n = knot_vector.num_basis
        if pts.shape[0] != n:
            raise InvalidGeometryError(
                f"knot vector implies {n} control points, got {pts.shape[0]}"
            )
        self.knot_vector = knot_vector
        self.control_points = pts
        self.weights, self._homogeneous = _control_net(pts, weights)
        #: (s, order, value, d1, d2) of the last Python-float query, as lists
        self._last = (None,) * 5

    @property
    def degree(self):
        return self.knot_vector.degree

    @property
    def dim(self):
        return self.control_points.shape[1]

    @classmethod
    def from_homogeneous(cls, knot_vector, hpoints):
        w = hpoints[:, -1]
        return cls(knot_vector, hpoints[:, :-1] / w[:, None], w)

    def evaluate(self, s, order=2):
        """Rational point and derivatives at s via the quotient rule.

        For an array s every field gains s's shape in front of its last axis.
        A repeat of the last Python-float query other than ±0.0 returns its
        components in a fresh bundle, which builds its own arrays: the
        per-point quadrature.integrate asks for each s-node once per t-node.
        This memo is a stopgap, deleted with that loop (see ROADMAP.md).
        """
        memo = type(s) is float and s != 0.0
        # `is`, not ==: a float order equal to the last int one must reach basis
        # and fail there, while an int order, a shared small int, still hits
        if memo and (last := self._last)[0] == s and last[1] is order:
            return CurveDerivatives(last[2], last[3], last[4])
        kv = self.knot_vector
        p = kv.degree
        span, ders = kv.basis(s, order)
        rank = ders.ndim - 2
        H = self._homogeneous
        # A[k][c]: k-th derivative of homogeneous coordinate c, the weight last
        A = ders @ (H[span[..., None] + np.arange(-p, 1)] if rank else H[span - p:span + 1])
        A = _unpack(A, rank, 2)
        w = A[0][-1]
        value = _quotient(A[0], w)
        d1 = d2 = None
        if order:
            w1 = A[1][-1]
            d1 = _quotient(A[1], w, [(w1, value)])
            if order == 2:
                d2 = _quotient(A[2], w, [(2.0 * w1, d1), (A[2][-1], value)])
        if memo:
            self._last = (s, order, value, d1, d2)
        return CurveDerivatives(value, d1, d2)

    def insert_knot(self, value, multiplicity=1):
        """Exact knot insertion, `multiplicity` copies of `value` at once."""
        kv = self.knot_vector.inserted(value, multiplicity)
        return NurbsCurve.from_homogeneous(kv, _refit(self.knot_vector, kv, self._homogeneous))

    def elevate_degree(self):
        """Degree-raised curve evaluating to the same points."""
        kv = self.knot_vector.elevated()
        return NurbsCurve.from_homogeneous(kv, _refit(self.knot_vector, kv, self._homogeneous))

    def reversed(self):
        """Same trace traversed in the opposite parameter direction."""
        kv = KnotVector(1.0 - self.knot_vector.knots[::-1], self.degree)
        return NurbsCurve(kv, self.control_points[::-1], self.weights[::-1])


class NurbsSurface:
    """Tensor-product rational B-spline surface with a 3D control net."""

    def __init__(self, knot_vector_u, knot_vector_v, control_net, weights=None):
        if not isinstance(knot_vector_u, KnotVector) or not isinstance(
            knot_vector_v, KnotVector
        ):
            raise InvalidGeometryError("knot vectors must be KnotVector instances")
        net = _require_finite(np.asarray(control_net, dtype=float), "control points")
        A = knot_vector_u.num_basis
        B = knot_vector_v.num_basis
        if net.shape != (A, B, 3):
            raise InvalidGeometryError(
                f"control net must have shape ({A}, {B}, 3), got {net.shape}"
            )
        self.weights, self._homogeneous = _control_net(net, weights)
        # a finite net can still overflow in the square of its size
        with np.errstate(over="ignore"):
            points = net.reshape(-1, 3)
            size = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
        _require_finite(size * size, "the squared control net size")
        self.knot_vector_u = knot_vector_u
        self.knot_vector_v = knot_vector_v
        self.control_net = net
        # the net with v outermost, flattened, and the offsets of a point's
        # (q+1, p+1) block in it: the array path gathers with one np.take
        self._net_vu = self._homogeneous.transpose(1, 0, 2).reshape(B * A, 4)
        self._net_vu.flags.writeable = False
        p, q = knot_vector_u.degree, knot_vector_v.degree
        self._block = np.arange(q + 1)[:, None] * A + np.arange(p + 1)
        #: singular-map thresholds for edge tangents and area measures
        self.singular_length = SINGULAR_TOL * size
        self.singular_area = SINGULAR_TOL * size * size

    @property
    def degrees(self):
        return self.knot_vector_u.degree, self.knot_vector_v.degree

    @classmethod
    def from_homogeneous(cls, kv_u, kv_v, hnet):
        w = hnet[..., -1]
        return cls(kv_u, kv_v, hnet[..., :-1] / w[..., None], w)

    def evaluate(self, u, v, order=2):
        """Rational point and partials at (u, v) via the quotient rule.

        u and v may be arrays that broadcast together; every field then
        gains their broadcast shape in front of its last axis.
        """
        kv_u, kv_v = self.knot_vector_u, self.knot_vector_v
        p, q = kv_u.degree, kv_v.degree
        span_u, du = kv_u.basis(u, order)
        span_v, dv = kv_v.basis(v, order)
        rank = du.ndim + dv.ndim - 4
        # A[k, l] = sum_i du[k, i] G[i, l], G[i, l] = sum_j dv[l, j] H[i, j];
        # explicit sizes, so that an empty batch reshapes too
        if rank:
            # H[j, i] per point by one take on the v-major net, then one
            # product per point per direction; G comes out as G[i, c, l],
            # ready for the u product without a copy
            first = (span_v - q) * kv_u.num_basis + (span_u - p)
            H = np.take(self._net_vu, first[..., None, None] + self._block, axis=0)
            H = H.reshape(H.shape[:-3] + (q + 1, (p + 1) * 4))
            G = H.swapaxes(-1, -2) @ dv.swapaxes(-1, -2)
            A = du @ G.reshape(G.shape[:-2] + (p + 1, 4 * (order + 1)))
            A = A.reshape(A.shape[:-1] + (4, order + 1)).swapaxes(-1, -2)
        else:
            H = self._homogeneous[span_u - p:span_u + 1, span_v - q:span_v + 1]
            A = du @ (dv[None] @ H).reshape(p + 1, (order + 1) * 4)
            A = A.reshape(order + 1, order + 1, 4)
        # A[k][l][c]: the (k, l)-th partial of homogeneous coordinate c
        A = _unpack(A, rank, 3)
        w = A[0][0][3]
        value = _quotient(A[0][0], w)
        if not order:
            return SurfaceDerivatives(value)
        wu, wv = A[1][0][3], A[0][1][3]
        su = _quotient(A[1][0], w, [(wu, value)])
        sv = _quotient(A[0][1], w, [(wv, value)])
        if order == 1:
            return SurfaceDerivatives(value, su, sv)
        return SurfaceDerivatives(
            value, su, sv,
            _quotient(A[2][0], w, [(2 * wu, su), (A[2][0][3], value)]),
            _quotient(A[1][1], w, [(wu, sv), (wv, su), (A[1][1][3], value)]),
            _quotient(A[0][2], w, [(2 * wv, sv), (A[0][2][3], value)]),
        )

    def insert_knot(self, value, direction, multiplicity=1):
        """Exact knot insertion along 'u' or 'v'."""
        return self._refined(direction, lambda kv: kv.inserted(value, multiplicity))

    def elevate_degree(self, direction):
        """Degree-raised surface along 'u' or 'v', pointwise identical."""
        return self._refined(direction, KnotVector.elevated)

    def _refined(self, direction, refine):
        """Surface refit onto refine(kv), kv the knot vector along `direction`."""
        if direction not in ("u", "v"):
            raise InvalidRefinementError(f"direction must be 'u' or 'v', got {direction!r}")
        axis = "uv".index(direction)
        kvs = [self.knot_vector_u, self.knot_vector_v]
        old = kvs[axis]
        kvs[axis] = refine(old)
        hnet = _refit(old, kvs[axis], np.moveaxis(self._homogeneous, axis, 0))
        return NurbsSurface.from_homogeneous(*kvs, np.moveaxis(hnet, 0, axis))


def _refit(kv, new_kv, coeffs):
    """Coefficients along axis 0 of `coeffs` re-expressed over new_kv.

    new_kv's space contains kv's (a knot inserted, or the degree raised at
    the same continuity), so collocating the new basis at its Greville
    abscissae and matching the old values there reproduces the function
    exactly. The other axes of `coeffs` are carried along.
    """
    params = new_kv.greville()
    M = collocation_matrix(new_kv, params)
    rhs = collocation_matrix(kv, params) @ coeffs.reshape(kv.num_basis, -1)
    return np.linalg.solve(M, rhs).reshape((new_kv.num_basis,) + coeffs.shape[1:])
