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
"""

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
        if degree < 0:
            raise InvalidGeometryError(f"degree must be non-negative, got {degree}")
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
        knots[0] = 0.0
        knots[-1] = 1.0
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

    def spans(self):
        """Distinct breakpoints [0, ..., 1] delimiting the non-empty spans."""
        return merge_close(self.knots)[0]

    def _clamped(self, u):
        """u moved into [0, 1]; DomainError further than MERGE_TOL outside.

        A scalar comes back as a Python float, an array as a float array.
        NaN counts as outside.
        """
        if _rank(u):
            u = np.asarray(u, dtype=float)
            inside = (u >= -MERGE_TOL) & (u <= 1.0 + MERGE_TOL)
            if not inside.all():
                raise DomainError(f"parameter {u[~inside][0]} outside [0, 1]")
            return np.minimum(np.maximum(u, 0.0), 1.0)
        if not -MERGE_TOL <= u <= 1.0 + MERGE_TOL:
            raise DomainError(f"parameter {u} outside [0, 1]")
        return min(max(float(u), 0.0), 1.0)

    def find_span(self, u):
        """Index k with knots[k] <= u < knots[k+1]; u = 1 maps to the last span.

        Elementwise for an array of parameters.
        """
        return self._span(self._clamped(u))

    def _span(self, u):
        """find_span for a u already clamped into [0, 1]."""
        last = self.num_basis - 1
        if _rank(u):
            return np.minimum(np.searchsorted(self.knots, u, side="right") - 1, last)
        return min(bisect_right(self._knot_list, u) - 1, last)

    def basis(self, u, order=0):
        """Nonzero basis functions and derivatives at u (NURBS Book A2.3).

        Returns (span, ders) where ders[k, j] is the k-th derivative of
        basis function span-degree+j, k = 0..order. Order-0 values are
        non-negative and sum to one. For an array u, span has u's shape and
        ders has shape u.shape + (order + 1, degree + 1); the arithmetic is
        the scalar one, applied elementwise.
        """
        if order < 0 or order > 2:
            raise DomainError(f"derivative order must be 0, 1 or 2, got {order}")
        u = self._clamped(u)
        span = self._span(u)
        p = self.degree
        shape = u.shape if _rank(u) else ()
        U = self.knots if shape else self._knot_list
        # Triangular table of basis values and knot differences (Cox-de Boor).
        ndu = [[0.0] * (p + 1) for _ in range(p + 1)]
        left = [0.0] * (p + 1)
        right = [0.0] * (p + 1)
        ndu[0][0] = 1.0
        for j in range(1, p + 1):
            left[j] = u - U[span + 1 - j]
            right[j] = U[span + j] - u
            saved = 0.0
            for r in range(j):
                ndu[j][r] = right[r + 1] + left[j - r]
                temp = ndu[r][j - 1] / ndu[j][r]
                ndu[r][j] = saved + right[r + 1] * temp
                saved = left[j - r] * temp
            ndu[j][j] = saved
        ders = np.empty(shape + (order + 1, p + 1))
        for r in range(p + 1):
            ders[..., 0, r] = ndu[r][p]
        if order == 0:
            return span, ders
        # Derivatives from the stored knot differences.
        a = [[0.0] * (p + 1), [0.0] * (p + 1)]
        for r in range(p + 1):
            s1, s2 = 0, 1
            a[0][0] = 1.0
            fac = float(p)
            for k in range(1, order + 1):
                d = 0.0
                rk = r - k
                pk = p - k
                if r >= k:
                    a[s2][0] = a[s1][0] / ndu[pk + 1][rk]
                    d = a[s2][0] * ndu[rk][pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if r - 1 <= pk else p - r
                for j in range(j1, j2 + 1):
                    a[s2][j] = (a[s1][j] - a[s1][j - 1]) / ndu[pk + 1][rk + j]
                    d += a[s2][j] * ndu[rk + j][pk]
                if r <= pk:
                    a[s2][k] = -a[s1][k - 1] / ndu[pk + 1][r]
                    d += a[s2][k] * ndu[r][pk]
                ders[..., k, r] = d * fac
                fac *= p - k
                s1, s2 = s2, s1
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
        if not 0.0 < value < 1.0:
            raise InvalidRefinementError(f"new knot {value} must lie strictly in (0, 1)")
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
    M[rows, _support(span, kv.degree)] = ders[:, 0]
    return M


def _support(span, degree):
    """Indices span-degree..span of the nonzero functions.

    A slice for one span; for an array of spans, indices in a new last axis.
    """
    if not _rank(span):
        return slice(span - degree, span + 1)
    return span[..., None] + np.arange(-degree, 1)


# The derivative bundles are slotted, not frozen: every scalar evaluation
# builds several, and a frozen dataclass takes about 2 microseconds more.
@dataclass(slots=True)
class CurveDerivatives:
    """Point on a curve with derivatives w.r.t. its single parameter."""

    value: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None


@dataclass(slots=True)
class SurfaceDerivatives:
    """Point on a surface with partials w.r.t. its two parameters."""

    value: np.ndarray
    du: np.ndarray | None = None
    dv: np.ndarray | None = None
    duu: np.ndarray | None = None
    duv: np.ndarray | None = None
    dvv: np.ndarray | None = None


def _require_finite(values, what):
    """values, or InvalidGeometryError if any is NaN or infinite."""
    if not np.all(np.isfinite(values)):
        raise InvalidGeometryError(f"{what} must be finite")
    return values


def _check_weights(weights, count):
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != count:
        raise InvalidGeometryError(
            f"expected {count} weights, got {weights.size}"
        )
    if np.any(_require_finite(weights, "weights") <= 0):
        raise InvalidGeometryError("all weights must be positive")
    return weights


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
        if weights is None:
            weights = np.ones(n)
        self.knot_vector = knot_vector
        self.control_points = pts
        self.weights = _check_weights(weights, n)
        self.control_points.flags.writeable = False
        self.weights.flags.writeable = False
        self._homogeneous = np.hstack(
            [self.control_points * self.weights[:, None], self.weights[:, None]]
        )
        self._homogeneous.flags.writeable = False

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
        """
        kv = self.knot_vector
        span, ders = kv.basis(s, order)
        H = self._homogeneous[_support(span, kv.degree)]
        A = ders @ H  # rows: (order+1) homogeneous derivatives
        w = A[..., -1:]
        Ad = A[..., :-1]
        w0 = w[..., 0, :]
        value = Ad[..., 0, :] / w0
        d1 = d2 = None
        if order >= 1:
            d1 = (Ad[..., 1, :] - w[..., 1, :] * value) / w0
        if order >= 2:
            d2 = (Ad[..., 2, :] - 2.0 * w[..., 1, :] * d1 - w[..., 2, :] * value) / w0
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
        if weights is None:
            weights = np.ones((A, B))
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (A, B):
            raise InvalidGeometryError(
                f"weights must have shape ({A}, {B}), got {weights.shape}"
            )
        weights = _check_weights(weights, A * B).reshape(A, B)
        self.knot_vector_u = knot_vector_u
        self.knot_vector_v = knot_vector_v
        self.control_net = net
        self.weights = weights
        self.control_net.flags.writeable = False
        self.weights.flags.writeable = False
        self._homogeneous = np.concatenate(
            [net * weights[..., None], weights[..., None]], axis=2
        )
        self._homogeneous.flags.writeable = False
        # the net with v outermost, flattened, and the offsets of a point's
        # (q+1, p+1) block in it: the array path gathers with one np.take
        self._net_vu = self._homogeneous.transpose(1, 0, 2).reshape(B * A, 4)
        self._net_vu.flags.writeable = False
        p, q = knot_vector_u.degree, knot_vector_v.degree
        self._block = np.arange(q + 1)[:, None] * A + np.arange(p + 1)
        points = net.reshape(-1, 3)
        size = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
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
        p, q = self.degrees
        span_u, du = self.knot_vector_u.basis(u, order)
        span_v, dv = self.knot_vector_v.basis(v, order)
        # A[k, l] = sum_i du[k, i] G[i, l], G[i, l] = sum_j dv[l, j] H[i, j];
        # explicit sizes, so that an empty batch reshapes too
        if _rank(span_u) or _rank(span_v):
            # H[j, i] per point by one take on the v-major net, then one
            # product per point per direction; G comes out as G[i, c, l],
            # ready for the u product without a copy
            first = (span_v - q) * self.knot_vector_u.num_basis + (span_u - p)
            H = np.take(self._net_vu, first[..., None, None] + self._block, axis=0)
            H = H.reshape(H.shape[:-3] + (q + 1, (p + 1) * 4))
            G = H.swapaxes(-1, -2) @ dv.swapaxes(-1, -2)
            A = du @ G.reshape(G.shape[:-2] + (p + 1, 4 * (order + 1)))
            A = A.reshape(A.shape[:-1] + (4, order + 1)).swapaxes(-1, -2)
        else:
            H = self._homogeneous[_support(span_u, p), _support(span_v, q)]
            A = du @ (dv[None] @ H).reshape(p + 1, (order + 1) * 4)
            A = A.reshape(order + 1, order + 1, 4)
        w = A[..., -1:]
        Ad = A[..., :-1]
        w0 = w[..., 0, 0, :]
        value = Ad[..., 0, 0, :] / w0
        out = {"value": value}
        if order >= 1:
            su = (Ad[..., 1, 0, :] - w[..., 1, 0, :] * value) / w0
            sv = (Ad[..., 0, 1, :] - w[..., 0, 1, :] * value) / w0
            out["du"], out["dv"] = su, sv
        if order >= 2:
            out["duu"] = (
                Ad[..., 2, 0, :] - 2 * w[..., 1, 0, :] * su - w[..., 2, 0, :] * value
            ) / w0
            out["dvv"] = (
                Ad[..., 0, 2, :] - 2 * w[..., 0, 1, :] * sv - w[..., 0, 2, :] * value
            ) / w0
            out["duv"] = (
                Ad[..., 1, 1, :] - w[..., 1, 0, :] * sv - w[..., 0, 1, :] * su
                - w[..., 1, 1, :] * value
            ) / w0
        return SurfaceDerivatives(**out)

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
