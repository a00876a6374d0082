"""B-spline and NURBS evaluation.

Knot vectors, rational curves and surfaces with derivatives up to second
order, plus the two exact refinement operations (knot insertion and degree
elevation). All evaluation is rational through homogeneous coordinates, so
polynomial B-splines are just the all-weights-equal special case.

Conventions:
  * knot vectors are clamped and normalized to [0, 1] on construction;
  * a parameter sitting exactly on an interior knot belongs to the
    right-adjacent span (u = 1 belongs to the last span), which makes
    one-sided derivative values at breakpoints deterministic;
  * all objects are immutable; refinement returns new objects.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidGeometryError, InvalidRefinementError

#: values closer than this are one value: knots, break lines, breakpoints
MERGE_TOL = 1e-12


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

    def find_span(self, u):
        """Index k with knots[k] <= u < knots[k+1]; u = 1 maps to the last span."""
        if u < -MERGE_TOL or u > 1.0 + MERGE_TOL:
            raise DomainError(f"parameter {u} outside [0, 1]")
        u = min(max(u, 0.0), 1.0)
        n = self.num_basis
        if u >= 1.0:
            return n - 1
        lo, hi = self.degree, n
        mid = (lo + hi) // 2
        while u < self.knots[mid] or u >= self.knots[mid + 1]:
            if u < self.knots[mid]:
                hi = mid
            else:
                lo = mid
            mid = (lo + hi) // 2
        return mid

    def basis(self, u, order=0):
        """Nonzero basis functions and derivatives at u.

        Returns (span, ders) where ders[k, j] is the k-th derivative of
        basis function span-degree+j, k = 0..order. Order-0 values are
        non-negative and sum to one.
        """
        if order < 0 or order > 2:
            raise DomainError(f"derivative order must be 0, 1 or 2, got {order}")
        span = self.find_span(u)
        u = min(max(u, 0.0), 1.0)
        p = self.degree
        U = self.knots
        # Triangular table of basis values and knot differences (Cox-de Boor).
        ndu = np.empty((p + 1, p + 1))
        left = np.empty(p + 1)
        right = np.empty(p + 1)
        ndu[0, 0] = 1.0
        for j in range(1, p + 1):
            left[j] = u - U[span + 1 - j]
            right[j] = U[span + j] - u
            saved = 0.0
            for r in range(j):
                ndu[j, r] = right[r + 1] + left[j - r]
                temp = ndu[r, j - 1] / ndu[j, r]
                ndu[r, j] = saved + right[r + 1] * temp
                saved = left[j - r] * temp
            ndu[j, j] = saved
        ders = np.zeros((order + 1, p + 1))
        ders[0, :] = ndu[:, p]
        if order == 0:
            return span, ders
        # Derivatives from the stored knot differences.
        a = np.zeros((2, p + 1))
        for r in range(p + 1):
            s1, s2 = 0, 1
            a[0, 0] = 1.0
            for k in range(1, order + 1):
                d = 0.0
                rk = r - k
                pk = p - k
                if r >= k:
                    a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                    d = a[s2, 0] * ndu[rk, pk]
                j1 = 1 if rk >= -1 else -rk
                j2 = k - 1 if r - 1 <= pk else p - r
                for j in range(j1, j2 + 1):
                    a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                    d += a[s2, j] * ndu[rk + j, pk]
                if r <= pk:
                    a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                    d += a[s2, k] * ndu[r, pk]
                ders[k, r] = d
                s1, s2 = s2, s1
        fac = float(p)
        for k in range(1, order + 1):
            ders[k, :] *= fac
            fac *= p - k
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

    def __eq__(self, other):
        return (
            isinstance(other, KnotVector)
            and self.degree == other.degree
            and self.knots.size == other.knots.size
            and bool(np.all(np.abs(self.knots - other.knots) <= MERGE_TOL))
        )

    def __repr__(self):
        return f"KnotVector(degree={self.degree}, knots={self.knots.tolist()})"


def collocation_matrix(kv, params):
    """Dense matrix of all basis functions evaluated at the given parameters."""
    n = kv.num_basis
    M = np.zeros((len(params), n))
    for row, u in enumerate(params):
        span, ders = kv.basis(u, 0)
        M[row, span - kv.degree : span + 1] = ders[0]
    return M


@dataclass(frozen=True)
class CurveDerivatives:
    """Point on a curve with derivatives w.r.t. its single parameter."""

    value: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None


@dataclass(frozen=True)
class SurfaceDerivatives:
    """Point on a surface with partials w.r.t. its two parameters."""

    value: np.ndarray
    du: np.ndarray | None = None
    dv: np.ndarray | None = None
    duu: np.ndarray | None = None
    duv: np.ndarray | None = None
    dvv: np.ndarray | None = None


def _check_weights(weights, count):
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != count:
        raise InvalidGeometryError(
            f"expected {count} weights, got {weights.size}"
        )
    if np.any(weights <= 0):
        raise InvalidGeometryError("all weights must be positive")
    return weights


class NurbsCurve:
    """Rational B-spline curve in 2D (parameter space) or 3D (model space)."""

    def __init__(self, knot_vector, control_points, weights=None):
        if not isinstance(knot_vector, KnotVector):
            raise InvalidGeometryError("knot_vector must be a KnotVector")
        pts = np.asarray(control_points, dtype=float)
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

    @property
    def degree(self):
        return self.knot_vector.degree

    @property
    def dim(self):
        return self.control_points.shape[1]

    def homogeneous(self):
        """(n, dim+1) array of weighted points with the weight appended."""
        return np.hstack(
            [self.control_points * self.weights[:, None], self.weights[:, None]]
        )

    @classmethod
    def from_homogeneous(cls, knot_vector, hpoints):
        w = hpoints[:, -1]
        return cls(knot_vector, hpoints[:, :-1] / w[:, None], w)

    def evaluate(self, s, order=2):
        """Rational point and derivatives at s via the quotient rule."""
        kv = self.knot_vector
        span, ders = kv.basis(s, order)
        p = kv.degree
        H = self.homogeneous()[span - p : span + 1]
        A = ders @ H  # rows: (order+1) homogeneous derivatives
        w = A[:, -1]
        Ad = A[:, :-1]
        value = Ad[0] / w[0]
        d1 = d2 = None
        if order >= 1:
            d1 = (Ad[1] - w[1] * value) / w[0]
        if order >= 2:
            d2 = (Ad[2] - 2.0 * w[1] * d1 - w[2] * value) / w[0]
        return CurveDerivatives(value, d1, d2)

    def insert_knot(self, value, multiplicity=1):
        """Exact knot insertion (Boehm), repeated `multiplicity` times."""
        kv, hpts = _inserted(self.knot_vector, self.homogeneous(), value, multiplicity)
        return NurbsCurve.from_homogeneous(kv, hpts)

    def elevate_degree(self):
        """Degree-raised curve evaluating to the same points."""
        return NurbsCurve.from_homogeneous(
            *_elevated(self.knot_vector, self.homogeneous())
        )

    def reversed(self):
        """Same trace traversed in the opposite parameter direction."""
        kv = KnotVector(1.0 - self.knot_vector.knots[::-1], self.degree)
        return NurbsCurve(kv, self.control_points[::-1], self.weights[::-1])

    def transformed(self, scale, offset):
        """Control points mapped through x -> scale * x + offset (per axis)."""
        scale = np.broadcast_to(np.asarray(scale, dtype=float), (self.dim,))
        offset = np.broadcast_to(np.asarray(offset, dtype=float), (self.dim,))
        return NurbsCurve(
            self.knot_vector, self.control_points * scale + offset, self.weights
        )


class NurbsSurface:
    """Tensor-product rational B-spline surface with a 3D control net."""

    def __init__(self, knot_vector_u, knot_vector_v, control_net, weights=None):
        if not isinstance(knot_vector_u, KnotVector) or not isinstance(
            knot_vector_v, KnotVector
        ):
            raise InvalidGeometryError("knot vectors must be KnotVector instances")
        net = np.asarray(control_net, dtype=float)
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
        if np.any(weights <= 0):
            raise InvalidGeometryError("all weights must be positive")
        self.knot_vector_u = knot_vector_u
        self.knot_vector_v = knot_vector_v
        self.control_net = net
        self.weights = weights
        self.control_net.flags.writeable = False
        self.weights.flags.writeable = False

    @property
    def degrees(self):
        return self.knot_vector_u.degree, self.knot_vector_v.degree

    def homogeneous(self):
        """(A, B, 4) array of weighted points with the weight appended."""
        return np.concatenate(
            [self.control_net * self.weights[..., None], self.weights[..., None]],
            axis=2,
        )

    @classmethod
    def from_homogeneous(cls, kv_u, kv_v, hnet):
        w = hnet[..., -1]
        return cls(kv_u, kv_v, hnet[..., :-1] / w[..., None], w)

    def evaluate(self, u, v, order=2):
        """Rational point and partials at (u, v) via the quotient rule."""
        p, q = self.degrees
        span_u, du = self.knot_vector_u.basis(u, order)
        span_v, dv = self.knot_vector_v.basis(v, order)
        H = self.homogeneous()[span_u - p : span_u + 1, span_v - q : span_v + 1]
        # A[k, l] = sum_ij du[k, i] dv[l, j] H[i, j] for needed (k, l).
        A = np.einsum("ki,lj,ijc->klc", du, dv, H)
        w = A[..., -1]
        Ad = A[..., :-1]
        value = Ad[0, 0] / w[0, 0]
        out = {"value": value}
        if order >= 1:
            su = (Ad[1, 0] - w[1, 0] * value) / w[0, 0]
            sv = (Ad[0, 1] - w[0, 1] * value) / w[0, 0]
            out["du"], out["dv"] = su, sv
        if order >= 2:
            out["duu"] = (Ad[2, 0] - 2 * w[1, 0] * su - w[2, 0] * value) / w[0, 0]
            out["dvv"] = (Ad[0, 2] - 2 * w[0, 1] * sv - w[0, 2] * value) / w[0, 0]
            out["duv"] = (
                Ad[1, 1] - w[1, 0] * sv - w[0, 1] * su - w[1, 1] * value
            ) / w[0, 0]
        return SurfaceDerivatives(**out)

    def insert_knot(self, value, direction, multiplicity=1):
        """Exact knot insertion along 'u' or 'v'."""
        return self._refined(
            direction, lambda kv, coeffs: _inserted(kv, coeffs, value, multiplicity)
        )

    def elevate_degree(self, direction):
        """Degree-raised surface along 'u' or 'v', pointwise identical."""
        return self._refined(direction, _elevated)

    def _refined(self, direction, refine):
        """Surface from refine(kv, coeffs) -> (kv, coeffs) along one direction."""
        if direction not in ("u", "v"):
            raise InvalidRefinementError(f"direction must be 'u' or 'v', got {direction!r}")
        hnet = self.homogeneous()
        if direction == "u":
            kv, other = self.knot_vector_u, self.knot_vector_v
        else:
            kv, other = self.knot_vector_v, self.knot_vector_u
            hnet = hnet.transpose(1, 0, 2)
        new_kv, coeffs = refine(kv, hnet.reshape(hnet.shape[0], -1))
        hnet = coeffs.reshape(new_kv.num_basis, other.num_basis, 4)
        if direction == "u":
            return NurbsSurface.from_homogeneous(new_kv, other, hnet)
        return NurbsSurface.from_homogeneous(other, new_kv, hnet.transpose(1, 0, 2))

    def transformed(self, scale, offset):
        """Control net mapped through x -> scale * x + offset (per axis)."""
        scale = np.broadcast_to(np.asarray(scale, dtype=float), (3,))
        offset = np.broadcast_to(np.asarray(offset, dtype=float), (3,))
        return NurbsSurface(
            self.knot_vector_u,
            self.knot_vector_v,
            self.control_net * scale + offset,
            self.weights,
        )


def _insert_once(knots, degree, coeffs, value):
    """Boehm single knot insertion on a stack of coefficient rows."""
    # span under the right-adjacent rule; knots here are already in [0, 1]
    n = knots.size - degree - 1
    k = degree
    while k < n - 1 and value >= knots[k + 1]:
        k += 1
    new = np.empty((coeffs.shape[0] + 1, coeffs.shape[1]))
    new[: k - degree + 1] = coeffs[: k - degree + 1]
    for i in range(k - degree + 1, k + 1):
        den = knots[i + degree] - knots[i]
        alpha = (value - knots[i]) / den if den > 0 else 0.0
        new[i] = alpha * coeffs[i] + (1.0 - alpha) * coeffs[i - 1]
    new[k + 1 :] = coeffs[k:]
    return np.insert(knots, k + 1, value), new


def _inserted(kv, coeffs, value, multiplicity):
    """Knot vector and coefficient rows with `value` inserted; kv.inserted checks it."""
    new_kv = kv.inserted(value, multiplicity)
    knots = kv.knots
    for _ in range(multiplicity):
        knots, coeffs = _insert_once(knots, kv.degree, coeffs, value)
    return new_kv, coeffs


def _elevated(kv, coeffs):
    """Elevated knot vector and the same piecewise polynomial's coefficients.

    The elevated space contains the original one, so collocating the new
    basis at its Greville abscissae and matching the old values there
    reproduces the function exactly.
    """
    elevated_kv = kv.elevated()
    params = elevated_kv.greville()
    M = collocation_matrix(elevated_kv, params)
    rhs = collocation_matrix(kv, params) @ coeffs
    return elevated_kv, np.linalg.solve(M, rhs)
