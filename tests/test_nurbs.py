import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimiga.errors import DomainError, InvalidGeometryError, InvalidRefinementError
from trimiga.nurbs import MERGE_TOL, KnotVector, NurbsCurve, NurbsSurface

from conftest import segment
from test_refinement_properties import curves


def de_casteljau_rational(points, weights, s):
    """Independent rational Bezier oracle: de Casteljau on homogeneous points."""
    pts = np.array([w * np.asarray(p, float) for p, w in zip(points, weights)])
    h = np.hstack([pts, np.asarray(weights, float)[:, None]])
    while h.shape[0] > 1:
        h = (1.0 - s) * h[:-1] + s * h[1:]
    return h[0, :-1] / h[0, -1]


class TestKnotVector:
    def test_normalizes_to_unit_interval(self):
        kv = KnotVector([2, 2, 2.5, 3, 3], 1)
        assert kv.knots[0] == 0.0 and kv.knots[-1] == 1.0
        assert np.allclose(kv.knots, [0, 0, 0.5, 1, 1])

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidGeometryError):
            KnotVector([0, 0, 0.6, 0.4, 1, 1], 1)

    def test_rejects_unclamped(self):
        with pytest.raises(InvalidGeometryError):
            KnotVector([0, 0.2, 0.5, 1], 1)
        # unclamped only at its start, so the check of the end cannot catch it
        with pytest.raises(InvalidGeometryError, match="must be clamped"):
            KnotVector([0, 0, 0.3, 0.6, 1, 1, 1], 2)

    def test_rejects_interior_multiplicity_above_degree(self):
        with pytest.raises(InvalidGeometryError):
            KnotVector([0, 0, 0.5, 0.5, 1, 1], 1)

    def test_rejects_interior_knot_at_an_end(self):
        # within tolerance of an end, an interior knot raises that end's
        # multiplicity above degree + 1
        for knots in ([0, 0, 1 - 5e-13, 1, 1], [0, 0, 5e-13, 1, 1], [0, 0, 1, 1, 1]):
            with pytest.raises(InvalidGeometryError):
                KnotVector(knots, 1)

    @pytest.mark.parametrize("degree", [2.0, np.float64(2.0), "2", None, -1])
    def test_rejects_a_degree_that_is_not_a_non_negative_integer(self, degree):
        with pytest.raises(InvalidGeometryError, match="non-negative integer"):
            KnotVector([0, 0, 0, 1, 1, 1], degree)

    def test_accepts_python_and_numpy_integer_degrees(self):
        for degree in (2, np.int32(2), np.int64(2)):
            assert KnotVector([0, 0, 0, 1, 1, 1], degree).degree == 2

    @pytest.mark.parametrize("knots", [[0, 0, math.nan, 1, 1], [0, 0, 0.5, math.nan, 1],
                                       [0, 0, 0.5, 1, math.inf], [-math.inf, 0, 0.5, 1, 1]])
    def test_rejects_non_finite_knots(self, knots):
        # checked before the normalization divides by the knot range
        with pytest.raises(InvalidGeometryError, match="knots must be finite"):
            KnotVector(knots, 1)

    def test_span_is_right_adjacent_at_interior_knot(self):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        span = kv.find_span(0.5)
        assert kv.knots[span] <= 0.5 < kv.knots[span + 1]
        assert span == 3
        assert kv.find_span(1.0) == kv.num_basis - 1

    def test_interior_returns_the_constructor_grouping_as_new_lists(self, monkeypatch):
        kv = KnotVector([0, 0, 0, 0.25, 0.5, 0.5, 1, 1, 1], 2)
        # grouped once, by the constructor's multiplicity check
        monkeypatch.setattr("trimiga.nurbs.merge_close", None)
        values, mults = kv.interior()
        assert (values, mults) == ([0.25, 0.5], [1, 2])
        values.append(0.75)
        mults[0] = 3
        assert kv.interior() == ([0.25, 0.5], [1, 2])

    def test_domain_error_outside_unit_interval(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(DomainError):
            kv.find_span(1.5)
        with pytest.raises(DomainError):
            kv.basis(-0.2)


class TestBasisFunctions:
    def test_linear_hats(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        _, ders = kv.basis(0.3)
        assert np.allclose(ders[0], [0.7, 0.3], atol=1e-15)

    def test_quadratic_bernstein_midpoint(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        _, ders = kv.basis(0.5)
        assert np.allclose(ders[0], [0.25, 0.5, 0.25], atol=1e-15)

    def test_quadratic_bernstein_first_derivatives(self):
        # d/du of the Bernstein triple (1-u)^2, 2u(1-u), u^2 at u = 0.5
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        _, ders = kv.basis(0.5, order=1)
        assert np.allclose(ders[1], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_returns_degree_plus_one_values(self):
        kv = KnotVector([0, 0, 0, 0, 0.3, 0.7, 1, 1, 1, 1], 3)
        _, ders = kv.basis(0.4, order=2)
        assert ders.shape == (3, 4)

    def test_partition_of_unity(self, rng):
        vectors = [
            KnotVector([0, 0, 1, 1], 1),
            KnotVector([0, 0, 0, 0.25, 0.5, 0.5, 1, 1, 1], 2),
            KnotVector([0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1], 3),
        ]
        for kv in vectors:
            for u in rng.random(40):
                _, ders = kv.basis(u)
                assert np.all(ders[0] >= -1e-15)
                assert abs(ders[0].sum() - 1.0) < 1e-13

    def test_rejects_order_three(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(DomainError):
            kv.basis(0.5, order=3)


def a21_span(kv, u):
    """NURBS Book A2.1's binary search for the span of a u in [0, 1]."""
    U, n = kv._knot_list, kv.num_basis - 1
    if u == U[n + 1]:
        return n
    low, high = kv.degree, n + 1
    mid = (low + high) // 2
    while u < U[mid] or u >= U[mid + 1]:
        if u < U[mid]:
            high = mid
        else:
            low = mid
        mid = (low + high) // 2
    return mid


def a23_basis(kv, u, order):
    """NURBS Book A2.3 (Piegl & Tiller), as KnotVector.basis computed it
    before its kernel was rewritten: the reference for its bits.

    u is clamped into [0, 1] and located by A2.1, elementwise for an array.
    A rank-0 u, a 0-d array included, is clamped as a Python float, which
    keeps the sign of -0.0 as the kernel's scalar path does.
    """
    if np.ndim(u):
        u = np.minimum(np.maximum(np.asarray(u, dtype=float), 0.0), 1.0)
        span = np.array([a21_span(kv, x) for x in u.ravel().tolist()], dtype=np.intp)
        span = span.reshape(u.shape)
        shape, U = u.shape, kv.knots
    else:
        u = min(max(float(u), 0.0), 1.0)
        span = a21_span(kv, u)
        shape, U = (), kv._knot_list
    p = kv.degree
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


@st.composite
def basis_queries(draw):
    """A knot vector of degree 0-5, its interior knots up to C0, and
    parameters on its knots, at the ends, within MERGE_TOL outside [0, 1]
    and in between."""
    p = draw(st.integers(0, 5))
    # degree 0 allows no interior knot: its multiplicity would exceed 0
    values = draw(st.lists(st.integers(1, 19), max_size=4 if p else 0, unique=True))
    knots = [0.0] * (p + 1) + [1.0] * (p + 1)
    for value in values:
        knots += [value / 20] * draw(st.integers(1, p))
    kv = KnotVector(sorted(knots), p)
    special = kv.knots.tolist() + [-0.0, -0.5 * MERGE_TOL, 1.0 + 0.5 * MERGE_TOL]
    u = st.one_of(st.sampled_from(special), st.floats(0.0, 1.0))
    return kv, draw(st.lists(u, min_size=1, max_size=6))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(basis_queries(), st.integers(0, 2))
def test_basis_is_a23_bit_for_bit(query, order):
    kv, us = query
    queries = [np.array(us), np.array(us * 2).reshape(2, -1)]
    for u in us:
        queries += [u, np.float64(u), np.array(u)]
        if u in (0.0, 1.0):
            queries.append(int(u))
    for u in queries:
        span, ders = kv.basis(u, order)
        want_span, want = a23_basis(kv, u, order)
        assert np.shape(span) == np.shape(want_span)
        assert np.array_equal(span, want_span)
        assert ders.dtype == want.dtype and ders.shape == want.shape
        assert ders.tobytes() == want.tobytes(), (kv, u, order)


class TestArrayEvaluation:
    """The array path equals the scalar path point by point."""

    VECTORS = [
        ([0, 0, 1, 1], 1),
        ([0, 0, 0, 0.25, 0.5, 0.5, 1, 1, 1], 2),
        ([0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1], 3),
        ([0, 1], 0),
    ]

    def params(self, kv, rng):
        # interior knots exactly (right-adjacent span), both ends, values
        # within MERGE_TOL outside [0, 1] (clamped) and random points
        edges = [0.0, 1.0, -0.5 * MERGE_TOL, 1.0 + 0.5 * MERGE_TOL]
        return np.array(kv.interior()[0] + edges + rng.random(12).tolist())

    def test_basis_matches_scalar_calls(self, rng):
        for knots, degree in self.VECTORS:
            kv = KnotVector(knots, degree)
            u = self.params(kv, rng)
            for order in (0, 1, 2):
                for grid in (u, u.reshape(2, -1)):
                    spans, ders = kv.basis(grid, order)
                    assert spans.shape == grid.shape
                    assert ders.shape == grid.shape + (order + 1, degree + 1)
                    for index in np.ndindex(grid.shape):
                        span, expected = kv.basis(float(grid[index]), order)
                        assert spans[index] == span
                        # bytes, not np.array_equal, which takes -0.0 for
                        # 0.0: the order-2 rows of degrees 0 and 1 are zeros
                        assert ders[index].tobytes() == expected.tobytes()

    def test_interior_knot_and_end_spans(self):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        spans = kv.find_span(np.array([0.0, 0.5, 1.0, 1.0 + 0.5 * MERGE_TOL]))
        assert spans.tolist() == [2, 3, 3, 3]
        spans, ders = kv.basis(np.array([]), 1)
        assert spans.shape == (0,) and ders.shape == (0, 2, 3)

    def test_array_outside_the_unit_interval_raises(self):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        for bad in (1.5, -0.2, 1.0 + 10 * MERGE_TOL):
            with pytest.raises(DomainError, match=str(bad)):
                kv.basis(np.array([0.2, bad, 0.7]), 1)

    def test_surface_broadcast_matches_scalar_calls(self, curved_surface, rng):
        u = rng.random((5, 1))
        v = np.array([[0.0, 0.5, 1.0, 0.25]])
        sd = curved_surface.evaluate(u, v, 2)
        for i, j in np.ndindex(5, 4):
            one = curved_surface.evaluate(float(u[i, 0]), float(v[0, j]), 2)
            for name in ("value", "du", "dv", "duu", "duv", "dvv"):
                assert np.array_equal(getattr(sd, name)[i, j], getattr(one, name))


SURFACE_FIELDS = ("value", "du", "dv", "duu", "duv", "dvv")


@st.composite
def knot_vectors(draw):
    """Degree 1-3, up to three interior knots, each up to `degree` times."""
    degree = draw(st.integers(1, 3))
    interior = draw(st.lists(st.floats(0.05, 0.95), max_size=3)
                    .filter(lambda xs: np.all(np.diff(sorted(xs)) > 0.01)))
    knots = [0.0] * (degree + 1) + [1.0] * (degree + 1)
    for value in interior:
        knots += [value] * draw(st.integers(1, degree))
    return KnotVector(sorted(knots), degree)


@st.composite
def surfaces(draw):
    kv_u, kv_v = draw(knot_vectors()), draw(knot_vectors())
    shape = (kv_u.num_basis, kv_v.num_basis)
    size = shape[0] * shape[1]
    net = draw(st.lists(st.floats(-1.0, 1.0), min_size=3 * size, max_size=3 * size))
    weights = draw(st.lists(st.floats(0.2, 5.0), min_size=size, max_size=size))
    return NurbsSurface(kv_u, kv_v, np.reshape(net, shape + (3,)), np.reshape(weights, shape))


def parameters(kv):
    """Random values in [0, 1], the ends and the knots themselves."""
    return st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(kv.knots.tolist())),
                    min_size=1, max_size=8)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_batched_surface_evaluation_equals_scalar_calls_bitwise(data):
    """The array path gives each point the scalar path's bits, for every field."""
    srf = data.draw(surfaces())
    order = data.draw(st.integers(0, 2))
    u = np.array(data.draw(parameters(srf.knot_vector_u)))
    v = np.array(data.draw(parameters(srf.knot_vector_v)))
    if data.draw(st.booleans()):
        v = np.resize(v, u.size)  # two batches of one shape
    else:
        u = float(u[0])  # a scalar u broadcast against v
    batch = srf.evaluate(u, v, order)
    for index in np.ndindex(np.broadcast(u, v).shape):
        one = srf.evaluate(float(np.broadcast_to(u, v.shape)[index]), float(v[index]), order)
        for name in SURFACE_FIELDS:
            want = getattr(one, name)
            if want is None:
                assert getattr(batch, name) is None
            else:
                assert getattr(batch, name)[index].tobytes() == want.tobytes(), name
    empty = srf.evaluate(np.empty((2, 0)), np.empty((2, 0)), order)
    for name in SURFACE_FIELDS:
        got = getattr(empty, name)
        assert (got is None) if getattr(batch, name) is None else got.shape == (2, 0, 3)


CURVE_FIELDS = ("value", "d1", "d2")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_batched_curve_evaluation_equals_scalar_calls_bitwise(data):
    """The array path gives each parameter the scalar path's bits, for every field.

    Random rational 2D and 3D curves of degree 1-3, with interior knots of
    any allowed multiplicity, at random parameters, the ends and the knots.
    """
    curve = data.draw(curves())
    order = data.draw(st.integers(0, 2))
    s = np.array(data.draw(parameters(curve.knot_vector)))
    batch = curve.evaluate(s, order)
    for i in range(s.size):
        one = curve.evaluate(float(s[i]), order)
        for name in CURVE_FIELDS:
            want = getattr(one, name)
            if want is None:
                assert getattr(batch, name) is None
            else:
                assert getattr(batch, name)[i].tobytes() == want.tobytes(), name


#: the spellings of one parameter value; the memo may take only a Python
#: float, so that spelling is drawn as often as the other three together
SPELLINGS = (float, float, float, np.float64, np.array, lambda s: np.array([s]))


@st.composite
def curve_queries(draw):
    """(curve index, s, order, spelling) steps, each changing one part or none.

    A step repeats the last one, moves to the other curve, changes the
    order, or draws everything afresh, with s often 0.0, -0.0 or 1.0.
    """
    k, s, order, spelling = 0, 0.5, 1, float
    steps = []
    for _ in range(draw(st.integers(1, 24))):
        change = draw(st.sampled_from(("none", "curve", "order", "all")))
        if change == "curve":
            k = 1 - k
        elif change == "order":
            order = draw(st.integers(0, 2))
        elif change == "all":
            k, order = draw(st.integers(0, 1)), draw(st.integers(0, 2))
            s = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0)))
            spelling = draw(st.sampled_from(SPELLINGS))
        steps.append((k, s, order, spelling))
    return steps


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_the_last_query_memo_is_invisible(data):
    """Every answer has a fresh copy's bits, whatever came before and was done to it.

    Two random rational curves of degree 1-3, with interior knots of any
    allowed multiplicity, take turns; after each answer its arrays are
    written to, and every field of its bundle is rebound.
    """
    pair = [data.draw(curves()) for _ in range(2)]
    for k, s, order, spelling in data.draw(curve_queries()):
        c = pair[k]
        got = c.evaluate(spelling(s), order)
        want = NurbsCurve(c.knot_vector, c.control_points, c.weights).evaluate(spelling(s), order)
        for name in CURVE_FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert (a.shape, a.tobytes()) == (b.shape, b.tobytes()), name
                a[...] = 7.0
            setattr(got, name, np.full(3, 9.0))


def test_a_repeated_float_query_skips_the_basis(arc_curve, monkeypatch):
    calls = []
    basis = KnotVector.basis
    monkeypatch.setattr(KnotVector, "basis", lambda kv, u, order=0: calls.append(u) or basis(kv, u, order))
    for s, order in [(0.3, 1), (0.3, 1), (0.3, 2), (0.3, 2), (0.3, 1), (0.0, 1), (0.0, 1)]:
        arc_curve.evaluate(s, order)
    assert calls == [0.3, 0.3, 0.3, 0.0, 0.0]


class TestCurveEval:
    def test_arc_start_point(self, arc_curve):
        assert np.allclose(arc_curve.evaluate(0.0).value, [0.0, 0.2], atol=1e-15)

    def test_arc_midpoint_against_de_casteljau(self, arc_curve):
        got = arc_curve.evaluate(0.5).value
        oracle = de_casteljau_rational(
            [[0, 0.2], [0.2, 0.2], [0.2, 0]], [1.0, 0.707, 1.0], 0.5
        )
        # frozen from the oracle above: 1207/8535 in both components
        assert np.allclose(oracle, [0.14141769185705916] * 2, atol=1e-15)
        assert np.allclose(got, oracle, atol=1e-14)
        # the printed weight 0.707 sits close to the exact arc value 0.2/sqrt(2)
        assert np.allclose(got, [0.2 / math.sqrt(2)] * 2, atol=1e-4)

    def test_polyline_first_segment_midpoint(self, polyline_curve):
        assert np.allclose(polyline_curve.evaluate(0.25).value, [0.5, 1.0], atol=1e-15)

    def test_domain_error(self, arc_curve):
        with pytest.raises(DomainError):
            arc_curve.evaluate(1.01)

    def test_derivatives_match_finite_differences(self, arc_curve, rng):
        # second derivatives are differenced from the first-derivative output
        # to stay above the cancellation floor of raw value differences
        h = 1e-5
        for s in 0.05 + 0.9 * rng.random(100):
            d = arc_curve.evaluate(s, 2)
            fd1 = (arc_curve.evaluate(s + h).value - arc_curve.evaluate(s - h).value) / (2 * h)
            fd2 = (arc_curve.evaluate(s + h, 1).d1 - arc_curve.evaluate(s - h, 1).d1) / (2 * h)
            assert np.abs(d.d1 - fd1).max() / max(np.abs(d.d1).max(), 1.0) < 1e-6
            assert np.abs(d.d2 - fd2).max() / max(np.abs(d.d2).max(), 1.0) < 1e-6

    def test_uniform_weights_reduce_to_bspline(self, rng):
        kv = KnotVector([0, 0, 0, 0.4, 1, 1, 1], 2)
        pts = rng.random((4, 3))
        curve = NurbsCurve(kv, pts, 2.5 * np.ones(4))
        for s in rng.random(25):
            span, ders = kv.basis(s, 2)
            window = pts[span - 2 : span + 1]
            d = curve.evaluate(s, 2)
            assert np.abs(d.value - ders[0] @ window).max() < 1e-13
            assert np.abs(d.d1 - ders[1] @ window).max() < 1e-12
            assert np.abs(d.d2 - ders[2] @ window).max() < 1e-11


class TestSurfaceEval:
    def test_bilinear_identity(self, bilinear_surface):
        assert np.allclose(
            bilinear_surface.evaluate(0.3, 0.7).value, [0.3, 0.7, 0.0], atol=1e-15
        )

    def test_corners_hit_control_points(self, curved_surface):
        net = curved_surface.control_net
        for (u, v), cp in [
            ((0, 0), net[0, 0]),
            ((1, 0), net[-1, 0]),
            ((0, 1), net[0, -1]),
            ((1, 1), net[-1, -1]),
        ]:
            assert np.allclose(curved_surface.evaluate(u, v).value, cp, atol=1e-14)

    def test_uniform_weights_match_polynomial_tensor_formula(self, rng):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        net = rng.random((4, 4, 3))
        srf = NurbsSurface(kv, kv, net, 3.0 * np.ones((4, 4)))
        for u, v in rng.random((20, 2)):
            su, du = kv.basis(u, 2)
            sv, dv = kv.basis(v, 2)
            window = net[su - 2 : su + 1, sv - 2 : sv + 1]
            sd = srf.evaluate(u, v, 2)
            direct = np.einsum("i,j,ijc->c", du[0], dv[0], window)
            assert np.abs(sd.value - direct).max() < 1e-13
            d_uv = np.einsum("i,j,ijc->c", du[1], dv[1], window)
            assert np.abs(sd.duv - d_uv).max() < 1e-11

    KNOTS = {
        1: [0, 0, 0.4, 1, 1],
        2: [0, 0, 0, 0.5, 1, 1, 1],
        3: [0, 0, 0, 0, 0.3, 0.7, 1, 1, 1, 1],
    }

    @staticmethod
    def double_loop(srf, u, v):
        """Partials up to order 2 at one point: homogeneous sums by a plain
        double loop, then the rational quotient rule (NURBS Book A4.4)."""
        p, q = srf.degrees
        su, du = srf.knot_vector_u.basis(u, 2)
        sv, dv = srf.knot_vector_v.basis(v, 2)
        w = srf.weights[..., None]
        H = np.concatenate([srf.control_net * w, w], axis=2)
        A = {}
        for k in range(3):
            for l in range(3 - k):
                total = np.zeros(4)
                for i in range(p + 1):
                    for j in range(q + 1):
                        total += du[k, i] * dv[l, j] * H[su - p + i, sv - q + j]
                A[k, l] = total
        S = {}
        for k in range(3):
            for l in range(3 - k):
                d = A[k, l][:3].copy()
                for j in range(1, l + 1):
                    d -= math.comb(l, j) * A[0, j][3] * S[k, l - j]
                for i in range(1, k + 1):
                    d -= math.comb(k, i) * A[i, 0][3] * S[k - i, l]
                    for j in range(1, l + 1):
                        d -= math.comb(k, i) * math.comb(l, j) * A[i, j][3] * S[k - i, l - j]
                S[k, l] = d / A[0, 0][3]
        return {"value": S[0, 0], "du": S[1, 0], "dv": S[0, 1],
                "duu": S[2, 0], "duv": S[1, 1], "dvv": S[0, 2]}

    def test_rational_partials_match_a_double_loop(self, rng):
        # scalar points and a broadcast (T, 1, n) x (1, n, 1) grid
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                kv_u = KnotVector(self.KNOTS[p], p)
                kv_v = KnotVector(self.KNOTS[q], q)
                shape = (kv_u.num_basis, kv_v.num_basis)
                srf = NurbsSurface(
                    kv_u, kv_v, rng.random(shape + (3,)), 0.5 + 1.5 * rng.random(shape)
                )
                u = np.append(rng.random(5), [0.0, 0.5, 1.0]).reshape(2, 1, 4)
                v = np.append(rng.random(3), [0.3, 1.0]).reshape(1, 5, 1)
                grid = srf.evaluate(u, v, 2)
                for index in np.ndindex(2, 5, 4):
                    point = (float(u[index[0], 0, index[2]]), float(v[0, index[1], 0]))
                    want = self.double_loop(srf, *point)
                    one = srf.evaluate(*point, 2)
                    # relative to the largest partial: a rational surface of
                    # degree 1 has small second partials made by cancellation
                    tol = 1e-14 * max(np.abs(w).max() for w in want.values())
                    for name, w in want.items():
                        assert np.abs(getattr(one, name) - w).max() <= tol, (p, q, name)
                        assert np.abs(getattr(grid, name)[index] - w).max() <= tol

    def test_derivatives_match_finite_differences(self, curved_surface, rng):
        h = 1e-5
        srf = curved_surface
        for u, v in 0.05 + 0.9 * rng.random((100, 2)):
            sd = srf.evaluate(u, v, 2)
            fdu = (srf.evaluate(u + h, v).value - srf.evaluate(u - h, v).value) / (2 * h)
            fdv = (srf.evaluate(u, v + h).value - srf.evaluate(u, v - h).value) / (2 * h)
            assert np.abs(sd.du - fdu).max() / max(np.abs(sd.du).max(), 1.0) < 1e-6
            assert np.abs(sd.dv - fdv).max() / max(np.abs(sd.dv).max(), 1.0) < 1e-6
            fduu = (srf.evaluate(u + h, v, 1).du - srf.evaluate(u - h, v, 1).du) / (2 * h)
            fdvv = (srf.evaluate(u, v + h, 1).dv - srf.evaluate(u, v - h, 1).dv) / (2 * h)
            fduv = (srf.evaluate(u, v + h, 1).du - srf.evaluate(u, v - h, 1).du) / (2 * h)
            assert np.abs(sd.duu - fduu).max() / max(np.abs(sd.duu).max(), 1.0) < 1e-6
            assert np.abs(sd.dvv - fdvv).max() / max(np.abs(sd.dvv).max(), 1.0) < 1e-6
            assert np.abs(sd.duv - fduv).max() / max(np.abs(sd.duv).max(), 1.0) < 1e-6

    def test_domain_error(self, bilinear_surface):
        with pytest.raises(DomainError):
            bilinear_surface.evaluate(-0.1, 0.5)


class TestKnotInsertion:
    def test_single_insertion_preserves_curve(self, arc_curve):
        refined = arc_curve.insert_knot(0.5)
        assert refined.control_points.shape[0] == 4
        assert np.abs(
            refined.evaluate(0.25).value - arc_curve.evaluate(0.25).value
        ).max() < 1e-14

    def test_double_insertion_gives_c0_and_identical_values(self, arc_curve, rng):
        refined = arc_curve.insert_knot(0.5, multiplicity=2)
        values, mults = refined.knot_vector.interior()
        assert values == [0.5] and mults == [2]
        for s in rng.random(30):
            assert np.abs(
                refined.evaluate(s).value - arc_curve.evaluate(s).value
            ).max() < 1e-14

    def test_multiplicity_limit(self, polyline_curve, arc_curve):
        # polyline already carries 0.5 once at degree 1: one more is too many
        with pytest.raises(InvalidRefinementError):
            polyline_curve.insert_knot(0.5)
        arc_c0 = arc_curve.insert_knot(0.5, multiplicity=2)
        with pytest.raises(InvalidRefinementError):
            arc_c0.insert_knot(0.5)

    def test_zero_multiplicity_is_rejected(self, arc_curve, curved_surface):
        with pytest.raises(InvalidRefinementError):
            arc_curve.knot_vector.inserted(0.5, 0)
        with pytest.raises(InvalidRefinementError):
            arc_curve.insert_knot(0.5, multiplicity=0)
        with pytest.raises(InvalidRefinementError):
            curved_surface.insert_knot(0.5, "u", multiplicity=0)

    @pytest.mark.parametrize("multiplicity", [1.5, "2"])
    def test_a_multiplicity_that_is_not_an_integer_is_rejected(
            self, arc_curve, curved_surface, multiplicity):
        for insert in (lambda: arc_curve.knot_vector.inserted(0.5, multiplicity),
                       lambda: arc_curve.insert_knot(0.5, multiplicity),
                       lambda: curved_surface.insert_knot(0.3, "u", multiplicity)):
            with pytest.raises(InvalidRefinementError, match="multiplicity must be an integer"):
                insert()

    @pytest.mark.parametrize("value", ["0.5", None, [0.5]])
    def test_a_knot_value_that_is_not_a_real_number_is_rejected(
            self, arc_curve, curved_surface, value):
        for insert in (lambda: arc_curve.knot_vector.inserted(value),
                       lambda: arc_curve.insert_knot(value),
                       lambda: curved_surface.insert_knot(value, "u")):
            with pytest.raises(InvalidRefinementError, match="new knot must be a real number"):
                insert()

    def test_surface_insertion_both_directions(self, curved_surface, rng):
        refined = curved_surface.insert_knot(0.3, "u").insert_knot(0.7, "v")
        for u, v in rng.random((20, 2)):
            assert np.abs(
                refined.evaluate(u, v).value - curved_surface.evaluate(u, v).value
            ).max() < 1e-12


class TestDegreeElevation:
    def test_linear_segment_gets_midpoint_average(self):
        seg = segment([0.0, 0.0], [1.0, 2.0])
        el = seg.elevate_degree()
        assert el.degree == 2
        assert np.allclose(el.knot_vector.knots, [0, 0, 0, 1, 1, 1])
        assert np.allclose(el.control_points[1], [0.5, 1.0], atol=1e-14)

    def test_pointwise_identity_at_random_parameters(self, arc_curve, rng):
        el = arc_curve.elevate_degree()
        for s in rng.random(20):
            assert np.abs(
                el.evaluate(s).value - arc_curve.evaluate(s).value
            ).max() < 1e-12

    def test_polyline_elevation_keeps_c0(self, polyline_curve, rng):
        el = polyline_curve.elevate_degree()
        assert el.degree == 2
        values, mults = el.knot_vector.interior()
        assert values == [0.5] and mults == [2]
        for s in rng.random(20):
            assert np.abs(
                el.evaluate(s).value - polyline_curve.evaluate(s).value
            ).max() < 1e-12

    def test_surface_elevation(self, curved_surface, rng):
        el = curved_surface.elevate_degree("u").elevate_degree("v")
        assert el.degrees == (3, 3)
        for u, v in rng.random((20, 2)):
            assert np.abs(
                el.evaluate(u, v).value - curved_surface.evaluate(u, v).value
            ).max() < 1e-12

    def test_chained_refinements_preserve_the_curve(self, arc_curve, rng):
        chained = (
            arc_curve.elevate_degree()
            .insert_knot(0.3)
            .insert_knot(0.77, multiplicity=2)
            .elevate_degree()
        )
        assert chained.degree == 4
        for s in rng.random(30):
            assert np.abs(
                chained.evaluate(s).value - arc_curve.evaluate(s).value
            ).max() < 1e-12
        d = chained.evaluate(0.41, 2)
        ref = arc_curve.evaluate(0.41, 2)
        assert np.abs(d.d1 - ref.d1).max() < 1e-10
        assert np.abs(d.d2 - ref.d2).max() < 1e-8


_MAGNITUDES = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_COORDINATES = st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), _MAGNITUDES)


@pytest.mark.parametrize("kind", ["curve", "surface"])
@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_a_finite_control_net_gives_finite_homogeneous_points_or_a_typed_error(kind, data):
    """Points and weights of any finite size from 1e-300 to 1e300: the product
    w * P either stays finite or is rejected, without a numpy warning."""
    kv_u, kv_v = data.draw(knot_vectors()), data.draw(knot_vectors())
    if kind == "curve":
        shape, dim = (kv_u.num_basis,), data.draw(st.sampled_from([2, 3]))
    else:
        shape, dim = (kv_u.num_basis, kv_v.num_basis), 3
    size = math.prod(shape)
    points = np.reshape(data.draw(st.lists(_COORDINATES, min_size=size * dim,
                                           max_size=size * dim)), shape + (dim,))
    weights = np.reshape(data.draw(st.lists(_MAGNITUDES, min_size=size, max_size=size)), shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if kind == "curve":
                geometry = NurbsCurve(kv_u, points, weights)
            else:
                geometry = NurbsSurface(kv_u, kv_v, points, weights)
        except InvalidGeometryError:
            return
    assert np.all(np.isfinite(geometry._homogeneous))


class TestValidation:
    def test_control_point_count_mismatch(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        with pytest.raises(InvalidGeometryError):
            NurbsCurve(kv, [[0, 0], [1, 1]])

    def test_nonpositive_weight(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(InvalidGeometryError):
            NurbsCurve(kv, [[0, 0], [1, 1]], [1.0, 0.0])

    @pytest.mark.parametrize("points, weights, message", [
        ([[0, 0], [1, 1]], [1.0, math.nan], "weights must be finite"),
        ([[0, 0], [1, 1]], [1.0, math.inf], "weights must be finite"),
        ([[0, math.nan], [1, 1]], None, "control points must be finite"),
        ([[0, 0], [math.inf, 1]], None, "control points must be finite"),
    ], ids=["nan-weight", "inf-weight", "nan-point", "inf-point"])
    def test_curve_rejects_non_finite_numbers(self, points, weights, message):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(InvalidGeometryError, match=message):
            NurbsCurve(kv, points, weights)

    def test_surface_rejects_non_finite_numbers(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        net = np.zeros((2, 2, 3))
        weights = np.ones((2, 2))
        weights[1, 0] = math.nan
        with pytest.raises(InvalidGeometryError, match="weights must be finite"):
            NurbsSurface(kv, kv, net, weights)
        net[0, 1, 2] = math.inf
        with pytest.raises(InvalidGeometryError, match="control points must be finite"):
            NurbsSurface(kv, kv, net)

    def test_curve_weights_take_the_points_leading_shape(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(InvalidGeometryError, match=r"weights must have shape \(2,\)"):
            NurbsCurve(kv, [[0, 0], [1, 1]], [[1.0], [1.0]])

    def test_surface_net_shape(self):
        kv = KnotVector([0, 0, 1, 1], 1)
        with pytest.raises(InvalidGeometryError):
            NurbsSurface(kv, kv, np.zeros((3, 2, 3)))


KV1 = KnotVector([0, 0, 1, 1], 1)
SQUARE_NET = [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]]


@pytest.mark.parametrize("call, expected", [
    (lambda: KnotVector([0.5] * 4, 1), InvalidGeometryError("knot range is empty")),
    (lambda: KnotVector([2, 4], 0).greville().tolist(), [0.5]),
    (lambda: KV1.inserted(1.0),
     InvalidRefinementError("new knot 1.0 must lie strictly in (0, 1)")),
    (lambda: KV1.inserted(-0.5),
     InvalidRefinementError("new knot -0.5 must lie strictly in (0, 1)")),
    (lambda: repr(KnotVector([0, 0, 2, 2], 1)),
     "KnotVector(degree=1, knots=[0.0, 0.0, 1.0, 1.0])"),
    (lambda: NurbsCurve([0, 0, 1, 1], [[0, 0], [1, 1]]),
     InvalidGeometryError("knot_vector must be a KnotVector")),
    (lambda: NurbsCurve(KV1, [0, 1]),
     InvalidGeometryError("control points must be an (n, 2) or (n, 3) array")),
    (lambda: NurbsCurve(KV1, [[0, 0, 0, 1], [1, 1, 0, 1]]),
     InvalidGeometryError("control points must be an (n, 2) or (n, 3) array")),
    (lambda: NurbsSurface([0, 0, 1, 1], KV1, SQUARE_NET),
     InvalidGeometryError("knot vectors must be KnotVector instances")),
    (lambda: NurbsSurface(KV1, None, SQUARE_NET),
     InvalidGeometryError("knot vectors must be KnotVector instances")),
    (lambda: NurbsSurface(KV1, KV1, SQUARE_NET).insert_knot(0.5, "w"),
     InvalidRefinementError("direction must be 'u' or 'v', got 'w'")),
    (lambda: NurbsSurface(KV1, KV1, SQUARE_NET).elevate_degree(0),
     InvalidRefinementError("direction must be 'u' or 'v', got 0")),
], ids=["empty knot range", "degree-0 greville", "insert at 1", "insert below 0", "repr",
        "curve knot type", "curve points rank", "curve points width", "surface u knot type",
        "surface v knot type", "insert direction", "elevate direction"])
def test_branches_no_other_test_reaches(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected


@pytest.mark.parametrize("u, named", [
    ([[0.5, 1.5], [-3.0, 0.2]], 1.5),
    ([[0.5, -3.0], [1.5, 0.2]], -3.0),
    (np.array([[0.5, 1.5], [-3.0, 0.2]]).T, -3.0),  # C order, not memory order
])
def test_a_batch_names_its_first_bad_parameter_in_c_order(u, named):
    with pytest.raises(DomainError, match=re.escape(f"parameter {named} outside [0, 1]")):
        KV1.basis(np.asarray(u))
