"""Exact refinement leaves the geometry alone: properties on random input.

Knot insertion and degree elevation re-express a curve in a larger spline
space, so points and derivatives must not move, and neither may the
composite map of a region whose trimming curve was refined. The examples
are drawn with derandomize=True, so every run checks the same ones.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trimiga.nurbs import KnotVector, NurbsCurve, NurbsSurface
from trimiga.trimming import TrimmedRegion

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)

#: distance kept between distinct knots, and from the ends
KNOT_GAP = 0.05

#: the uniform sample grid in s; the curve property adds every knot to it
SAMPLES = np.linspace(0.0, 1.0, 41)


def _separated(values):
    points = [0.0, *sorted(values), 1.0]
    return all(b - a >= KNOT_GAP for a, b in zip(points, points[1:]))


@st.composite
def knot_vectors(draw):
    degree = draw(st.integers(1, 3))
    interior = draw(st.lists(st.floats(KNOT_GAP, 1.0 - KNOT_GAP), max_size=3)
                    .filter(_separated))
    knots = [0.0] * (degree + 1) + [1.0] * (degree + 1)
    for value in interior:
        knots += [value] * draw(st.integers(1, degree))
    return KnotVector(sorted(knots), degree)


def _coordinates(n):
    return st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)


def _weights(n):
    return st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)


@st.composite
def curves(draw):
    kv = draw(knot_vectors())
    n, dim = kv.num_basis, draw(st.sampled_from((2, 3)))
    points = np.reshape(draw(_coordinates(n * dim)), (n, dim))
    return NurbsCurve(kv, points, draw(_weights(n)))


@st.composite
def refinements(draw, curve):
    """curve.elevate_degree, or curve.insert_knot at any allowed multiplicity.

    An inserted value is an interior knot that has room left or a new value
    KNOT_GAP away from every knot.
    """
    kv = curve.knot_vector
    values, mults = kv.interior()
    room = [v for v, m in zip(values, mults) if m < kv.degree]
    fresh = st.floats(KNOT_GAP, 1.0 - KNOT_GAP).filter(lambda v: _separated(values + [v]))
    choices = [st.just(None), fresh] + ([st.sampled_from(room)] if room else [])
    value = draw(st.one_of(choices))
    if value is None:
        return curve.elevate_degree()
    multiplicity = draw(st.integers(1, kv.degree - kv.multiplicity(value)))
    return curve.insert_knot(value, multiplicity)


def assert_close(refined, original):
    """Equal within 1e-12 of the original's largest magnitude (at least 1)."""
    scale = max(float(np.abs(original).max()), 1.0)
    assert np.abs(refined - original).max() <= 1e-12 * scale


@PROPERTY
@given(st.data())
def test_refinement_keeps_points_and_derivatives(data):
    curve = data.draw(curves())
    refined = data.draw(refinements(curve))
    s = np.union1d(SAMPLES, refined.knot_vector.knots)
    before, after = curve.evaluate(s, 2), refined.evaluate(s, 2)
    for field in ("value", "d1", "d2"):
        assert_close(getattr(after, field), getattr(before, field))


def _curved_surface():
    """A rational, curved, fold-free surface of one span.

    One span, so that a roundoff change in (u, v) cannot cross a knot line,
    where the surface's second derivatives jump.
    """
    rng = np.random.default_rng(7)
    net = 0.3 * rng.random((3, 4, 3))
    net[..., 0] += np.arange(3)[:, None]
    net[..., 1] += np.arange(4)[None, :]
    return NurbsSurface(KnotVector([0, 0, 0, 1, 1, 1], 2),
                        KnotVector([0, 0, 0, 0, 1, 1, 1, 1], 3),
                        net, 0.5 + rng.random((3, 4)))


SURFACE = _curved_surface()


@st.composite
def regions(draw):
    """Two curves in one space with shared increasing abscissae, bottom below top.

    Both curves then have one u(s) with u' > 0 and a positive gap, so the
    blend's Jacobian is positive on the whole square.
    """
    kv = draw(knot_vectors())
    n = kv.num_basis
    steps = np.cumsum(draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n)))
    g = 0.05 + 0.9 * (steps - steps[0]) / (steps[-1] - steps[0])
    a = 0.05 + 0.35 * np.array(draw(_coordinates(n)))
    b = a + 0.15 + 0.4 * np.array(draw(_coordinates(n)))
    weights = draw(_weights(n))
    return TrimmedRegion(SURFACE, NurbsCurve(kv, np.column_stack([g, a]), weights),
                         NurbsCurve(kv, np.column_stack([g, b]), weights))


@PROPERTY
@given(st.data())
def test_composite_map_is_unchanged_by_refining_a_trimming_curve(data):
    region = data.draw(regions())
    if data.draw(st.booleans()):
        refined = TrimmedRegion(SURFACE, data.draw(refinements(region.curve_bottom)),
                                region.curve_top)
    else:
        refined = TrimmedRegion(SURFACE, region.curve_bottom,
                                data.draw(refinements(region.curve_top)))
    s, t = np.meshgrid(SAMPLES, np.linspace(0.0, 1.0, 9), indexing="ij")
    before, after = region.composite_eval(s, t, 2), refined.composite_eval(s, t, 2)
    for field in ("x", "dx_ds", "dx_dt", "d2x_ds2", "d2x_dt2", "d2x_dsdt",
                  "jacobian_scale"):
        assert_close(getattr(after, field), getattr(before, field))
