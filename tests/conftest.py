import numpy as np
import pytest

from trimiga import plate
from trimiga.errors import DomainError
from trimiga.nurbs import KnotVector, NurbsCurve, NurbsSurface, _rank, _unpack
from trimiga.shapes import (
    EXACT_ARC_WEIGHT,
    hole_arc_curve,
    outer_polyline_curve,
    plate_with_hole_region,
    unit_square_surface,
)
from trimiga.trimming import CompositeDerivatives, TrimmedRegion, check_regular, cross_norm


@pytest.fixture
def rng():
    return np.random.default_rng(20240615)


@pytest.fixture
def plate_region():
    """Quarter plate with the as-printed arc weight 0.707."""
    return plate_with_hole_region()


@pytest.fixture
def exact_plate_region():
    """Quarter plate with the exact circular-arc weight sqrt(1/2)."""
    return plate_with_hole_region(arc_weight=EXACT_ARC_WEIGHT)


@pytest.fixture
def poly_plate_region():
    """Quarter plate with all trim weights 1 (polynomial map)."""
    return plate_with_hole_region(arc_weight=1.0)


@pytest.fixture
def square_region():
    return identity_region()


@pytest.fixture
def arc_curve():
    return hole_arc_curve()


@pytest.fixture
def polyline_curve():
    return outer_polyline_curve()


@pytest.fixture
def bilinear_surface():
    return unit_square_surface()


@pytest.fixture
def curved_surface(rng):
    """Rational biquadratic surface: genuinely 3D, curved, and fold-free.

    The in-plane control net stays monotone in both directions so the patch
    never folds over itself; z and the weights wobble freely.
    """
    kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
    net = 0.3 * rng.random((4, 4, 3))
    net[..., 0] += np.arange(4)[:, None]
    net[..., 1] += np.arange(4)[None, :]
    weights = 0.5 + rng.random((4, 4))
    return NurbsSurface(kv, kv, net, weights)


def segment(p0, p1):
    kv = KnotVector([0, 0, 1, 1], 1)
    return NurbsCurve(kv, [p0, p1])


def identity_trim():
    """The bottom and top curves of the trim that covers the whole surface."""
    return segment([0.0, 0.0], [1.0, 0.0]), segment([0.0, 1.0], [1.0, 1.0])


def identity_region(surface=None):
    """Trim that covers the whole surface: (s, t) -> (u, v) is the identity."""
    return TrimmedRegion(unit_square_surface() if surface is None else surface, *identity_trim())


class DirectGeometry(TrimmedRegion):
    """Planar surface evaluated directly: (s, t) are the surface (u, v).

    The identity trim with the trimming map bypassed, the reference that
    shows an identity trim changes nothing (acceptance criterion 5). It
    answers composite_eval, breaklines and max_degree from the surface
    alone; the plate reads its trimming curves only at the closing edges.
    """

    def __init__(self, surface):
        super().__init__(surface, *identity_trim())

    def composite_eval(self, s, t, order):
        if order != 1:
            raise DomainError(f"a direct geometry serves derivative order 1 only, got {order}")
        sd = self.surface.evaluate(s, t, order=1)
        rank = _rank(s) or _rank(t)
        scale = cross_norm(_unpack(sd.du, rank), _unpack(sd.dv, rank))
        check_regular(scale, self.surface.singular_area, s, t)
        return CompositeDerivatives(sd.value, sd.du, sd.dv, jacobian_scale=scale)

    def breaklines(self):
        surface = self.surface
        return surface.knot_vector_u.interior()[0], surface.knot_vector_v.interior()[0]

    def max_degree(self):
        return max(self.surface.degrees)


def refined_h(field):
    """The field space with every knot span bisected in both directions."""
    return plate.FieldSpace(*(plate._bisected(kv)
                              for kv in (field.knot_vector_s, field.knot_vector_t)))
