"""Built-in benchmark geometries.

The quarter plate with a circular hole: a bilinear square surface trimmed
between a quadratic arc around the hole (bottom curve) and the two outer
edges folded into one C0 polyline (top curve). The arc weight 0.707 matches
the value commonly printed in CAD listings; sqrt(1/2) gives the exact
circular arc and 1.0 a polynomial stand-in used by patch tests.
"""

import math

import numpy as np

from .nurbs import KnotVector, NurbsCurve, NurbsSurface
from .trimming import TrimmedRegion

EXACT_ARC_WEIGHT = math.sqrt(0.5)
PRINTED_ARC_WEIGHT = 0.707

#: hole radius in the surface parameter square
HOLE_PARAM_RADIUS = 0.2


def unit_square_surface(scale=1.0):
    """Bilinear surface mapping the parameter square to [0, scale]^2 x {0}."""
    kv = KnotVector([0, 0, 1, 1], 1)
    net = scale * np.array(
        [[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]]
    )
    return NurbsSurface(kv, kv, net)


def hole_arc_curve(weight=PRINTED_ARC_WEIGHT):
    """Quadratic arc from (0, 0.2) to (0.2, 0) around the parameter-space hole."""
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    pts = [[0.0, HOLE_PARAM_RADIUS], [HOLE_PARAM_RADIUS, HOLE_PARAM_RADIUS],
           [HOLE_PARAM_RADIUS, 0.0]]
    return NurbsCurve(kv, pts, [1.0, weight, 1.0])


def outer_polyline_curve():
    """C0 polyline (0,1) -> (1,1) -> (1,0) tracing the two outer edges."""
    kv = KnotVector([0, 0, 0.5, 1, 1], 1)
    return NurbsCurve(kv, [[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])


def plate_with_hole_region(scale=1.0, arc_weight=PRINTED_ARC_WEIGHT):
    """Quarter plate with a hole; physical size scale x scale, hole radius 0.2*scale."""
    return TrimmedRegion(
        unit_square_surface(scale), hole_arc_curve(arc_weight), outer_polyline_curve()
    )
