"""Seeded trimmed regions that are valid by construction.

Validity construction
---------------------
Both trimming curves are drawn in one curve space (same degree, knot vector
and weights). Their control points share strictly increasing abscissae
g_0 < ... < g_n and differ only in their ordinates, a_i < b_i:

    C_I(s)  = sum_i R_i(s) (g_i, a_i)
    C_II(s) = sum_i R_i(s) (g_i, b_i)

so both curves have the same u(s) = sum_i R_i(s) g_i, and the gap
v_II(s) - v_I(s) = sum_i R_i(s) (b_i - a_i) is positive. With positive
weights every knot span is a rational Bezier piece whose control abscissae
still increase strictly, and the hodograph of such a piece,
w^2 u' = sum_{i<j} w_i w_j (B_i B_j' - B_j B_i') (g_j - g_i), has only
positive terms, so u'(s) > 0 (one-sided at knots). The blend Jacobian is

    det d(u, v)/d(s, t) = u'(s) (v_II(s) - v_I(s)) > 0

on the whole square: the map never folds. All control points lie in the
unit square, so by the convex hull property no blend point leaves it.
The top curve may afterwards be re-expressed by exact knot insertion or
degree elevation; that changes its knot vector or degree, not the curve,
so the argument still holds.

The surface control net has x_ij = X_i strictly increasing in i,
y_ij = Y_j strictly increasing in j, and product weights w_ij = alpha_i beta_j.
The rational basis then factorises, S(u, v) = (x(u), y(v), z(u, v)) with
x' > 0 and y' > 0 by the same hodograph argument, so the z component of
S_u x S_v is x'(u) y'(v) > 0 and the surface is regular everywhere. The
heights z_ij are free: zero for a planar net, random for a curved one.

IGES extraction then gives back exactly the generated region: the bottom
curve has the lower mean v at every sample, and u(1) - u(0) >= 0.8 exceeds
every gap (at most 0.6), so the endpoint test never reverses the top curve.

Every structural choice (degrees, span counts, knot counts, C0 knots,
rational weights, planar nets, top-curve refinement) is dealt from a list in
which each value appears equally often, shuffled once by a fixed seed. The
run's seed draws the coordinates, knot positions and weights. Every seed
therefore gets the same region shapes, and with them the same amount of
work per region, so the timings of two seeds differ by the machine's noise,
not by the mix of shapes they happened to draw.
"""

import numpy as np

from trimiga.nurbs import KnotVector, NurbsCurve, NurbsSurface
from trimiga.trimming import TrimmedRegion

#: regions per pool; a multiple of every factor's number of levels
POOL_SIZE = 48

#: seed of the shuffle that deals the structural choices (not the run's seed)
SHAPE_SEED = 20150126

_FACTORS = {
    "surface_degree_u": (1, 2, 3),
    "surface_degree_v": (1, 2, 3),
    "surface_spans_u": (1, 2, 3, 4),
    "surface_spans_v": (1, 2, 3, 4),
    "surface_rational": (False, True),
    "surface_planar": (False, True),
    "curve_degree": (1, 2, 3),
    "curve_interior_knots": (0, 1, 2, 3),
    "curve_c0_knot": (False, True),
    "curve_rational": (False, True),
    "top_refinement": ("none", "insert", "elevate"),
}


def _dealt(rng, levels, count):
    """`count` values with every level equally often, in seeded order."""
    values = [levels[i % len(levels)] for i in range(count)]
    order = rng.permutation(count)
    return [values[i] for i in order]


def _distinct_knots(rng, count, min_gap=0.08):
    """`count` sorted values in (0, 1), apart from each other and the ends."""
    while True:
        knots = np.sort(rng.uniform(min_gap, 1.0 - min_gap, count))
        if count < 2 or np.min(np.diff(knots)) >= min_gap:
            return [float(k) for k in knots]


def _clamped(degree, interior, mults):
    knots = [0.0] * (degree + 1)
    for value, mult in zip(interior, mults):
        knots += [value] * mult
    return KnotVector(knots + [1.0] * (degree + 1), degree)


def _increasing(rng, count, lo, hi):
    """Strictly increasing values from lo to hi with bounded step ratios."""
    steps = np.cumsum(np.concatenate([[0.0], rng.uniform(0.5, 1.5, count - 1)]))
    return lo + (hi - lo) * steps / steps[-1]


def _surface(rng, shape):
    p, q = shape["surface_degree_u"], shape["surface_degree_v"]
    kv_u = _clamped(p, _distinct_knots(rng, shape["surface_spans_u"] - 1), [1] * 3)
    kv_v = _clamped(q, _distinct_knots(rng, shape["surface_spans_v"] - 1), [1] * 3)
    A, B = kv_u.num_basis, kv_v.num_basis
    size_x, size_y = rng.uniform(1.0, 5.0, 2)
    xs = _increasing(rng, A, 0.0, size_x)
    ys = _increasing(rng, B, 0.0, size_y)
    net = np.zeros((A, B, 3))
    net[..., 0] = xs[:, None]
    net[..., 1] = ys[None, :]
    if not shape["surface_planar"]:
        net[..., 2] = 0.3 * min(size_x, size_y) * rng.uniform(-1.0, 1.0, (A, B))
    weights = np.ones((A, B))
    if shape["surface_rational"]:
        weights = np.outer(rng.uniform(0.5, 2.0, A), rng.uniform(0.5, 2.0, B))
    return NurbsSurface(kv_u, kv_v, net, weights)


def _curves(rng, shape):
    p = shape["curve_degree"]
    interior = _distinct_knots(rng, shape["curve_interior_knots"])
    mults = [1] * len(interior)
    if interior and shape["curve_c0_knot"]:
        mults[int(rng.integers(len(interior)))] = p
    kv = _clamped(p, interior, mults)
    n = kv.num_basis
    g = _increasing(rng, n, rng.uniform(0.0, 0.1), rng.uniform(0.9, 1.0))
    a = rng.uniform(0.02, 0.38, n)
    b = a + rng.uniform(0.15, 0.6, n)
    weights = rng.uniform(0.5, 2.0, n) if shape["curve_rational"] else np.ones(n)
    bottom = NurbsCurve(kv, np.column_stack([g, a]), weights)
    top = NurbsCurve(kv, np.column_stack([g, b]), weights)
    refinement = shape["top_refinement"]
    if refinement == "elevate" and p == 3:
        refinement = "insert"
    if refinement == "elevate":
        top = top.elevate_degree()
    elif refinement == "insert":
        # a new knot value, away from the existing ones
        while True:
            value = float(rng.uniform(0.05, 0.95))
            if all(abs(value - k) >= 0.05 for k in interior):
                break
        top = top.insert_knot(value)
    return bottom, top


def generate_regions(seed, count=POOL_SIZE):
    """`count` valid TrimmedRegions drawn from `seed`, with their shapes.

    Returns a list of (region, shape) pairs; `shape` maps each structural
    factor to the value this region was dealt.
    """
    deal = np.random.default_rng(SHAPE_SEED)
    dealt = {name: _dealt(deal, levels, count) for name, levels in _FACTORS.items()}
    rng = np.random.default_rng([seed, 0x7219])
    out = []
    for k in range(count):
        shape = {name: values[k] for name, values in dealt.items()}
        surface = _surface(rng, shape)
        bottom, top = _curves(rng, shape)
        out.append((TrimmedRegion(surface, bottom, top), shape))
    return out
