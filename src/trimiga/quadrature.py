"""Gauss-Legendre quadrature over the (s, t) unit square.

Every integral, the area of `integrate` as well as the plate's stiffness,
error norm and edge tractions, runs on the one Tiling of partition_regions:
a set of s-lines and a set of t-lines, at the geometry's break lines (the
interior knots of the trimming curves in s) and at the field space's
interior knot lines, so that each Gauss panel between neighbouring lines
sees a smooth integrand. The blend is linear in t, so trimming curves never
force t-lines. One rule, _gauss_nodes, puts the Gauss nodes between the
lines: gauss_panels reads it, so do the plate's edge sampler and its error
norm, which evaluates on its own (column, s-node, row, t-node) grid.

Interior knots of a trimmed surface are not tracked: the blend bends their
(u, v) knot lines into curves that no (s, t)-aligned split can follow, so a
multi-span surface caps the attainable quadrature accuracy at its reduced
smoothness. Single-span surfaces (the usual trimming scenario) are immune.

`integrate` still evaluates the composite map one point per call. The
benchmark's tracer test (perfbench/test_generator.py) counts one
composite_eval call per point, so batching it waits for a revision of that
test (ROADMAP.md, "Batch quadrature.integrate by column"). Meanwhile each
trimming curve is evaluated once per s-node, not once per point: a panel's
points are s-major, and NurbsCurve.evaluate returns its last Python-float
query again. That memo goes with the per-point loop.
"""

import functools
import math

import numpy as np

from .nurbs import MERGE_TOL, _check_int, merge_close


# typed: a float n equal to a cached numpy integer one must still be rejected
@functools.lru_cache(maxsize=None, typed=True)
def gauss_points_1d(n):
    """Gauss-Legendre abscissae and weights on [0, 1], read-only; exact to degree 2n-1."""
    _check_int(n, "quadrature order", 1, 64)
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def unit_lines(breaks):
    """Merged break lines of [0, 1], from exactly 0.0 to exactly 1.0.

    Breaks within MERGE_TOL of an end are dropped rather than moving it.
    """
    inner = sorted(b for b in breaks if MERGE_TOL < b < 1.0 - MERGE_TOL)
    return [0.0] + merge_close(inner)[0] + [1.0]


class Tiling:
    """Tensor-product tiling of the (s, t) square by its s- and t-lines.

    Built from break lines in any order, which unit_lines merges: s_lines
    and t_lines are read-only, strictly increasing float arrays from exactly
    0.0 to exactly 1.0. The panels are the rectangles between neighbouring
    lines, s-major; len() counts them.
    """

    def __init__(self, s_breaks, t_breaks):
        self.s_lines, self.t_lines = (
            np.array(unit_lines(breaks)) for breaks in (s_breaks, t_breaks)
        )
        self.s_lines.flags.writeable = self.t_lines.flags.writeable = False

    def __len__(self):
        return (self.s_lines.size - 1) * (self.t_lines.size - 1)


def partition_regions(geometry, field=None):
    """The Tiling for a geometry and an optional field space.

    Its lines are the union of the geometry's break lines (geometry.
    breaklines()) and the field space's interior knot lines; coincident
    lines are merged.
    """
    s_breaks, t_breaks = geometry.breaklines()
    if field is not None:
        s_breaks = s_breaks + field.knot_vector_s.interior()[0]
        t_breaks = t_breaks + field.knot_vector_t.interior()[0]
    return Tiling(s_breaks, t_breaks)


def _gauss_nodes(lines, n):
    """The (L, n) Gauss nodes between L + 1 lines, and the L spans between them."""
    h = np.diff(lines)
    return lines[:-1, None] + h[:, None] * gauss_points_1d(n)[0], h


#: the most Gauss points gauss_panels puts in one batch of whole columns,
#: unless its caller names another size. It sets no value, only time and
#: memory. The stiffness takes this size and the norm twice it: against that
#: pair, one size for both took a warm stage-3 solve 1.05-1.07 of its time at
#: 2^12, 0.91-1.04 at 6,144, 0.90-1.07 at 7,168 and 1.19-1.90 at 2^13, where
#: the stiffness's batches raise the solve's tracemalloc peak 7.75 -> 9.43 MiB
BATCH_POINTS = 1 << 12


def gauss_panels(tiling, n_per_dir, batch_points=None):
    """Tensor Gauss rule per panel of a Tiling, in batches of whole columns.

    The tiling has C columns between its s-lines, each of the T panels
    between its t-lines. Yields, per run of consecutive columns, (s, t,
    weights) as arrays: s-nodes of shape (c, 1, n, 1), t-nodes of shape
    (1, T, 1, n) and weights of shape (c, T, n, n). A batch holds as many
    columns as fit in batch_points points, and at least one; None means
    BATCH_POINTS, read at each call. The broadcast (c, T, n, n) grid is
    panel-major and s-major within a panel, so its C-order flattening
    follows the tiling's s-major panel order. Weight [k, l, i, j] is w_i *
    w_j * hs_k * ht_l multiplied in that order, so per-panel fsums see the
    same terms however the columns are batched.
    """
    w = gauss_points_1d(n_per_dir)[1]
    ww = np.outer(w, w)
    s, hs = _gauss_nodes(tiling.s_lines, n_per_dir)
    t, ht = _gauss_nodes(tiling.t_lines, n_per_dir)
    if batch_points is None:
        batch_points = BATCH_POINTS
    step = max(1, batch_points // (ht.size * n_per_dir * n_per_dir))
    for k in range(0, hs.size, step):
        yield (s[k:k + step, None, :, None], t[None, :, None, :],
               (ww * hs[k:k + step, None, None, None]) * ht[None, :, None, None])


def integrate(region, f, n_per_dir, split_breakpoints=True):
    """Integral of f over the trimmed region in the physical measure.

    f maps a CompositeDerivatives bundle of one point to a number; the
    jacobian scale of the composite map multiplies the parametric Gauss
    weight. Panel sums are accumulated with fsum in a fixed order, so
    results do not depend on evaluation scheduling. Without
    split_breakpoints the rule is one Gauss panel over the whole square.
    """
    tiling = partition_regions(region) if split_breakpoints else Tiling([], [])
    sums = []
    for s, t, weights in gauss_panels(tiling, n_per_dir):
        panel = (-1, weights[0, 0].size)
        s, t = (a.reshape(panel) for a in np.broadcast_arrays(s, t))
        for sk, tk, wk in zip(s.tolist(), t.tolist(), weights.reshape(panel).tolist()):
            terms = []
            for si, ti, weight in zip(sk, tk, wk):
                cd = region.composite_eval(si, ti, order=1)
                terms.append(weight * f(cd) * cd.jacobian_scale)
            sums.append(math.fsum(terms))
    return math.fsum(sums)
