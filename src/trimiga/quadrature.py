"""Gauss-Legendre quadrature over the (s, t) unit square.

Every integral, the area of `integrate` as well as the plate's stiffness,
error norm and edge tractions, runs on the one Tiling of partition_regions:
a set of s-lines and a set of t-lines, at the geometry's break lines (the
interior knots of the trimming curves in s, the surface's knots for a
direct geometry) and at the field space's interior knot lines, so that each
Gauss panel between neighbouring lines sees a smooth integrand. The blend
is linear in t, so trimming curves never force t-lines.

Interior knots of a trimmed surface are not tracked: the blend bends their
(u, v) knot lines into curves that no (s, t)-aligned split can follow, so a
multi-span surface caps the attainable quadrature accuracy at its reduced
smoothness. Single-span surfaces (the usual trimming scenario) are immune.

`integrate` still evaluates the composite map one point per call, while
the plate's integrals take a batch of panels per call. The benchmark's
tracer test (perfbench/test_generator.py) counts one composite_eval call
per quadrature point, so batching `integrate` waits for a revision of that
test; ROADMAP.md, "Batch quadrature.integrate by column", has the plan.
"""

import math

import numpy as np

from .errors import DomainError
from .nurbs import MERGE_TOL, merge_close


def gauss_points_1d(n):
    """Gauss-Legendre abscissae and weights on [0, 1]; exact to degree 2n-1."""
    if not 1 <= n <= 64:
        raise DomainError(f"quadrature order must be within 1..64, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


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


def partition_regions(geometry, field=None, split_breakpoints=True):
    """The Tiling for a geometry and an optional field space.

    Its lines are the union of the geometry's break lines (geometry.
    breaklines(), skipped when split_breakpoints is false) and the field
    space's interior knot lines; coincident lines are merged.
    """
    s_breaks, t_breaks = geometry.breaklines() if split_breakpoints else ([], [])
    if field is not None:
        s_breaks = s_breaks + field.knot_vector_s.interior()[0]
        t_breaks = t_breaks + field.knot_vector_t.interior()[0]
    return Tiling(s_breaks, t_breaks)


#: the most Gauss points gauss_panels puts in one batch of whole columns;
#: smaller batches keep the plate solve's peak memory down, and from 2^11 to
#: 2^15 points the stage-3 solve time does not depend on the size
BATCH_POINTS = 1 << 12


def gauss_panels(tiling, n_per_dir):
    """Tensor Gauss rule per panel of a Tiling, in batches of whole columns.

    The tiling has C columns between its s-lines, each of the T panels
    between its t-lines. Yields, per run of consecutive columns, (s, t,
    weights) as arrays: s-nodes of shape (c, 1, n, 1), t-nodes of shape
    (1, T, 1, n) and weights of shape (c, T, n, n). A batch holds as many
    columns as fit in BATCH_POINTS points, and at least one. The broadcast
    (c, T, n, n) grid is panel-major and s-major within a panel, so its
    C-order flattening follows the tiling's s-major panel order. Weight
    [k, l, i, j] is w_i * w_j * hs_k * ht_l multiplied in that order, so
    per-panel fsums see the same terms however the columns are batched.
    """
    x, w = gauss_points_1d(n_per_dir)
    ww = np.outer(w, w)
    s0, hs = tiling.s_lines[:-1], np.diff(tiling.s_lines)
    t0, ht = tiling.t_lines[:-1], np.diff(tiling.t_lines)
    t = (t0[:, None] + ht[:, None] * x)[None, :, None, :]
    step = max(1, BATCH_POINTS // (t0.size * n_per_dir * n_per_dir))
    for k in range(0, s0.size, step):
        c0, c1 = s0[k:k + step, None], hs[k:k + step, None]
        s = (c0 + c1 * x)[:, None, :, None]
        yield s, t, (ww * c1[:, :, None, None]) * ht[None, :, None, None]


def integrate(region, f, n_per_dir, split_breakpoints=True):
    """Integral of f over the trimmed region in the physical measure.

    f maps a CompositeDerivatives bundle of one point to a number; the
    jacobian scale of the composite map multiplies the parametric Gauss
    weight. Panel sums are accumulated with fsum in a fixed order, so
    results do not depend on evaluation scheduling.
    """
    tiling = partition_regions(region, split_breakpoints=split_breakpoints)
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
