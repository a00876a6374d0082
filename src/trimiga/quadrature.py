"""Gauss-Legendre quadrature over the (s, t) unit square.

Every integral, the area of `integrate` as well as the plate's stiffness,
error norm and edge tractions, runs on the one tiling of partition_regions:
the square is split at the geometry's break lines (the interior knots of
the trimming curves in s, the surface's knots for a direct geometry) and
at the field space's interior knot lines, so that each Gauss panel sees a
smooth integrand. The blend is linear in t, so trimming curves never force
t-splits.

Interior knots of a trimmed surface are not tracked: the blend bends their
(u, v) knot lines into curves that no (s, t)-aligned split can follow, so a
multi-span surface caps the attainable quadrature accuracy at its reduced
smoothness. Single-span surfaces (the usual trimming scenario) are immune.
"""

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import DomainError
from .nurbs import MERGE_TOL, merge_close


def gauss_points_1d(n):
    """Gauss-Legendre abscissae and weights on [0, 1]; exact to degree 2n-1."""
    if not 1 <= n <= 64:
        raise DomainError(f"quadrature order must be within 1..64, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class IntegrationRegion:
    """Axis-aligned rectangle in the (s, t) square."""

    s0: float
    s1: float
    t0: float
    t1: float

    @property
    def area(self):
        return (self.s1 - self.s0) * (self.t1 - self.t0)


def unit_lines(breaks):
    """Merged break lines of [0, 1], from exactly 0.0 to exactly 1.0.

    Breaks within MERGE_TOL of an end are dropped rather than moving it.
    """
    inner = sorted(b for b in breaks if MERGE_TOL < b < 1.0 - MERGE_TOL)
    return [0.0] + merge_close(inner)[0] + [1.0]


def partition_regions(geometry, field=None, split_breakpoints=True):
    """Integration regions for a geometry and an optional field space.

    Boundaries align with the union of the geometry's break lines
    (geometry.breaklines(), skipped when split_breakpoints is false) and
    the field space's interior knot lines; coincident lines are merged.
    The list is s-major: one column of t-tiles per s-tile.
    """
    s_breaks, t_breaks = geometry.breaklines() if split_breakpoints else ([], [])
    if field is not None:
        s_breaks = s_breaks + field.knot_vector_s.interior()[0]
        t_breaks = t_breaks + field.knot_vector_t.interior()[0]
    s_lines, t_lines = unit_lines(s_breaks), unit_lines(t_breaks)
    return [
        IntegrationRegion(s0, s1, t0, t1)
        for s0, s1 in zip(s_lines[:-1], s_lines[1:])
        for t0, t1 in zip(t_lines[:-1], t_lines[1:])
    ]


#: the most Gauss points gauss_panels puts in one batch of whole columns;
#: smaller batches keep the plate solve's peak memory down, and from 2^11 to
#: 2^15 points the stage-3 solve time does not depend on the size
BATCH_POINTS = 1 << 12


def gauss_panels(regions, n_per_dir):
    """Tensor Gauss rule per integration region, in batches of whole columns.

    regions must be a tensor-product tiling in s-major order, such as
    partition_regions': C s-tiles, each a column of the same T t-tiles.
    Yields, per run of consecutive columns, (s, t, weights) as arrays:
    s-nodes of shape (c, 1, n, 1), t-nodes of shape (1, T, 1, n) and weights
    of shape (c, T, n, n). A batch holds as many columns as fit in
    BATCH_POINTS points, and at least one. The broadcast (c, T, n, n) grid
    is panel-major and s-major within a panel, so its C-order flattening
    follows the regions' order. Weight [k, l, i, j] is w_i * w_j * hs_k *
    ht_l multiplied in that order, so per-panel fsums see the same terms
    however the columns are batched.
    """
    columns = [list(col) for _, col in groupby(regions, key=lambda r: (r.s0, r.s1))]
    tiles = [(r.t0, r.t1) for r in columns[0]]
    if any([(r.t0, r.t1) for r in col] != tiles for col in columns):
        raise DomainError("gauss_panels needs a tensor-product tiling")
    x, w = gauss_points_1d(n_per_dir)
    ww = np.outer(w, w)
    s0 = np.array([col[0].s0 for col in columns])
    hs = np.array([col[0].s1 - col[0].s0 for col in columns])
    t0, t1 = np.array(tiles).T
    ht = t1 - t0
    t = (t0[:, None] + ht[:, None] * x)[None, :, None, :]
    step = max(1, BATCH_POINTS // (len(tiles) * n_per_dir * n_per_dir))
    for k in range(0, len(columns), step):
        c0, c1 = s0[k:k + step, None], hs[k:k + step, None]
        s = (c0 + c1 * x)[:, None, :, None]
        yield s, t, (ww * c1[:, :, None, None]) * ht[None, :, None, None]


def integrate(region, f, n_per_dir, split_breakpoints=True):
    """Integral of f over the trimmed region in the physical measure.

    f maps a CompositeDerivatives bundle of one point to a number; the
    jacobian scale of the composite map multiplies the parametric Gauss
    weight. Region sums are accumulated with fsum in a fixed order, so
    results do not depend on evaluation scheduling.
    """
    regions = partition_regions(region, split_breakpoints=split_breakpoints)
    sums = []
    for s, t, weights in gauss_panels(regions, n_per_dir):
        panel = (-1, weights[0, 0].size)
        s, t = (a.reshape(panel) for a in np.broadcast_arrays(s, t))
        for sk, tk, wk in zip(s, t, weights.reshape(panel)):
            terms = []
            for si, ti, weight in zip(sk.tolist(), tk.tolist(), wk.tolist()):
                cd = region.composite_eval(si, ti, order=1)
                terms.append(weight * f(cd) * cd.jacobian_scale)
            sums.append(math.fsum(terms))
    return math.fsum(sums)
