"""Gauss-Legendre quadrature over the (s, t) unit square.

Rules are assembled per rectangular integration region. Regions are split
at every interior knot of the trimming curves (in s) and of the field space
(in s and t) so that each Gauss panel sees a smooth integrand; the blend is
linear in t, so trimming curves never force t-splits.

Interior knots of the surface itself are not tracked: the blend bends their
(u, v) knot lines into curves that no (s, t)-aligned split can follow, so a
multi-span surface caps the attainable quadrature accuracy at its reduced
smoothness. Single-span surfaces (the usual trimming scenario) are immune.
"""

import math
from dataclasses import dataclass

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


def partition_lines(s_breaks=(), t_breaks=()):
    """Tile the unit square by the given interior break lines."""
    s_lines = unit_lines(s_breaks)
    t_lines = unit_lines(t_breaks)
    regions = []
    for i in range(len(s_lines) - 1):
        for j in range(len(t_lines) - 1):
            regions.append(
                IntegrationRegion(s_lines[i], s_lines[i + 1], t_lines[j], t_lines[j + 1])
            )
    return regions


def partition_regions(region, field=None, split_breakpoints=True):
    """Integration regions for a trimmed region and an optional field space.

    Boundaries align with the union of the trimming-curve breakpoints and
    the field-space interior knot lines; coincident lines are deduplicated.
    """
    s_breaks = [bp.s for bp in region.breakpoints()] if split_breakpoints else []
    t_breaks = []
    if field is not None:
        s_breaks = s_breaks + list(field.knot_vector_s.interior()[0])
        t_breaks = list(field.knot_vector_t.interior()[0])
    return partition_lines(s_breaks, t_breaks)


def gauss_panels(regions, n_per_dir):
    """Tensor Gauss rule per integration region, one panel at a time.

    Yields, for each region, the list of (s, t, weight) triples as plain
    floats: s-major, t-minor, weight w_i * w_j * hs * ht multiplied in
    that order, so per-panel fsums see the same terms in the same order.
    """
    x, w = gauss_points_1d(n_per_dir)
    x, w = x.tolist(), w.tolist()
    for r in regions:
        hs = r.s1 - r.s0
        ht = r.t1 - r.t0
        yield [
            (r.s0 + hs * xi, r.t0 + ht * xj, wi * wj * hs * ht)
            for xi, wi in zip(x, w)
            for xj, wj in zip(x, w)
        ]


def integrate(region, f, n_per_dir, field=None, split_breakpoints=True):
    """Integral of f over the trimmed region in the physical measure.

    f maps a CompositeDerivatives bundle to a number; the jacobian scale of
    the composite map multiplies the parametric Gauss weight. Region sums
    are accumulated with fsum in a fixed order, so results do not depend on
    evaluation scheduling.
    """
    regions = partition_regions(region, field, split_breakpoints)
    sums = []
    for panel in gauss_panels(regions, n_per_dir):
        terms = []
        for s, t, weight in panel:
            cd = region.composite_eval(s, t, order=1)
            terms.append(weight * f(cd) * cd.jacobian_scale)
        sums.append(math.fsum(terms))
    return math.fsum(sums)
