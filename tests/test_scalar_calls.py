"""Scalar calls: the rank probe, NaN parameters, and the numbers themselves.

A scalar query takes the evaluators' scalar branches, chosen by nurbs._rank.
These tests check that every scalar spelling of a point gives the same bits,
that NaN is rejected like any parameter outside [0, 1], and that a grid of
scalar calls on seeded benchmark regions still gives the recorded bits.
"""

import hashlib
import os
import sys

import numpy as np
import pytest

from trimiga.errors import DomainError
from trimiga.nurbs import KnotVector, _rank
from trimiga.shapes import plate_with_hole_region

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
from regions import generate_regions  # noqa: E402

FIELDS = ("uv", "duv_ds", "duv_dt", "x", "dx_ds", "dx_dt",
          "d2x_ds2", "d2x_dt2", "d2x_dsdt", "jacobian_scale")


def calls(region):
    """map_point and composite_eval at orders 0-2, as (s, t) -> bundle."""
    return [region.map_point] + [
        lambda s, t, order=order: region.composite_eval(s, t, order) for order in (0, 1, 2)
    ]


def fields(bundle):
    return [(name, getattr(bundle, name)) for name in FIELDS
            if getattr(bundle, name, None) is not None]


@pytest.mark.parametrize("value", [
    0.5, 3, True, np.float64(0.5), np.float32(0.5), np.array(0.5),
    np.array([0.5, 0.25]), [0.5, 0.25], (0.5,), np.zeros((2, 3)),
])
def test_rank_agrees_with_numpy(value):
    assert _rank(value) == np.ndim(value)


class TestNaNIsOutside:
    """NaN fails every comparison, so each range check must reject it."""

    def test_basis(self):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        with pytest.raises(DomainError, match="nan"):
            kv.basis(np.nan, 1)
        with pytest.raises(DomainError, match="nan"):
            kv.basis(np.array([0.2, np.nan, 0.7]), 1)

    def test_curve(self, arc_curve):
        with pytest.raises(DomainError):
            arc_curve.evaluate(np.nan, 1)
        with pytest.raises(DomainError):
            arc_curve.evaluate(np.array([0.5, np.nan]), 1)

    @pytest.mark.parametrize("s, t", [
        (np.nan, 0.5), (0.5, np.nan),
        (np.array([np.nan]), 0.5), (0.5, np.array([0.25, np.nan])),
        (np.array([[0.5], [np.nan]]), np.array([[0.0, 1.0]])),
    ])
    def test_map_point_and_composite_eval(self, plate_region, s, t):
        for call in calls(plate_region):
            with pytest.raises(DomainError, match="nan"):
                call(s, t)


def test_scalar_spellings_give_the_same_bits():
    """A Python float, np.float64, a 0-d and a length-1 array agree bitwise."""
    regions = [region for region, _ in generate_regions(0)[::8]]
    for region in regions + [plate_with_hole_region()]:
        for s, t in [(0.0, 0.0), (0.3, 0.6), (1.0, 0.25), (0.5, 1.0)]:
            for call in calls(region):
                ref = fields(call(s, t))
                spellings = [
                    fields(call(np.float64(s), np.float64(t))),
                    fields(call(np.array(s), np.array(t))),
                    [(name, value[0]) for name, value in
                     fields(call(np.array([s]), np.array([t])))],
                ]
                for got in spellings:
                    assert [name for name, _ in got] == [name for name, _ in ref]
                    for (name, a), (_, b) in zip(ref, got):
                        assert np.shape(a) == np.shape(b), name
                        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


def grid_digest(region):
    """sha256 prefix of every field of map_point and composite_eval(0-2) calls."""
    grid = (0.0, 0.137, 0.5, 0.731, 1.0)
    h = hashlib.sha256()
    for s in grid:
        for t in grid:
            for call in calls(region):
                for _, value in fields(call(s, t)):
                    h.update(np.asarray(value, dtype=float).tobytes())
    return h.hexdigest()[:16]


def matmul_digest():
    """sha256 prefix of numpy matmuls shaped like those of one evaluation.

    A BLAS build may round a short dot product differently (fused
    multiply-adds, another summation order); the grid digests below hold
    only where this digest matches the one recorded with them.
    """
    rng = np.random.default_rng(7)
    h = hashlib.sha256()
    for k in (1, 2, 3):
        for n in (2, 3, 4):
            for m in (3, 4, 8, 12):
                h.update((rng.random((k, n)) @ rng.random((n, m))).tobytes())
            h.update((rng.random((1, k, n)) @ rng.random((n, n, 4))).tobytes())
    return h.hexdigest()[:16]


#: grid_digest of regions 0, 6, ..., 42 of perfbench seed 1001, recorded
#: before the scalar branches' rank probes changed (numpy 2.4, OpenBLAS,
#: x86-64), with matmul_digest() there
RECORDED_MATMUL = "2893b4875dd1557f"
RECORDED_GRIDS = {
    0: "dd091a28704af7e4",
    6: "2b458198e9a330ca",
    12: "1352910bfd173739",
    18: "5e879bdd3769d536",
    24: "b82120b987a55cb2",
    30: "c718ac12edf9dad5",
    36: "8640e11b152b26e3",
    42: "5214ad53bec61125",
}


def test_scalar_grid_matches_the_recorded_bits():
    if matmul_digest() != RECORDED_MATMUL:
        pytest.skip("this BLAS rounds small matmuls unlike the recording machine")
    regions = generate_regions(1001)
    got = {k: grid_digest(regions[k][0]) for k in RECORDED_GRIDS}
    assert got == RECORDED_GRIDS
