"""Scalar calls: the rank probe, NaN parameters, and the numbers themselves.

A scalar query takes the evaluators' scalar branches, chosen by nurbs._rank.
These tests check that every scalar spelling of a point gives the same bits,
that NaN is rejected like any parameter outside [0, 1], that a scalar
query's bundle builds its own arrays when they are read, and that a grid of
scalar calls on seeded benchmark regions, and their areas by integrate,
still give the recorded bits.
"""

import dataclasses
import hashlib
import os
import sys

import numpy as np
import pytest

from trimiga.errors import DomainError
from trimiga.nurbs import CurveDerivatives, KnotVector, _rank, _unpack
from trimiga.plate import PlateConfig
from trimiga.quadrature import gauss_panels, gauss_points_1d, integrate, partition_regions
from trimiga.shapes import plate_with_hole_region

from conftest import DirectGeometry

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


@pytest.mark.parametrize("shape, axes", [
    ((7, 2), 1),            # a curve field over a batch
    ((4, 3, 3), 2),         # a curve's homogeneous derivative table
    ((2, 5, 3, 3, 4), 3),   # a surface's partials over a grid
    ((3, 4, 5, 5, 3), 1),   # a (c, T, n, n) panel grid of 3-vectors
    ((0, 2), 1),            # an empty (0,) batch
    ((0, 3, 3, 4), 3),
])
def test_batch_unpack_and_pack_match_moveaxis_and_stack_bitwise(shape, axes):
    a = np.random.default_rng(11).standard_normal(shape)
    got = _unpack(a, 1, axes)
    want = np.moveaxis(a, range(-axes, 0), range(axes))
    assert got.shape == want.shape and got.strides == want.strides
    assert got.base is a  # a view, not a copy
    assert got.tobytes() == want.tobytes()
    # the last unpacked axis's components, kept by a bundle as they are and
    # packed on the field's first read
    components = list(_unpack(a, 1, 1))
    assert _unpack(components, 1) is components
    bundle = CurveDerivatives(components)
    assert bundle._value is components
    packed = bundle.value
    stacked = np.stack(components, axis=-1)
    assert packed.shape == stacked.shape == a.shape and packed.dtype == stacked.dtype
    assert packed.tobytes() == stacked.tobytes() == a.tobytes()
    assert bundle.value is packed and bundle._value is packed


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


class TestDerivativeOrder:
    """An order is an integer 0, 1 or 2; a float one is rejected, not used."""

    @pytest.mark.parametrize("order", [1.0, 1.5, 2.0, 0.0])
    def test_a_float_order_raises_domain_error(self, plate_region, order):
        calls = [
            lambda: KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2).basis(0.3, order),
            lambda: plate_region.surface.evaluate(0.3, 0.7, order),
            lambda: plate_region.curve_bottom.evaluate(0.3, order),
            lambda: plate_region.composite_eval(0.3, 0.7, order=order),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="derivative order"):
                call()

    def test_a_float_order_after_an_equal_int_one_raises(self, plate_region):
        # the trimming curve's last-query memo must not answer it
        curve = plate_region.curve_bottom
        curve.evaluate(0.3, 1)
        with pytest.raises(DomainError, match="derivative order"):
            curve.evaluate(0.3, 1.0)

    def test_a_numpy_integer_order_is_accepted(self, plate_region):
        kv = KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2)
        for order in (np.int64(1), np.int32(2)):
            assert kv.basis(0.3, order)[1].tobytes() == kv.basis(0.3, int(order))[1].tobytes()
            got = plate_region.composite_eval(0.3, 0.7, order=order)
            want = plate_region.composite_eval(0.3, 0.7, order=int(order))
            for (name, a), (_, b) in zip(fields(got), fields(want)):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@pytest.mark.parametrize("call, name", [
    (lambda region: PlateConfig(stage=1.5), "refinement stage"),
    (lambda region: PlateConfig(degree=2.0), "degree"),
    (lambda region: PlateConfig(quad_order=3.0), "quad_order"),
    (lambda region: integrate(region, lambda cd: 1.0, 4.0), "quadrature order"),
    # an equal numpy integer in the rule's cache does not answer a float
    (lambda region: gauss_points_1d(np.int64(5)) and gauss_points_1d(5.0), "quadrature order"),
    (lambda region: region.validate(8.0), "grid_n"),
    (lambda region: region.composite_eval(0.3, 0.7, 1.0), "derivative order"),
], ids=["stage", "degree", "quad-order", "integrate", "cached-rule", "validate", "order"])
def test_a_float_for_an_integer_argument_raises_domain_error(plate_region, call, name):
    """Every integer argument is checked by one rule, nurbs._check_int."""
    with pytest.raises(DomainError, match=f"^{name}.* must be an integer, got "):
        call(plate_region)


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


@pytest.mark.parametrize("s, t", [(0.3, np.array([0.0, 0.6, 1.0])),
                                  (np.array([0.0, 0.3, 1.0]), 0.6)])
def test_a_float_with_an_array_matches_the_broadcast_batch(plate_region, s, t):
    """A Python float beside an array gives the bits of the broadcast batch;
    the curves then run a scalar query, and duv_dt keeps s's shape."""
    for call in calls(plate_region):
        got = fields(call(s, t))
        want = fields(call(*np.broadcast_arrays(s, t)))
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, a), (_, b) in zip(got, want):
            if name == "duv_dt" and np.ndim(s) == 0:
                b = b[0]
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


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


#: sha256 prefix of the areas integrate(region, lambda cd: 1.0, 16) of
#: regions 0, 3, ..., 45 of perfbench seed 1001, as float64 bytes in that
#: order, recorded before the trimming curves' scalar queries were memoized,
#: with RECORDED_MATMUL there
RECORDED_AREAS = "bf7295e12cd04720"


def test_integrate_matches_the_recorded_bits():
    if matmul_digest() != RECORDED_MATMUL:
        pytest.skip("this BLAS rounds small matmuls unlike the recording machine")
    h = hashlib.sha256()
    for region, _ in generate_regions(1001)[::3]:
        h.update(np.float64(integrate(region, lambda cd: 1.0, 16)).tobytes())
    assert h.hexdigest()[:16] == RECORDED_AREAS


#: each bundle type's field names, and a query at (s, t) that returns one
#: with every field present
BUNDLES = [
    (("value", "d1", "d2"),
     lambda region, s, t: region.curve_bottom.evaluate(s, 2)),
    (("value", "du", "dv", "duu", "duv", "dvv"),
     lambda region, s, t: region.surface.evaluate(s, t, 2)),
    (("uv", "duv_ds", "duv_dt"),
     lambda region, s, t: region.map_point(s, t)),
    (("x", "dx_ds", "dx_dt", "d2x_ds2", "d2x_dt2", "d2x_dsdt", "jacobian_scale"),
     lambda region, s, t: region.composite_eval(s, t, 2)),
]


def array_fields(bundle):
    """The names of the bundle's array fields: all but jacobian_scale."""
    return [f.name for f in dataclasses.fields(bundle) if f.name != "jacobian_scale"]


@pytest.mark.parametrize("names, query", BUNDLES, ids=["curve", "surface", "map", "composite"])
def test_a_scalar_bundle_is_a_dataclass_of_its_own_arrays(plate_region, names, query):
    """A scalar query's fields become arrays when read, each bundle its own.

    The second query at the same s is answered by the trimming curves'
    last-query memo, so both bundles are built from one memo entry.
    """
    want = query(plate_region, np.array([0.3]), np.array([0.7]))  # a batch of one
    first = query(plate_region, 0.3, 0.7)
    second = query(plate_region, 0.3, 0.7)
    assert tuple(f.name for f in dataclasses.fields(first)) == names
    for name in array_fields(first):
        a = getattr(first, name)
        assert getattr(first, name) is a and a.flags.writeable, name
        b = getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape[1:], b.dtype, b[0].tobytes()), name
        a[...] = 7.0
    for later in (second, query(plate_region, 0.3, 0.7)):
        for name in array_fields(later):
            assert getattr(later, name).tobytes() == getattr(want, name)[0].tobytes(), name
    name = names[1]
    replaced = dataclasses.replace(second, **{name: np.full(2, 9.0)})
    assert type(replaced) is type(second) and getattr(replaced, name).tolist() == [9.0, 9.0]
    for other in array_fields(second):
        if other != name:
            assert getattr(replaced, other).tobytes() == getattr(second, other).tobytes()
    assert repr(second).startswith(f"{type(second).__name__}({names[0]}=array(")


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "gauss_panels batch"])
def test_reading_only_the_jacobian_scale_builds_no_field_array(plate_region, batch):
    s, t = next(gauss_panels(partition_regions(plate_region), 3))[:2] if batch else (0.3, 0.7)
    cd = plate_region.composite_eval(s, t, 1)
    assert np.all(cd.jacobian_scale > 0.0)
    assert [type(a) for a in (cd._x, cd._dx_ds, cd._dx_dt)] == [list] * 3
    x = cd.x
    assert cd._x is x and type(x) is np.ndarray
    assert x.shape == np.shape(cd.jacobian_scale) + (3,)


@pytest.mark.parametrize("s, t", [(0.0, 0.0), (0.3, 0.7), (1.0, 0.25)])
def test_a_direct_geometry_answers_with_the_surface_bits(curved_surface, s, t):
    """A scalar and a batch-of-one query give the surface's own bits."""
    geometry = DirectGeometry(curved_surface)
    sd = curved_surface.evaluate(s, t, 1)
    one = geometry.composite_eval(s, t, 1)
    batch = geometry.composite_eval(np.array([s]), np.array([t]), 1)
    for name, want in (("x", sd.value), ("dx_ds", sd.du), ("dx_dt", sd.dv)):
        assert getattr(one, name).tobytes() == getattr(batch, name)[0].tobytes() == want.tobytes()
    assert type(one.jacobian_scale) is float
    assert np.float64(one.jacobian_scale).tobytes() == batch.jacobian_scale[0].tobytes()
