import numpy as np
import pytest

from trimiga import native
from trimiga.errors import InvalidGeometryError, NativeFormatError, TrimigaError
from trimiga.nurbs import NurbsCurve, NurbsSurface
from trimiga.shapes import plate_with_hole_region

PASTED_LISTING = """
# plate region as printed in a CAD listing
surface
Order: 1
Knot vector: 0 0 1 1
Coefficients (x,y,z,weight):
0 0 0 1
0 1 0 1
1 0 0 1
1 1 0 1

curve
Order: 2
Knot vector: 0 0 0 1 1 1
Coefficients:
0 0.2 0 1
0.2 0.2 0 0.707
0.2 0 0 1

curve
Order: 1
Knot vector: 0 0 0.5 1 1
Coefficients:
0 1 0 1
1 1 0 1
1 0 0 1
"""


def test_pasted_listing_parses_to_the_plate_region():
    region = native.parse_region(PASTED_LISTING)
    assert np.allclose(region.map_point(0, 0).uv, [0.0, 0.2])
    assert np.allclose(region.map_point(1, 1).uv, [1.0, 0.0])
    assert np.allclose(region.surface.evaluate(0.3, 0.7).value, [0.3, 0.7, 0.0])
    assert region.curve_bottom.weights[1] == 0.707


def test_round_trip_is_lossless(plate_region, rng):
    text = native.format_region(plate_region)
    back = native.parse_region(text)
    for s, t in rng.random((20, 2)):
        a = plate_region.composite_eval(s, t).x
        b = back.composite_eval(s, t).x
        assert np.abs(a - b).max() == 0.0


def test_save_and_load(tmp_path, plate_region):
    path = tmp_path / "plate.trim"
    native.save_region(plate_region, path, comment="round trip")
    region = native.load_region(path)
    assert np.allclose(region.map_point(0.5, 0.5).uv, plate_region.map_point(0.5, 0.5).uv)


def test_entities_parse_in_order():
    entities = native.parse_entities(PASTED_LISTING)
    assert isinstance(entities[0], NurbsSurface)
    assert isinstance(entities[1], NurbsCurve)
    assert len(entities) == 3


def test_curve_accepts_three_column_points():
    text = "curve\ndegree: 1\nknots: 0 0 1 1\n0 0 1\n1 0.5 1\n"
    (curve,) = native.parse_entities(text)
    assert curve.dim == 2
    assert np.allclose(curve.evaluate(1.0, 0).value, [1.0, 0.5])


def test_missing_header_is_an_error():
    with pytest.raises(NativeFormatError):
        native.parse_entities("degree: 1\nknots: 0 0 1 1\n0 0 1\n1 1 1\n")


def test_wrong_point_count_is_an_error():
    text = "surface\ndegree: 1\nknots: 0 0 1 1\n0 0 0 1\n0 1 0 1\n1 0 0 1\n"
    with pytest.raises(NativeFormatError):
        native.parse_entities(text)


def test_mixed_point_widths_are_an_error():
    text = "curve\ndegree: 1\nknots: 0 0 1 1\n0 0 1\n1 1 0 1\n"
    with pytest.raises(NativeFormatError):
        native.parse_entities(text)


def test_bad_weight_is_a_geometry_error():
    text = "curve\ndegree: 1\nknots: 0 0 1 1\n0 0 0\n1 1 1\n"
    with pytest.raises(InvalidGeometryError):
        native.parse_entities(text)


def test_unknown_key_is_an_error():
    text = "curve\ndegree: 1\nknots: 0 0 1 1\nwibble: 3\n0 0 1\n1 1 1\n"
    with pytest.raises(NativeFormatError):
        native.parse_entities(text)


def test_region_needs_three_entities():
    with pytest.raises(NativeFormatError):
        native.parse_region("curve\ndegree: 1\nknots: 0 0 1 1\n0 0 1\n1 1 1\n")


def test_separate_knot_lines_for_surfaces():
    text = (
        "surface\ndegree: 1 2\nknots u: 0 0 1 1\nknots v: 0 0 0 1 1 1\n"
        + "\n".join("0 0 0 1" for _ in range(6))
    )
    (srf,) = native.parse_entities(text)
    assert srf.degrees == (1, 2)
    assert srf.weights.shape == (2, 3)


def _one_fault_mutants(text):
    """text with one token replaced by a bad one, or one line dropped or doubled."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        tokens = line.split()
        for k in range(len(tokens)):
            for bad in ("nan", "inf", "1e400", "-1", "1.5", "x", ""):
                changed = " ".join(tokens[:k] + [bad] + tokens[k + 1:])
                yield lines[:i] + [changed] + lines[i + 1:]
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]


def test_one_fault_mutants_parse_or_raise_a_trimiga_error(plate_region, square_region):
    count = 0
    for region in (plate_region, square_region):
        for lines in _one_fault_mutants(native.format_region(region)):
            count += 1
            try:
                native.parse_region("\n".join(lines) + "\n")
            except TrimigaError:
                pass
    assert count == 1321


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
def test_non_finite_degree_is_a_format_error(bad):
    text = f"curve\ndegree: {bad}\nknots: 0 0 1 1\n0 0 1\n1 1 1\n"
    with pytest.raises(NativeFormatError, match="line 2: bad degree line"):
        native.parse_entities(text)


@pytest.mark.parametrize("point, message", [
    ("1e300 1 0 1", "squared control net size"),  # finite net, size**2 overflows
    ("5 5 0 1e308", "weighted control points"),  # x * w overflows
    ("1e300 0 1e10", "weighted control points"),  # a trimming curve's x * w overflows
])
def test_a_control_net_that_overflows_is_rejected(plate_region, point, message):
    # pytest makes warnings errors, so numpy's overflow warnings would fail this too;
    # a four-number row replaces a surface row, a three-number one a curve row
    row = "\n1 1 0 1\n" if len(point.split()) == 4 else "\n1 0 1\n"
    text = native.format_region(plate_region)
    assert text.count(row) == 1
    with pytest.raises(InvalidGeometryError, match=message):
        native.parse_region(text.replace(row, f"\n{point}\n"))


def _blocks(*kinds):
    """A region file's text with its entities in the given order."""
    region = plate_with_hole_region()
    blocks = {"surface": native.format_surface(region.surface),
              "curve": native.format_curve(region.curve_bottom)}
    return "".join(blocks[kind] for kind in kinds)


@pytest.mark.parametrize("text, message", [
    ("# a comment and no entity\n", "no geometry entities found"),
    (_blocks("curve", "surface", "curve"), "first entity of a region file must be a surface"),
    (_blocks("surface", "surface", "curve"), "second and third entities must be curves"),
    (_blocks("surface", "curve", "surface"), "second and third entities must be curves"),
])
def test_a_region_file_without_a_surface_and_two_curves_is_rejected(text, message):
    with pytest.raises(NativeFormatError, match=message):
        native.parse_region(text)
