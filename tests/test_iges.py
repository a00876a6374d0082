import re
import warnings
from collections import Counter

import numpy as np
import pytest

from trimiga import iges
from trimiga.cli import main as cli_main
from trimiga.errors import (IgesParseError, InvalidGeometryError, TrimigaError,
                            UnsupportedTopologyError)
from trimiga.nurbs import KnotVector, NurbsCurve
from trimiga.shapes import (
    hole_arc_curve,
    outer_polyline_curve,
    plate_with_hole_region,
    unit_square_surface,
)


def segment3(p0, p1):
    kv = KnotVector([0, 0, 1, 1], 1)
    return NurbsCurve(kv, [list(p0) + [0.0], list(p1) + [0.0]])


def loop_file(curves, surface=None):
    """IGES text with a 128 + a 102 loop of 126s wired through 142/144."""
    w = iges._Writer()
    srf_de = w.add(128, iges._surface_params(surface or unit_square_surface()))
    curve_des = [
        w.add(126, iges._curve_params(c), status="00010500") for c in curves
    ]
    comp_de = w.add(
        102, [str(len(curve_des))] + [str(d) for d in curve_des], status="00010500"
    )
    cos_de = w.add(142, ["1", str(srf_de), str(comp_de), "0", "1"], status="00010500")
    w.add(144, [str(srf_de), "1", "0", str(cos_de)])
    return w.render()


# region_to_iges's plate: 128 at D1, 126s at D3 and D5, 102 at D7, 142 at D9,
# 144 at D11; P lines 1-9 are file lines 17-25
PLATE_IGES = iges.region_to_iges(plate_with_hole_region())


def plate_iges_with(old, new, text=PLATE_IGES):
    """text with the one line holding old changed to hold new, columns kept."""
    assert text.count(old) == 1, old
    if len(old) == len(new):
        return text.replace(old, new)
    lines = text.splitlines()
    (i,) = [k for k, line in enumerate(lines) if old in line]
    width = 64 if lines[i][72] == "P" else 72  # the columns that hold data
    data = lines[i][:width].rstrip().replace(old, new).ljust(width)
    assert len(data) == width
    lines[i] = data + lines[i][width:]
    return "\n".join(lines) + "\n"


def region_arrays(region):
    surface = region.surface
    arrays = [surface.knot_vector_u.knots, surface.knot_vector_v.knots,
              surface.control_net, surface.weights]
    for curve in (region.curve_bottom, region.curve_top):
        arrays += [curve.knot_vector.knots, curve.control_points, curve.weights]
    return arrays


def assert_same_region(text):
    expected = region_arrays(iges.extract_region(iges.parse(PLATE_IGES)))
    got = region_arrays(iges.extract_region(iges.parse(text)))
    assert all(np.array_equal(a, b) for a, b in zip(got, expected, strict=True))


_CURVE_D5 = "126,2,1,1,0,0,0,0,0,0.5,1,1,1,1,1,0,1,0,1,1,0,1,0,0,0,1,0,0,1;"
_TYPE_143_AT_D9 = ("     142       0       0       1", "     143       0       0       1")


class TestRoundTrip:
    def test_region_export_parse_extract(self, plate_region, rng):
        model = iges.parse(iges.region_to_iges(plate_region))
        assert len(model.surfaces) == 1
        assert len(model.curves) == 2
        assert len(model.trimmed) == 1
        assert model.skipped == {}
        back = iges.extract_region(model)
        for _ in range(100):
            s, t = rng.random(2)
            assert np.abs(
                back.composite_eval(s, t).x - plate_region.composite_eval(s, t).x
            ).max() < 1e-9
        for a, b in [
            (back.curve_bottom, plate_region.curve_bottom),
            (back.curve_top, plate_region.curve_top),
        ]:
            for s in rng.random(25):
                assert np.abs(
                    a.evaluate(s, 0).value - b.evaluate(s, 0).value
                ).max() < 1e-9

    def test_extracted_trim_curves_stay_in_unit_square(self, plate_region):
        model = iges.parse(iges.region_to_iges(plate_region))
        region = iges.extract_region(model)
        for curve in (region.curve_bottom, region.curve_top):
            pts = curve.control_points
            assert np.all(pts >= -1e-9) and np.all(pts <= 1 + 1e-9)

    def test_the_terminate_record_counts_each_section(self, plate_region):
        lines = iges.region_to_iges(plate_region).splitlines()
        counts = Counter(line[72] for line in lines)
        assert counts["T"] == 1
        assert lines[-1][:32] == "S{:>7}G{:>7}D{:>7}P{:>7}".format(*(counts[k] for k in "SGDP"))

    def test_file_round_trip(self, tmp_path, plate_region):
        path = tmp_path / "plate.igs"
        path.write_text(iges.region_to_iges(plate_region), encoding="utf-8")
        model = iges.parse_file(path)
        assert len(model.trimmed) == 1

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_non_ascii_start_section_keeps_the_columns(self, tmp_path, plate_region, encoding):
        # records are 80 bytes: a two-byte UTF-8 character must not shift column 73
        lines = iges.region_to_iges(plate_region).encode("ascii").splitlines()
        lines[0] = "Jürgen Müller".encode(encoding).ljust(72) + lines[0][72:]
        path = tmp_path / f"{encoding}.igs"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert len(iges.parse_file(path).trimmed) == 1

    def test_two_trimmed_surfaces_in_one_file(
        self, plate_region, square_region, rng
    ):
        w = iges._Writer()
        for region in (plate_region, square_region):
            srf_de = w.add(128, iges._surface_params(region.surface))
            curve_des = [
                w.add(126, iges._curve_params(c), status="00010500")
                for c in (region.curve_bottom, region.curve_top)
            ]
            comp_de = w.add(
                102, ["2"] + [str(d) for d in curve_des], status="00010500"
            )
            cos_de = w.add(
                142, ["1", str(srf_de), str(comp_de), "0", "1"], status="00010500"
            )
            w.add(144, [str(srf_de), "1", "0", str(cos_de)])
        model = iges.parse(w.render())
        assert len(model.trimmed) == 2
        first = iges.extract_region(model, 0)
        second = iges.extract_region(model, 1)
        for _ in range(20):
            s, t = rng.random(2)
            assert np.abs(
                first.composite_eval(s, t).x - plate_region.composite_eval(s, t).x
            ).max() < 1e-9
            assert np.abs(
                second.composite_eval(s, t).x - square_region.composite_eval(s, t).x
            ).max() < 1e-9


class TestSingleEntities:
    def test_single_curve_file(self):
        w = iges._Writer()
        w.add(126, iges._curve_params(hole_arc_curve()))
        model = iges.parse(w.render())
        assert len(model.curves) == 1
        assert model.trimmed == []
        (curve,) = model.curves.values()
        assert np.allclose(curve.weights, [1.0, 0.707, 1.0])

    def test_surface_of_degree_0_in_v(self):
        # K2 = M2 = 0: one row of control points, two v knots; M2 = -1 is no degree
        params = "128,1,0,1,{},0,0,0,0,0,0,0,1,1,0,1,1,1,0,0,0,1,0,0,0,1,0,1;"
        surface = iges.parse(_single_entity_file(128, params.format(0))).surfaces[1]
        assert surface.degrees == (1, 0)
        assert np.array_equal(surface.evaluate(0.25, 0.5, 0).value, [0.25, 0.0, 0.0])
        with pytest.raises(IgesParseError, match="invalid indices K1=1, K2=0, M1=1, M2=-1"):
            iges.parse(_single_entity_file(128, params.format(-1)))

    def test_skipped_entities_are_counted(self, plate_region):
        w = iges._Writer()
        w.add(128, iges._surface_params(plate_region.surface))
        w.add(110, ["0", "0", "0", "1", "1", "0"])  # a line entity we do not support
        model = iges.parse(w.render())
        assert model.skipped == {110: 1}


class TestPointers:
    def test_dangling_boundary_pointer(self):
        w = iges._Writer()
        srf_de = w.add(128, iges._surface_params(unit_square_surface()))
        w.add(144, [str(srf_de), "1", "0", "99"])
        with pytest.raises(IgesParseError) as err:
            iges.parse(w.render())
        assert "99" in str(err.value)

    def test_dangling_surface_pointer(self):
        w = iges._Writer()
        cos_de = w.add(142, ["1", "77", "77", "0", "1"])
        w.add(144, ["77", "1", "0", str(cos_de)])
        with pytest.raises(IgesParseError) as err:
            iges.parse(w.render())
        assert "77" in str(err.value)


class TestExtraction:
    def test_four_curve_loop_drops_straight_edges(self, plate_region, rng):
        bottom, top = hole_arc_curve(), outer_polyline_curve()
        loop = [
            bottom,
            segment3(bottom.evaluate(1, 0).value, top.evaluate(1, 0).value),
            top.reversed(),
            segment3(top.evaluate(0, 0).value, bottom.evaluate(0, 0).value),
        ]
        model = iges.parse(loop_file(loop))
        region = iges.extract_region(model)
        for _ in range(50):
            s, t = rng.random(2)
            assert np.abs(
                region.composite_eval(s, t).x - plate_region.composite_eval(s, t).x
            ).max() < 1e-9

    def test_trimming_curves_off_the_parameter_plane_are_rejected(self, tmp_path, capsys):
        lifted = [
            NurbsCurve(c.knot_vector,
                       np.column_stack([c.control_points, np.full(len(c.weights), 0.5)]),
                       c.weights)
            for c in (hole_arc_curve(), outer_polyline_curve())
        ]
        path = tmp_path / "lifted.igs"
        path.write_text(loop_file(lifted))
        assert cli_main(["area", "--iges", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: bottom trimming curve must live in the parameter plane")

    def test_boundary_gaps_are_reported_by_iges_dump(self, tmp_path, capsys):
        bottom, top = hole_arc_curve(), outer_polyline_curve()
        closed = [
            bottom,
            segment3(bottom.evaluate(1, 0).value, top.evaluate(1, 0).value),
            top.reversed(),
            segment3(top.evaluate(0, 0).value, bottom.evaluate(0, 0).value),
        ]
        # the third curve starts 1e-3 above the end of the second
        pts = closed[2].control_points.copy()
        pts[0, 1] += 1e-3
        opened = closed[:2] + [NurbsCurve(closed[2].knot_vector, pts, closed[2].weights)] \
            + closed[3:]
        errs, notes = [], []
        for name, loop in (("closed", closed), ("opened", opened), ("two", [bottom, top])):
            path = tmp_path / f"{name}.igs"
            path.write_text(loop_file(loop))
            assert cli_main(["iges-dump", "--iges", str(path)]) == 0
            errs.append(capsys.readouterr().err)
            notes.append(iges.parse(loop_file(loop)).diagnostics)
        # D15 is the 144, after the 128, the four 126s, the 102 and the 142
        gap = "trimmed surface D15: gap 1.000e-03 between boundary curves 1 and 2"
        assert notes == [[], [gap], []]
        assert errs == ["", gap + "\n", ""]

    def test_bottom_top_assignment_by_mean_v(self):
        # feed the curves in the "wrong" order; mean v sorts them out
        model = iges.parse(loop_file([outer_polyline_curve(), hole_arc_curve()]))
        region = iges.extract_region(model)
        assert region.curve_bottom.degree == 2
        assert region.curve_top.degree == 1

    def test_three_non_straight_curves_unsupported(self):
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        bulge = NurbsCurve(kv, [[0, 0.5, 0], [0.5, 0.7, 0], [1, 0.5, 0]])
        model = iges.parse(
            loop_file([hole_arc_curve(), outer_polyline_curve(), bulge])
        )
        with pytest.raises(UnsupportedTopologyError):
            iges.extract_region(model)

    def test_surface_boundary_only_is_unsupported(self):
        w = iges._Writer()
        srf_de = w.add(128, iges._surface_params(unit_square_surface()))
        w.add(144, [str(srf_de), "0", "0", "0"])
        model = iges.parse(w.render())
        with pytest.raises(UnsupportedTopologyError):
            iges.extract_region(model)

    def test_inner_loop_is_rejected(self, tmp_path, capsys):
        # the plate's two curves as the outer loop, a square hole as N2 = 1
        w = iges._Writer()
        srf_de = w.add(128, iges._surface_params(unit_square_surface()))
        curve_des = [w.add(126, iges._curve_params(c), status="00010500")
                     for c in (hole_arc_curve(), outer_polyline_curve())]
        comp_de = w.add(102, ["2"] + [str(d) for d in curve_des], status="00010500")
        outer_de = w.add(142, ["1", str(srf_de), str(comp_de), "0", "1"],
                         status="00010500")
        square = NurbsCurve(KnotVector([0, 0, 0.25, 0.5, 0.75, 1, 1], 1),
                            [[0.5, 0.5, 0], [0.7, 0.5, 0], [0.7, 0.7, 0],
                             [0.5, 0.7, 0], [0.5, 0.5, 0]])
        hole_de = w.add(126, iges._curve_params(square), status="00010500")
        inner_de = w.add(142, ["1", str(srf_de), str(hole_de), "0", "1"],
                         status="00010500")
        w.add(144, [str(srf_de), "1", "1", str(outer_de), str(inner_de)])
        text = w.render()
        model = iges.parse(text)
        assert model.trimmed[0].inner_loops == 1
        with pytest.raises(UnsupportedTopologyError, match="inner boundary"):
            iges.extract_region(model)
        path = tmp_path / "holed.igs"
        path.write_text(text)
        assert cli_main(["area", "--iges", str(path)]) == 1
        out = tmp_path / "holed.trim"
        assert cli_main(["iges-extract", "--iges", str(path), "--out", str(out)]) == 1
        assert "inner boundary" in capsys.readouterr().err
        assert not out.exists()

    def test_index_out_of_range(self, plate_region):
        model = iges.parse(iges.region_to_iges(plate_region))
        with pytest.raises(UnsupportedTopologyError):
            iges.extract_region(model, 3)

    def test_folded_loop_fails_validation(self):
        # both curves traversed the same way around a crossing blend
        bottom = segment3([0.0, 0.4], [1.0, 0.6])
        top = segment3([1.0, 0.4], [0.0, 0.6])
        # force the crossing by marking both as non-straight via a midpoint bump
        kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
        bottom = NurbsCurve(kv, [[0, 0.4, 0], [0.5, 0.0, 0], [1, 0.6, 0]])
        top = NurbsCurve(kv, [[1, 0.4, 0], [0.5, 1.0, 0], [0, 0.6, 0]])
        model = iges.parse(loop_file([bottom, top]))
        with pytest.raises(UnsupportedTopologyError):
            iges.extract_region(model)


class TestNormalization:
    def test_knot_ranges_renormalize(self):
        # degree-2 curve with knots 0..2 and D-style exponents
        params = (
            "126,2,2,1,0,0,0,0.0D0,0.0D0,0.0D0,2.0D0,2.0D0,2.0D0,"
            "1.0,7.07D-1,1.0,"
            "0.0,2.0D-1,0.0,2.0D-1,2.0D-1,0.0,2.0D-1,0.0,0.0,"
            "0.0,2.0,0.0,0.0,1.0;"
        )
        text = _single_entity_file(126, params)
        model = iges.parse(text)
        curve = model.curves[1]
        assert np.allclose(curve.knot_vector.knots, [0, 0, 0, 1, 1, 1])
        assert np.allclose(curve.weights, [1.0, 0.707, 1.0])

    def test_trim_coordinates_rescale_with_surface_range(self, plate_region):
        # surface with knots spanning 0..5: trim curves arrive in 0..5 too
        scaled_curves = [
            NurbsCurve(c.knot_vector, 5.0 * c.control_points, c.weights)
            for c in (hole_arc_curve(), outer_polyline_curve())
        ]
        lifted = [
            NurbsCurve(
                c.knot_vector,
                np.hstack([c.control_points, np.zeros((len(c.weights), 1))]),
                c.weights,
            )
            for c in scaled_curves
        ]
        w = iges._Writer()
        surface = unit_square_surface(5.0)
        # stretch the parameter range: knots 0..5 in both directions
        params = iges._surface_params(surface)
        params = ["1", "1", "1", "1", "0", "0", "0", "0", "0",
                  "0", "0", "5", "5", "0", "0", "5", "5",
                  "1", "1", "1", "1",
                  "0", "0", "0", "5", "0", "0", "0", "5", "0", "5", "5", "0",
                  "0", "0", "5", "0", "5", "5"]
        srf_de = w.add(128, params)
        curve_des = [
            w.add(126, iges._curve_params(c), status="00010500") for c in lifted
        ]
        comp_de = w.add(102, ["2"] + [str(d) for d in curve_des], status="00010500")
        cos_de = w.add(142, ["1", str(srf_de), str(comp_de), "0", "1"], status="00010500")
        w.add(144, [str(srf_de), "1", "0", str(cos_de)])
        model = iges.parse(w.render())
        region = iges.extract_region(model)
        assert np.allclose(region.map_point(0.0, 0.0).uv, [0.0, 0.2], atol=1e-12)
        assert np.allclose(region.map_point(1.0, 1.0).uv, [1.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("delimiters", [",,", "1H,,,", ",1H;,"])
    def test_empty_global_delimiter_fields_keep_their_defaults(self, delimiters):
        assert_same_region(plate_iges_with("1H,,1H;,", delimiters))

    def test_custom_delimiters_from_global_section(self):
        # parameter delimiter ';', record delimiter '|'
        params = "126;1;1;1;0;0;0;0.0;0.0;1.0;1.0;1.0;1.0;0.0;0.0;0.0;1.0;1.0;0.0;0.0;1.0|"
        chunks = [params[i : i + 64] for i in range(0, len(params), 64)]
        lines = ["{:<72}S{:>7}".format("t", 1)]
        lines.append("{:<72}G{:>7}".format("1H;;1H|;4Htest|", 1))
        l1 = "{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}".format(
            126, 1, 0, 0, 0, 0, 0, 0, "00000000"
        )
        l2 = "{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}".format(
            126, 0, 0, len(chunks), 0, "", "", "", 0
        )
        lines.append("{:<72}D{:>7}".format(l1, 1))
        lines.append("{:<72}D{:>7}".format(l2, 2))
        for i, chunk in enumerate(chunks, start=1):
            lines.append("{:<64} {:>7}P{:>7}".format(chunk, 1, i))
        lines.append("{:<72}T{:>7}".format("S      1G      1D      2P      1", 1))
        model = iges.parse("\n".join(lines) + "\n")
        curve = model.curves[1]
        assert np.allclose(curve.evaluate(0.5, 0).value, [0.5, 0.5, 0.0])


class TestReaderErrors:
    """Single-fault mutations of the plate's IGES text: the exact message, or
    the diagnostics and the unchanged region where the input is valid."""

    @pytest.mark.parametrize("old, new, expected", [
        # valid input
        ("144,1,1,0,9;", "144,1,1,,9;", []),  # an empty integer field reads 0
        ("144,1,1,0,9;", "144,-1,1,0,-9;", []),  # negative pointers: same targets
        ("142,1,1,7,0,1;", "142,1,-1,-7,0,1;", []),
        ("102,2,3,5;", "102,2,-3,5;", []),
        ("142,1,1,7,0,1;", "142,1,5,7,0,1;",
         ["trimmed surface D11: boundary D9 references surface D5, expected D1"]),
        # directory section
        (*_TYPE_143_AT_D9,
         "directory entry 9: entity type mismatch 142 vs 143 [section D] [line 14]"),
        ("     144       9       0", "     144       x       0",
         "cannot parse int from 'x' [section D] [line 15]"),
        ("     128       0       0       2       0", "     128       0       0       0       0",
         "directory entry 1: bad parameter pointer/count 1/0 [section D]"),
        # parameter section
        ("     144       0       0       1       0", "     144       0       0       2       0",
         "directory entry 11: missing parameter line 10 [section P]"),
        ("P      9\n", "P      8\n", "duplicate parameter line 8 [section P] [line 25]"),
        ("      11P      9", "      13P      9",
         "parameter line 9 back-pointer 13 does not match directory entry 11 "
         "[section P] [line 25]"),
        ("144,1,1,0,9;", "144,1,1,0,9,",
         "directory entry 11: unterminated parameter record [section P] [line 25]"),
        ("142,1,1,7,0,1;", "143,1,1,7,0,1;",
         "directory entry 9: parameter record starts with entity type 143, expected 142 "
         "[section P] [line 24]"),
        ("0.70699999999999996", "0.7069999999999999x",
         "cannot parse float from '0.7069999999999999x' [section P] [line 19]"),
        # records that end early, at each entity's last required token
        ("128,1,1,1,1,0,0,0,0,0,", "128,1,1,1,1,0,0,0,0;",
         "entity 128 (D1): parameter record ended while reading surface header "
         "[section P] [line 17]"),
        ("1,1,0,0,1,0,1;", "1,1;",
         "entity 128 (D1): parameter record ended while reading control points "
         "[section P] [line 17]"),
        (_CURVE_D5, "126,2,1,1,0,0;",
         "entity 126 (D5): parameter record ended while reading curve header "
         "[section P] [line 22]"),
        (_CURVE_D5, "126,2,1,1,0,0,0,0,0,0.5,1,1;",
         "entity 126 (D5): parameter record ended while reading weights [section P] [line 22]"),
        ("102,2,3,5;", "102,2,3;",
         "entity 102 (D7): parameter record ended while reading composite members "
         "[section P] [line 23]"),
        ("142,1,1,7,0,1;", "142,1,1,7,0;",
         "entity 142 (D9): parameter record ended while reading curve-on-surface record "
         "[section P] [line 24]"),
        ("144,1,1,0,9;", "144,1,1,0;",
         "entity 144 (D11): parameter record ended while reading trimmed surface record "
         "[section P] [line 25]"),
        # entity contents
        ("126,2,1,", "126,0,1,",
         "entity 126 (D5): invalid indices K=0, M=1 [section P] [line 22]"),
        ("128,1,1,1,1,", "128,1,1,2,1,",
         "entity 128 (D1): invalid indices K1=1, K2=1, M1=2, M2=1 [section P] [line 17]"),
        ("126,2,1,1,0,0,0,0,0,0.5,", "126,2,1,1,0,0,0,0,0,1.5,",
         "entity 126 (D5): knots must be non-decreasing [section P] [line 22]"),
        ("128,1,1,1,1,0,0,0,0,0,0,0,1,1,0,0,1,1,1,", "128,1,1,1,1,0,0,0,0,0,0,0,1,1,0,0,1,1,0,",
         "entity 128 (D1): all weights must be positive [section P] [line 17]"),
        ("102,2,3,5;", "102,0,3,5;", "entity 102 (D7): needs at least one member [section P]"),
        # pointers between entities
        ("102,2,3,5;", "102,2,1,5;",
         "trimmed surface D11: boundary member D1 is not a supported curve entity"),
        ("144,1,1,0,9;", "144,3,1,0,9;", "trimmed surface D11: dangling surface pointer D3"),
        ("144,1,1,0,9;", "144,1,1,0,7;", "trimmed surface D11: dangling boundary pointer D7"),
    ])
    def test_single_fault(self, old, new, expected):
        text = plate_iges_with(old, new)
        if isinstance(expected, str):
            with pytest.raises(IgesParseError) as err:
                iges.parse(text)
            assert str(err.value) == expected
        else:
            assert iges.parse(text).diagnostics == expected
            assert_same_region(text)

    def test_a_curve_whose_weighted_points_overflow_is_rejected(self):
        # finite numbers, but 1e300 * 1e10 is not
        params = "126,1,1,0,0,1,0,0,0,1,1,1e10,1,1e300,0,0,1,1,0,0,1,0,0,1;"
        with pytest.raises(IgesParseError) as err:
            iges.parse(_single_entity_file(126, params))
        assert str(err.value) == ("entity 126 (D1): weighted control points must be finite "
                                  "[section P] [line 5]")

    def test_a_huge_trim_coordinate_exits_1_without_a_warning(self, tmp_path, capsys):
        # the arc's first y, same length, so the columns hold
        path = tmp_path / "huge.igs"
        path.write_text(plate_iges_with("0.20000000000000001,0,0.2", "1.7000000000000E308,0,0.2"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["area", "--iges", str(path)])
        out, err = capsys.readouterr()
        assert (code, out, caught) == (1, "", [])
        assert err == ("error: bottom trimming curve control points must lie in the unit "
                       "square (found 0..1.7e+308)\n")

    def test_a_huge_coordinate_in_a_four_curve_loop_fails_without_a_warning_or_gap_note(self):
        # the four-curve loop of test_four_curve_loop_drops_straight_edges with
        # the hole arc's first y at 1.7e308: neither the boundary-gap note nor
        # the straight-edge test may run arithmetic on it
        bottom, top = hole_arc_curve(), outer_polyline_curve()
        pts = bottom.control_points.copy()
        pts[0, 1] = 1.7e308
        loop = [
            NurbsCurve(bottom.knot_vector, pts, bottom.weights),
            segment3(bottom.evaluate(1, 0).value, top.evaluate(1, 0).value),
            top.reversed(),
            segment3(top.evaluate(0, 0).value, bottom.evaluate(0, 0).value),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = iges.parse(loop_file(loop))
            assert model.diagnostics == []
            with pytest.raises(InvalidGeometryError) as err:
                iges.extract_region(model)
        assert str(err.value) == ("bottom trimming curve control points must lie in the unit "
                                  "square (found 0..1.7e+308)")

    def test_directory_faults_are_found_before_parameter_faults(self):
        # the first entry's record is unterminated, the fifth's types disagree
        text = plate_iges_with(*_TYPE_143_AT_D9,
                               plate_iges_with("1,1,0,0,1,0,1;", "1,1,0,0,1,0,1,"))
        with pytest.raises(IgesParseError) as err:
            iges.parse(text)
        assert str(err.value) == ("directory entry 9: entity type mismatch 142 vs 143 "
                                  "[section D] [line 14]")


class TestFuzzing:
    def test_structured_errors_never_crashes(self, plate_region):
        base = iges.region_to_iges(plate_region).splitlines()
        rng = np.random.default_rng(99)
        cases = 0
        for k in range(72):
            mutant = list(base)
            mode = k % 8
            if mode == 0:
                mutant = mutant[: 1 + int(rng.integers(0, len(mutant) - 1))]
            elif mode == 1:
                i = int(rng.integers(0, len(mutant)))
                mutant[i] = mutant[i][: int(rng.integers(0, 72))]
            elif mode == 2:
                i = int(rng.integers(0, len(mutant)))
                mutant[i] = mutant[i][:72] + "X" + mutant[i][73:]
            elif mode == 3:
                rng.shuffle(mutant)
            elif mode == 4:
                i = int(rng.integers(0, len(mutant)))
                mutant[i] = mutant[i][:73] + "zzzzzzz"
            elif mode == 5:
                i = int(rng.integers(0, len(mutant)))
                j = int(rng.integers(0, 60))
                mutant[i] = mutant[i][:j] + "@#!" + mutant[i][j + 3 :]
            elif mode == 6:
                del mutant[int(rng.integers(0, len(mutant)))]
            else:
                i = int(rng.integers(0, len(mutant)))
                mutant.insert(i, mutant[i])
            cases += 1
            try:
                model = iges.parse("\n".join(mutant) + "\n")
                if model.trimmed:
                    iges.extract_region(model)
            except TrimigaError:
                pass  # structured rejection is the expected outcome
        assert cases >= 50


def _single_entity_file(etype, params):
    chunks = [params[i : i + 64] for i in range(0, len(params), 64)]
    lines = ["{:<72}S{:>7}".format("t", 1)]
    lines.append("{:<72}G{:>7}".format("1H,,1H;,4Htest;", 1))
    l1 = "{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}".format(
        etype, 1, 0, 0, 0, 0, 0, 0, "00000000"
    )
    l2 = "{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}".format(
        etype, 0, 0, len(chunks), 0, "", "", "", 0
    )
    lines.append("{:<72}D{:>7}".format(l1, 1))
    lines.append("{:<72}D{:>7}".format(l2, 2))
    for i, chunk in enumerate(chunks, start=1):
        lines.append("{:<64} {:>7}P{:>7}".format(chunk, 1, i))
    lines.append(
        "{:<72}T{:>7}".format("S      1G      1D      2P{:>7}".format(len(chunks)), 1)
    )
    return "\n".join(lines) + "\n"


def _without_g_section(text):
    return "".join(line for line in text.splitlines(keepends=True) if line[72] != "G")


def _tie_loop():
    # two vertical edges, both of mean v 0.5: the mean u picks the bottom
    return loop_file([segment3([0.8, 1.0], [0.8, 0.0]), segment3([0.2, 0.0], [0.2, 1.0])])


def _loop_with_a_closed_curve():
    # a curve that ends where it starts has no chord, so it is not a
    # straight edge to drop, and the loop keeps three curves
    kv = KnotVector([0, 0, 0, 1, 1, 1], 2)
    closed = NurbsCurve(kv, [[0.5, 0.5, 0.0], [0.6, 0.6, 0.0], [0.5, 0.5, 0.0]])
    return loop_file([hole_arc_curve(), outer_polyline_curve(), closed])


def _round_trip(text):
    return iges.region_to_iges(iges.extract_region(iges.parse(text)))


@pytest.mark.parametrize("call, expected", [
    (lambda: iges.parse(""), IgesParseError("empty file")),
    (lambda: _round_trip(PLATE_IGES.replace("\n", "\n\n   \n", 1)), PLATE_IGES),
    (lambda: _round_trip(_without_g_section(PLATE_IGES)), PLATE_IGES),
    (lambda: iges.extract_region(iges.parse(_loop_with_a_closed_curve())),
     UnsupportedTopologyError("boundary with 3 curves reduces to 3 non-straight curve(s)")),
    (lambda: iges.extract_region(iges.parse(_tie_loop())).curve_bottom.control_points.tolist(),
     [[0.2, 0.0], [0.2, 1.0]]),
], ids=["empty file", "blank lines", "no G section", "zero chord", "mean-u tie"])
def test_reader_branches(call, expected):
    # each case reaches one branch of the reader that no other test reaches
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=re.escape(str(expected))):
            call()
    else:
        assert call() == expected
