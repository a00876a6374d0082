import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimiga import iges, native, trimming
from trimiga.cli import main as cli_main
from trimiga.errors import (IgesParseError, InvalidGeometryError, TrimigaError,
                            UnsupportedTopologyError)
from trimiga.nurbs import KnotVector, NurbsCurve, NurbsSurface
from trimiga.shapes import (
    hole_arc_curve,
    outer_polyline_curve,
    plate_with_hole_region,
    unit_square_surface,
)
from trimiga.trimming import TrimmedRegion


def segment3(p0, p1):
    kv = KnotVector([0, 0, 1, 1], 1)
    return NurbsCurve(kv, [list(p0) + [0.0], list(p1) + [0.0]])


def closed_loop(bottom, top):
    """bottom, the straight right edge, top reversed, the straight left edge."""
    return [
        bottom,
        segment3(bottom.evaluate(1, 0).value, top.evaluate(1, 0).value),
        top.reversed(),
        segment3(top.evaluate(0, 0).value, bottom.evaluate(0, 0).value),
    ]


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


def _spread(draw, n, lo, hi):
    """n strictly increasing values from lo to hi with step ratios within 1:3."""
    steps = np.cumsum([0.0] + draw(st.lists(st.floats(0.5, 1.5), min_size=n - 1,
                                            max_size=n - 1)))
    return lo + (hi - lo) * steps / steps[-1]


def _floats(n, lo, hi):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


@st.composite
def valid_regions(draw):
    """A region valid by construction, as perfbench/regions.py builds them.

    Both curves share one curve space, of three control points or more, and
    strictly increasing abscissae from within 0.1 of u = 0 to within 0.1 of
    u = 1, so the blend never folds. Each curve's inner control points lie
    0.05 to 0.1 off its chord, all to one side, so neither is a straight edge;
    the top lies at least 0.1 above the bottom, so extraction keeps the curves
    in order and never reverses the top. The surface's net increases in x
    along u and in y along v, with free heights, so it is regular.
    """
    def knots(degree, min_spans=1):
        spans = draw(st.integers(min_spans, 3))
        interior = list(_spread(draw, spans + 1, 0.0, 1.0)[1:-1])
        return KnotVector([0.0] * (degree + 1) + interior + [1.0] * (degree + 1), degree)

    def ordinates(lo, hi):
        ends = draw(_floats(2, lo, hi))
        chord = ends[0] + (ends[1] - ends[0]) * (g - g[0]) / (g[-1] - g[0])
        offsets = np.array([0.0] + draw(_floats(n - 2, 0.05, 0.1)) + [0.0])
        return chord + draw(st.sampled_from((-1.0, 1.0))) * offsets

    degree = draw(st.integers(1, 3))
    kv = knots(degree, min_spans=2 if degree == 1 else 1)  # three points or more
    n = kv.num_basis
    g = _spread(draw, n, draw(st.floats(0.0, 0.1)), draw(st.floats(0.9, 1.0)))
    weights = draw(_floats(n, 0.5, 2.0))
    bottom = NurbsCurve(kv, np.column_stack([g, ordinates(0.2, 0.35)]), weights)
    top = NurbsCurve(kv, np.column_stack([g, ordinates(0.65, 0.8)]), weights)
    ku, kv_ = knots(draw(st.integers(1, 3))), knots(draw(st.integers(1, 3)))
    A, B = ku.num_basis, kv_.num_basis
    net = np.zeros((A, B, 3))
    net[..., 0] = _spread(draw, A, 0.0, draw(st.floats(1.0, 5.0)))[:, None]
    net[..., 1] = _spread(draw, B, 0.0, draw(st.floats(1.0, 5.0)))[None, :]
    net[..., 2] = np.reshape(draw(_floats(A * B, -1.0, 1.0)), (A, B))
    surface_weights = np.outer(draw(_floats(A, 0.5, 2.0)), draw(_floats(B, 0.5, 2.0)))
    return TrimmedRegion(NurbsSurface(ku, kv_, net, surface_weights), bottom, top)


class TestRoundTripProperty:
    """Writing a valid region and reading it back gives the same region."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(valid_regions())
    def test_written_regions_read_back_unchanged(self, region):
        expected = region_arrays(region)
        four_curves = loop_file(closed_loop(region.curve_bottom, region.curve_top),
                                region.surface)
        # the four-curve loop reverses the top curve twice, and reversing its
        # knots (the eighth array) rounds; all else comes back bit for bit
        for text, knot_tol in ((iges.region_to_iges(region), 0.0), (four_curves, 1e-15)):
            model = iges.parse(text)
            assert model.diagnostics == []
            got = region_arrays(iges.extract_region(model))
            tols = [0.0] * 7 + [knot_tol, 0.0, 0.0]
            for a, b, tol in zip(got, expected, tols, strict=True):
                assert np.abs(a - b).max() <= tol
        native_back = native.parse_region(native.format_region(region))
        assert all(np.array_equal(a, b)
                   for a, b in zip(region_arrays(native_back), expected, strict=True))


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
        model = iges.parse(loop_file(closed_loop(hole_arc_curve(), outer_polyline_curve())))
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
        closed = closed_loop(bottom, top)
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

    def test_parse_converts_each_curve_once_and_extraction_none(self, monkeypatch):
        # the closed loop of test_boundary_gaps_are_reported_by_iges_dump: its
        # four curves are each built, rescaled and made 2D once in parse, and
        # extraction builds only the reversed top curve
        text = loop_file(closed_loop(hole_arc_curve(), outer_polyline_curve()))
        counts = Counter()
        convert, init = trimming._as_parameter_curve, NurbsCurve.__init__

        def counted_convert(curve, name):
            converted = convert(curve, name)
            counts["conversions"] += converted is not curve
            return converted

        def counted_init(curve, *args, **kwargs):
            counts["constructions"] += 1
            init(curve, *args, **kwargs)

        for module in (iges, trimming):
            monkeypatch.setattr(module, "_as_parameter_curve", counted_convert)
        monkeypatch.setattr(NurbsCurve, "__init__", counted_init)
        model = iges.parse(text)
        assert counts["conversions"] == 4
        iges.extract_region(model)
        assert counts["conversions"] == 4
        assert counts["constructions"] <= 13

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

    @pytest.mark.parametrize("boundary, problem", [
        ("line", "boundary member D{line} (entity 110) is not a supported curve entity"),
        ("none", "boundary D{cos} has no parameter-space curve"),
    ], ids=["110 member", "BPTR = 0"])
    def test_an_unsupported_boundary_spoils_only_its_own_trimmed_surface(
        self, tmp_path, capsys, plate_region, boundary, problem
    ):
        # the plate's 144, then a second 144 over the same surface whose 142
        # has a 110 line, or nothing (BPTR = 0), as its parameter-space curve
        w = iges._Writer()
        srf_de = w.add(128, iges._surface_params(plate_region.surface))
        curve_des = [w.add(126, iges._curve_params(c), status="00010500")
                     for c in (plate_region.curve_bottom, plate_region.curve_top)]
        comp_de = w.add(102, ["2"] + [str(d) for d in curve_des], status="00010500")
        cos_de = w.add(142, ["1", str(srf_de), str(comp_de), "0", "1"], status="00010500")
        w.add(144, [str(srf_de), "1", "0", str(cos_de)])
        line_de = w.add(110, ["0", "0", "0", "1", "1", "0"], status="00010500")
        bptr = line_de if boundary == "line" else 0
        cos2_de = w.add(142, ["1", str(srf_de), str(bptr), "0", "1"], status="00010500")
        trim_de = w.add(144, [str(srf_de), "1", "0", str(cos2_de)])
        text = w.render()
        note = f"trimmed surface D{trim_de}: " + problem.format(line=line_de, cos=cos2_de)
        model = iges.parse(text)
        assert model.diagnostics == [note]
        assert_same_region(text)
        with pytest.raises(UnsupportedTopologyError, match=re.escape(note)):
            iges.extract_region(model, 1)
        path, plate_path = tmp_path / "two.igs", tmp_path / "plate.igs"
        path.write_text(text)
        plate_path.write_text(PLATE_IGES)
        capsys.readouterr()
        assert cli_main(["iges-dump", "--iges", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out.count("\n") == 1 + len(model.entries) and note in err
        areas = []
        for source in (path, plate_path):
            assert cli_main(["area", "--iges", str(source)]) == 0
            areas.append(capsys.readouterr().out)
        assert areas[0] == areas[1]
        out_path = tmp_path / "second.trim"
        assert cli_main(["iges-extract", "--iges", str(path), "--index", "1",
                         "--out", str(out_path)]) == 1
        assert capsys.readouterr().err.endswith(f"error: {note}\n")
        assert not out_path.exists()

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
