import warnings
from dataclasses import replace

import numpy as np
import pytest

from trimiga import iges, native
from trimiga.cli import main
from trimiga.errors import DomainError
from trimiga.nurbs import KnotVector, NurbsSurface
from trimiga.plate import PlateConfig, solve_plate
from trimiga.shapes import EXACT_ARC_WEIGHT, plate_with_hole_region, unit_square_surface
from trimiga.trimming import TrimmedRegion

from conftest import identity_region, segment


@pytest.fixture
def plate_file(tmp_path):
    path = tmp_path / "plate.trim"
    native.save_region(plate_with_hole_region(), path)
    return str(path)


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.trim"
    native.save_region(identity_region(), path)
    return str(path)


@pytest.fixture
def iges_file(tmp_path):
    path = tmp_path / "plate.igs"
    path.write_text(iges.region_to_iges(plate_with_hole_region()), encoding="utf-8")
    return str(path)


@pytest.fixture
def noisy_iges_file(tmp_path):
    """The plate's IGES chain with its boundary on a second surface, and a 110 line."""
    region = plate_with_hole_region()
    w = iges._Writer()
    srf_de, other_de = (w.add(128, iges._surface_params(region.surface)) for _ in range(2))
    curve_des = [w.add(126, iges._curve_params(c), status="00010500")
                 for c in (region.curve_bottom, region.curve_top)]
    comp_de = w.add(102, ["2"] + [str(d) for d in curve_des], status="00010500")
    cos_de = w.add(142, ["1", str(other_de), str(comp_de), "0", "1"], status="00010500")
    w.add(144, [str(srf_de), "1", "0", str(cos_de)])
    w.add(110, ["0", "0", "0", "1", "1", "0"])
    path = tmp_path / "noisy.igs"
    path.write_text(w.render(), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_at_origin(capsys, plate_file):
    code, out, _ = run(capsys, "map", "--region", plate_file, "--at", "0,0")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "s,t,u,v"
    assert row == "0,0,0,0.2"


def test_map_is_deterministic(capsys, plate_file):
    _, first, _ = run(capsys, "map", "--region", plate_file, "--at", "0.37,0.21")
    _, second, _ = run(capsys, "map", "--region", plate_file, "--at", "0.37,0.21")
    assert first == second


def test_byte_identical_across_processes(plate_file):
    import subprocess
    import sys

    argv = [sys.executable, "-m", "trimiga.cli", "area", "--region", plate_file,
            "--order", "8"]
    first = subprocess.run(argv, capture_output=True, check=True).stdout
    second = subprocess.run(argv, capture_output=True, check=True).stdout
    assert first == second and first


# stdout of `trimiga plate --stage 1 --bc exact` from a reference build:
# a refactor must leave the numbers and their formatting byte-identical
PLATE_STAGE1_EXACT = (
    "stage,dofs,l2_stress_error,rim_stress,rate\n"
    "0,132,0.0469430067596,3.11804888027,\n"
    "1,380,0.0207060941848,3.10562438514,1.18085480935\n"
)


def test_plate_stage1_exact_golden_bytes(capsys):
    code, out, _ = run(capsys, "plate", "--stage", "1", "--bc", "exact")
    assert code == 0
    assert out == PLATE_STAGE1_EXACT


# the dump file of `trimiga plate --stage 0 --bc exact --grid 5` from a reference build
PLATE_STAGE0_EXACT_DUMP = (
    "s,t,x,y,ux,uy,sxx,syy,sxy\n"
    "0,0,0,1,0,-9.64805233709e-06,3.11804888027,0.544227822878,-0.000743524549022\n"
    "0,0.25,0,2,0,-1.17464220482e-05,1.19343511105,0.329543432296,0.00130440104737\n"
    "0,0.5,0,3,0,-1.2842981364e-05,1.05910338253,0.126906252611,0.00181910517394\n"
    "0,0.75,0,4,0,-1.49185883273e-05,1.03467849555,0.0861069181656,0.001310026986\n"
    "0,1,0,5,0,-1.73072739075e-05,1.02879021183,0.0551965780101,0.000835739270808\n"
    "0.25,0,0.368066282825,0.929785142536,1.06923363287e-05,-8.67842820219e-06,2.33162321778,0.449967851771,-0.493670278166\n"
    "0.25,0.25,0.901049712119,1.9473388569,1.02986888032e-05,-9.21707829234e-06,1.213805405,0.0539675489451,0.113354740172\n"
    "0.25,0.5,1.43403314141,2.96489257127,1.52355833493e-05,-1.08758137766e-05,1.10516451991,-0.0150343768958,0.0378906474196\n"
    "0.25,0.75,1.96701657071,3.98244628563,2.03373696425e-05,-1.34546051215e-05,1.06208100415,0.00503572957795,0.0231483631124\n"
    "0.25,1,2.5,5,2.56128447894e-05,-1.61928531605e-05,1.03690410346,-0.00198539407353,0.0179286161558\n"
    "0.5,0,0.707088459285,0.707088459285,2.01708203357e-05,-6.11968162296e-06,1.18303338988,0.160149819861,-0.445604229773\n"
    "0.5,0.25,1.78031634446,1.78031634446,2.13172375624e-05,-5.38235085653e-06,1.27095348512,-0.110370717613,-0.0934699061768\n"
    "0.5,0.5,2.85354422964,2.85354422964,3.0979782342e-05,-8.71104286757e-06,1.01213282238,-0.0615803647491,-0.0209368954586\n"
    "0.5,0.75,3.92677211482,3.92677211482,4.09944297508e-05,-1.18819627551e-05,1.04869716275,-0.0268114563764,-0.0195833694362\n"
    "0.5,1,5,5,5.15124273861e-05,-1.52320851184e-05,1.01625556839,-0.0205182261986,-0.00986892725835\n"
    "0.75,0,0.929785142536,0.368066282825,2.70676867633e-05,-3.23893816493e-06,0.154449720417,-0.484480398148,-0.136435888646\n"
    "0.75,0.25,1.9473388569,0.901049712119,2.81953916689e-05,-1.51938670109e-06,0.866543919173,-0.0584627580859,-0.269044469988\n"
    "0.75,0.5,2.96489257127,1.43403314141,3.51523974223e-05,-3.48447037036e-06,0.963418694368,-0.0462015242054,-0.110539792552\n"
    "0.75,0.75,3.98244628563,1.96701657071,4.39268151157e-05,-5.28976598197e-06,0.96834559208,-0.0309540207651,-0.0627480951367\n"
    "0.75,1,5,2.5,5.3251910214e-05,-7.09242951617e-06,0.983628969794,-0.0174369718784,-0.0439412252004\n"
    "1,0,1,0,2.94090217827e-05,0,-0.211388245565,-0.972237888074,0.00320109623986\n"
    "1,0.25,2,0,3.20968546667e-05,0,0.479362300268,0.0735961477679,-0.00152788690818\n"
    "1,0.5,3,0,3.81361323274e-05,0,0.767709951184,0.0571262499391,-0.0020824271881\n"
    "1,0.75,4,0,4.61216421389e-05,0,0.855826026685,0.0309871353023,-0.00158134692503\n"
    "1,1,5,0,5.48667199872e-05,0,0.905992515568,0.0116894399882,-0.00103332461148\n"
)


def test_area_identity(capsys, identity_file):
    code, out, _ = run(capsys, "area", "--region", identity_file, "--order", "4")
    assert code == 0
    assert out.strip().splitlines()[1] == "4,1,1"


def test_area_split_flag(capsys, plate_file):
    _, with_split, _ = run(capsys, "area", "--region", plate_file)
    _, without, _ = run(capsys, "area", "--region", plate_file, "--no-split")
    a1 = float(with_split.strip().splitlines()[1].split(",")[2])
    a2 = float(without.strip().splitlines()[1].split(",")[2])
    assert abs(a1 - 0.968584928816930) < 1e-11
    assert abs(a2 - a1) > 1e-6


def test_jacobian_columns(capsys, plate_file):
    code, out, _ = run(capsys, "jacobian", "--region", plate_file, "--at", "0.25,0.5")
    assert code == 0
    header = out.strip().splitlines()[0].split(",")
    assert header == ["s", "t", "du_ds", "dv_ds", "du_dt", "dv_dt", "det",
                      "jacobian_scale"]
    row = [float(v) for v in out.strip().splitlines()[1].split(",")]
    assert row[6] > 0.0


def test_check_derivs_passes(capsys, plate_file):
    # golden bytes from a reference build
    code, out, err = run(capsys, "check-derivs", "--region", plate_file, "--grid", "8")
    assert (code, err) == (0, "")
    assert out == (
        "quantity,max_rel_error\n"
        "first_derivatives,9.52198320192e-11\n"
        "second_derivatives,7.06242841986e-11\n"
    )


# a generated region (rounded to 6 digits) whose second-derivative
# differences at step 1e-4 were off by 2.3e-5 from truncation error alone
CURVED_RATIONAL_REGION = """\
surface
degree: 2 1
knots u: 0 0 0 0.687943 1 1 1
knots v: 0 0 0.373319 1 1
coefficients (x y z w):
0 0 0 2.37822
0 0.561054 0 3.49694
0 1.69156 0 3.51031
0.967448 0 0 0.831734
0.967448 0.561054 0 1.22298
0.967448 1.69156 0 1.22766
2.67931 0 0 1.36301
2.67931 0.561054 0 2.00417
2.67931 1.69156 0 2.01183
4.33994 0 0 0.923658
4.33994 0.561054 0 1.35815
4.33994 1.69156 0 1.36334
curve
degree: 3
knots: 0 0 0 0 0.488261 0.742517 0.742517 0.742517 0.885506 1 1 1 1
coefficients (x y [z] w):
0.0645607 0.164848 1.26151
0.144736 0.349284 1.51347
0.272713 0.0655871 0.692108
0.387921 0.135445 0.936303
0.43559 0.0958325 0.721133
0.523782 0.184784 1.2137
0.657237 0.0275703 1.69214
0.786741 0.258375 1.90802
0.913166 0.314631 0.576554
curve
degree: 3
knots: 0 0 0 0 0.371731 0.488261 0.742517 0.742517 0.742517 0.885506 1 1 1 1
coefficients (x y [z] w):
0.0645607 0.669186 1.26151
0.128127 0.695665 1.45333
0.184965 0.645062 1.10226
0.339027 0.536858 0.814361
0.387921 0.549587 0.936303
0.43559 0.541216 0.721133
0.523782 0.550393 1.2137
0.657237 0.495929 1.69214
0.786741 0.432795 1.90802
0.913166 0.56939 0.576554
"""


@pytest.fixture
def curved_rational_file(tmp_path):
    path = tmp_path / "curved.trim"
    path.write_text(CURVED_RATIONAL_REGION)
    return str(path)


@pytest.mark.parametrize("grid", ["8", "16"])
def test_check_derivs_passes_on_a_curved_rational_region(capsys, curved_rational_file, grid):
    code, out, err = run(capsys, "check-derivs", "--region", curved_rational_file,
                         "--grid", grid)
    assert (code, err) == (0, "")
    assert float(out.splitlines()[2].split(",")[1]) < 1e-6


def test_check_derivs_fails_on_a_wrong_second_derivative(capsys, monkeypatch,
                                                         curved_rational_file):
    correct = TrimmedRegion.composite_eval

    def off_by_1e4(self, s, t, order=2):
        cd = correct(self, s, t, order)
        return replace(cd, d2x_ds2=cd.d2x_ds2 * (1 + 1e-4)) if order == 2 else cd

    monkeypatch.setattr(TrimmedRegion, "composite_eval", off_by_1e4)
    code, out, err = run(capsys, "check-derivs", "--region", curved_rational_file,
                         "--grid", "8")
    assert code == 1
    assert float(out.splitlines()[2].split(",")[1]) > 1e-5
    assert "FAILED" in err


def test_check_derivs_skips_stencils_across_a_surface_knot_line(capsys, tmp_path):
    # x(u) is C1 at u = 0.5, so its second derivative jumps there
    net = [[[x, y, 0.0] for y in (0.0, 1.0)] for x in (0.0, 0.2, 0.9, 1.0)]
    surface = NurbsSurface(KnotVector([0, 0, 0, 0.5, 1, 1, 1], 2),
                           KnotVector([0, 0, 1, 1], 1), net)
    path = tmp_path / "knot.trim"
    native.save_region(identity_region(surface), path)
    code, out, err = run(capsys, "check-derivs", "--region", str(path), "--grid", "3")
    assert code == 0
    assert err.startswith("skipped 3 of 9 points")
    assert float(out.splitlines()[2].split(",")[1]) < 1e-5


def test_iges_dump_lists_entities(capsys, iges_file):
    code, out, _ = run(capsys, "iges-dump", "--iges", iges_file)
    assert code == 0
    types = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert sorted(types) == [102, 126, 126, 128, 142, 144]


@pytest.mark.parametrize("command", [
    ["map", "--at", "0.5,0.5", "--iges"],
    ["jacobian", "--at", "0.5,0.5", "--iges"],
    ["area", "--iges"],
    ["check-derivs", "--grid", "4", "--iges"],
    ["plate", "--stage", "0", "--bc", "exact", "--region"],
    ["iges-dump", "--iges"],
], ids=["map", "jacobian", "area", "check-derivs", "plate", "iges-dump"])
def test_iges_diagnostics_reach_stderr(capsys, iges_file, noisy_iges_file, command):
    # the region is the plate's, so every command but iges-dump prints its stdout
    code, out, err = run(capsys, *command, noisy_iges_file)
    assert (code, err) == (0, "skipped 1 entity(ies) of unsupported type 110\n"
                              "trimmed surface D13: boundary D11 references surface D3, "
                              "expected D1\n")
    if command[0] != "iges-dump":
        assert out == run(capsys, *command, iges_file)[1]


def test_region_flag_reads_an_iges_path(capsys, iges_file):
    _, out, _ = run(capsys, "area", "--region", iges_file)
    assert out == run(capsys, "area", "--iges", iges_file)[1]


def test_iges_extract_round_trip(capsys, tmp_path, iges_file, plate_file):
    out_path = tmp_path / "extracted.trim"
    code, _, err = run(
        capsys, "iges-extract", "--iges", iges_file, "--out", str(out_path)
    )
    assert code == 0
    assert "OK" in err
    original = native.load_region(plate_file)
    extracted = native.load_region(str(out_path))
    rng = np.random.default_rng(5)
    for s, t in rng.random((20, 2)):
        assert np.abs(
            original.composite_eval(s, t).x - extracted.composite_eval(s, t).x
        ).max() < 1e-9


def test_iges_extract_validates_once(capsys, monkeypatch, tmp_path, iges_file):
    calls = []
    validate = TrimmedRegion.validate

    def counted(self, grid_n=32):
        calls.append(grid_n)
        return validate(self, grid_n)

    monkeypatch.setattr(TrimmedRegion, "validate", counted)
    code, _, err = run(capsys, "iges-extract", "--iges", iges_file,
                       "--out", str(tmp_path / "extracted.trim"))
    assert code == 0 and calls == [16]
    assert err == validate(native.load_region(str(tmp_path / "extracted.trim")), 16
                           ).summary() + "\n"


def test_check_derivs_fails_when_every_stencil_is_skipped(capsys, tmp_path):
    # --grid 1 samples s = 0.02 only, on the surface's knot line u = 0.02
    net = [[[x, y, 0.0] for y in (0.0, 1.0)] for x in (0.0, 0.2, 0.9, 1.0)]
    surface = NurbsSurface(KnotVector([0, 0, 0, 0.02, 1, 1, 1], 2),
                           KnotVector([0, 0, 1, 1], 1), net)
    path = tmp_path / "knot.trim"
    native.save_region(identity_region(surface), path)
    code, out, err = run(capsys, "check-derivs", "--region", str(path), "--grid", "1")
    assert (code, out) == (1, "")
    assert err.startswith("skipped 1 of 1 points")
    assert "error: no sample point left to check" in err


@pytest.mark.parametrize("grid", ["0", "-3", "two"])
def test_check_derivs_grid_must_be_positive(capsys, plate_file, grid):
    code, out, err = run(capsys, "check-derivs", "--region", plate_file, "--grid", grid)
    assert (code, out) == (2, "")
    assert f"--grid: expected a positive integer, got '{grid}'" in err


def test_plate_dump_grid_must_be_positive(capsys, monkeypatch, tmp_path):
    # a usage error, found before any stage is solved
    monkeypatch.setattr("trimiga.cli.solve_plate", None)
    dump = tmp_path / "fields.csv"
    code, out, err = run(capsys, "plate", "--stage", "0", "--dump", str(dump),
                         "--grid", "0")
    assert (code, out) == (2, "")
    assert "--grid: expected a positive integer, got '0'" in err
    assert not dump.exists()


def test_plate_stage_zero_table(capsys):
    code, out, _ = run(capsys, "plate", "--stage", "0", "--bc", "exact")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "stage,dofs,l2_stress_error,rim_stress,rate"
    row = lines[1].split(",")
    assert row[0] == "0" and row[1] == "132"
    assert float(row[2]) < 0.1


def test_plate_dump_and_out(capsys, tmp_path):
    table = tmp_path / "table.csv"
    dump = tmp_path / "fields.csv"
    code, out, _ = run(
        capsys, "plate", "--stage", "0", "--bc", "exact",
        "--out", str(table), "--dump", str(dump), "--grid", "5",
    )
    assert code == 0 and out == ""
    assert table.read_text().startswith("stage,dofs,")
    assert dump.read_text() == PLATE_STAGE0_EXACT_DUMP


def test_plate_with_region_file(capsys, tmp_path):
    path = tmp_path / "scaled.trim"
    native.save_region(plate_with_hole_region(scale=5.0), path)
    code, out, _ = run(
        capsys, "plate", "--stage", "0", "--bc", "exact", "--region", str(path)
    )
    assert code == 0
    _, builtin, _ = run(capsys, "plate", "--stage", "0", "--bc", "exact")
    assert out == builtin


def test_plate_config_file(capsys, tmp_path):
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(
        "# benchmark setup\nbc = exact\ndegree = 2\nscale = 5\n"
        "youngs_modulus = 1e5\npoisson_ratio = 0.3\n"
    )
    code, out, _ = run(capsys, "plate", "--stage", "0", "--config", str(cfg))
    assert code == 0
    assert float(out.strip().splitlines()[1].split(",")[2]) < 0.1


@pytest.mark.parametrize("line, message", [
    ("stge=0", "unknown key 'stge'"),
    ("stage=two", "stage expects int, got 'two'"),
    ("stage 0", "expected key=value, got 'stage 0'"),
], ids=["unknown-key", "not-a-number", "no-equals"])
def test_plate_config_errors_exit_1(capsys, tmp_path, line, message):
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(f"bc = exact\n{line}\n")
    code, out, err = run(capsys, "plate", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {cfg}:2: {message}")


@pytest.mark.parametrize("line, message", [
    ("degree=0", "degree must be >= 1, got 0"),
    ("scale=0", "scale must be positive, got 0.0"),
    ("scale=-5", "scale must be positive, got -5.0"),
    ("far_stress=0", "far_stress must be positive, got 0.0"),
    ("arc_weight=0", "arc_weight must be positive, got 0.0"),
    ("scale=inf", "scale must be finite, got inf"),
    ("far_stress=inf", "far_stress must be finite, got inf"),
    ("arc_weight=inf", "arc_weight must be finite, got inf"),
    ("youngs_modulus=nan", "youngs_modulus must be finite, got nan"),
    ("youngs_modulus=inf", "youngs_modulus must be finite, got inf"),
], ids=["degree", "scale-zero", "scale-negative", "far-stress", "arc-weight", "scale-inf",
        "far-stress-inf", "arc-weight-inf", "youngs-modulus-nan", "youngs-modulus-inf"])
def test_plate_config_out_of_range_exits_1(capsys, tmp_path, line, message):
    # rejected up front, naming the field, not by a failure deep in the solve
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(f"bc = exact\n{line}\n")
    code, out, err = run(capsys, "plate", "--stage", "0", "--config", str(cfg))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_usage_error_exits_2(capsys):
    assert main(["not-a-command"]) == 2
    assert main([]) == 2
    assert main(["map", "--at", "0,0", "--bogus"]) == 2
    # --out is checked by the parser, before the IGES file is opened
    assert main(["iges-extract", "--iges", "/nonexistent.igs"]) == 2
    # one geometry source: the parser refuses two, rather than one being dropped
    assert main(["area", "--region", "a.trim", "--iges", "b.igs"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "map", "--region", "/nonexistent.trim", "--at", "0,0")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("command", [["area", "--region"], ["plate", "--config"]],
                         ids=["region", "config"])
def test_undecodable_file_exits_1(capsys, tmp_path, command):
    # an error line naming the file, not a UnicodeDecodeError traceback
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfebc = exact\n")
    code, out, err = run(capsys, *command, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: not UTF-8 text")


@pytest.mark.parametrize("command", [["area"], ["map", "--at", "0.5,0.5"]],
                         ids=["area", "map"])
def test_folded_native_region_exits_1(capsys, tmp_path, command):
    # the curves cross, so the map folds: rejected as the same region in IGES is
    region = TrimmedRegion(unit_square_surface(), segment([0, 0.2], [1, 0.2]),
                           segment([0, 0.1], [1, 0.8]))
    path = tmp_path / "folded.trim"
    native.save_region(region, path)
    code, out, err = run(capsys, *command, "--region", str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: {path}: region fails validation\n"
                   + region.validate(16).summary() + "\n")


def test_non_finite_knot_in_a_native_file_exits_1(capsys, tmp_path):
    path = tmp_path / "nan.trim"
    path.write_text(native.format_region(identity_region()).replace(
        "knots: 0 0 1 1\ncoefficients (x y [z] w):\n0 0",
        "knots: 0 0 nan 1 1\ncoefficients (x y [z] w):\n0 0", 1))
    code, out, err = run(capsys, "area", "--region", str(path))
    assert (code, out, err) == (1, "", "error: knots must be finite\n")


def test_non_finite_degree_in_a_native_file_exits_1(capsys, tmp_path):
    path = tmp_path / "nan.trim"
    path.write_text(native.format_region(identity_region()).replace("degree: 1 1", "degree: nan 1"))
    code, out, err = run(capsys, "area", "--region", str(path))
    assert (code, out, err) == (1, "", "error: line 2: bad degree line 'degree: nan 1'\n")


@pytest.mark.parametrize("point, message", [
    ("1e300 1 0 1", "the squared control net size must be finite"),
    ("5 5 0 1e308", "weighted control points must be finite"),
    ("1e300 0 1e10", "weighted control points must be finite"),
])
def test_overflowing_control_net_exits_1_without_a_warning(capsys, tmp_path, point, message):
    # a four-number row replaces a surface row, a three-number one a trimming curve row
    row = "\n1 1 0 1\n" if len(point.split()) == 4 else "\n1 0 1\n"
    path = tmp_path / "huge.trim"
    path.write_text(native.format_region(plate_with_hole_region()).replace(row, f"\n{point}\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "area", "--region", str(path))
    assert (code, out, err, caught) == (1, "", f"error: {message}\n", [])


@pytest.mark.parametrize("source", ["option", "key"])
def test_plate_shape_keys_with_a_region_exit_1(capsys, tmp_path, plate_file, source):
    # scale and arc_weight build the built-in plate; a given region ignores them
    cfg = tmp_path / "plate.cfg"
    cfg.write_text("scale = 10\narc_weight = 1.0\n"
                   + (f"geometry = {plate_file}\n" if source == "key" else ""))
    argv = ["plate", "--stage", "0", "--config", str(cfg)]
    code, out, err = run(capsys, *argv, *(["--region", plate_file] if source == "option" else []))
    assert (code, out) == (1, "")
    assert err == (f"error: {cfg}: scale and arc_weight shape only the built-in plate, "
                   "not a region given by --region or geometry\n")


def test_plate_region_option_and_geometry_key_exit_1_naming_both(capsys, tmp_path, plate_file):
    # two regions that solve differently: neither may be dropped for the other
    exact_file = tmp_path / "exact.trim"
    native.save_region(plate_with_hole_region(arc_weight=EXACT_ARC_WEIGHT), exact_file)
    cfg = tmp_path / "plate.cfg"
    cfg.write_text(f"geometry = {plate_file}\n")
    rows = [run(capsys, "plate", "--stage", "0", "--region", path)[1]
            for path in (plate_file, str(exact_file))]
    assert rows[0] != rows[1]
    code, out, err = run(capsys, "plate", "--stage", "0", "--config", str(cfg),
                         "--region", str(exact_file))
    assert (code, out) == (1, "")
    assert err == (f"error: {cfg}: geometry = {plate_file} and --region {exact_file} "
                   "both name the region; give one\n")


def test_plate_config_with_a_hole_that_is_not_a_circle_exits_1(capsys, tmp_path):
    # the built-in plate's hole is checked as a given region's is
    cfg = tmp_path / "plate.cfg"
    cfg.write_text("arc_weight = 1.0\n")
    code, out, err = run(capsys, "plate", "--stage", "0", "--config", str(cfg))
    with pytest.raises(DomainError) as info:
        solve_plate(PlateConfig(stage=0, arc_weight=1.0))
    assert (code, out, err) == (1, "", f"error: {info.value}\n")


@pytest.mark.parametrize("command, text", [
    (["area", "--region"], native.format_region(plate_with_hole_region())),
    (["plate", "--config"], "stage = 0\nbc = exact\n"),
], ids=["region", "config"])
def test_a_utf8_byte_order_mark_is_read_past(capsys, tmp_path, command, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = run(capsys, *command, str(plain))
    assert expected[0] == 0 and expected[1]
    assert run(capsys, *command, str(marked)) == expected


def test_map_requires_geometry(capsys):
    code, _, err = run(capsys, "map", "--at", "0,0")
    assert code == 1
    assert "geometry" in err


def test_bad_at_argument(capsys, plate_file):
    for at, message in (("0.5", "--at expects 's,t', got '0.5'"),
                        ("0.5,x", "--at expects two numbers, got '0.5,x'")):
        code, _, err = run(capsys, "map", "--region", plate_file, "--at", at)
        assert (code, err) == (1, f"error: {message}\n")


def test_domain_error_exits_1(capsys, plate_file):
    code, _, err = run(capsys, "map", "--region", plate_file, "--at", "2,0")
    assert code == 1


def test_negative_plate_stage_exits_1(capsys):
    code, out, err = run(capsys, "plate", "--stage", "-1")
    assert (code, out) == (1, "")
    assert "stage" in err


def test_plate_order_0_exits_1(capsys):
    # 0 is an order, not a missing option: it must not fall back to the default
    code, out, err = run(capsys, "plate", "--stage", "0", "--order", "0")
    assert (code, out) == (1, "")
    assert "quadrature order" in err


def test_plate_order_63_exits_1_naming_63(capsys):
    # the error norm integrates on two more points than --order; the order
    # is rejected before the solve, with the number the user gave
    code, out, err = run(capsys, "plate", "--stage", "0", "--order", "63")
    assert (code, out) == (1, "")
    assert "quadrature order" in err and "63" in err and "65" not in err
