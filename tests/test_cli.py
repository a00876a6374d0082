import numpy as np
import pytest

from trimiga import iges, native
from trimiga.cli import main
from trimiga.shapes import identity_region, plate_with_hole_region


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
    iges.save_region_iges(plate_with_hole_region(), path)
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
    code, out, _ = run(capsys, "check-derivs", "--region", plate_file, "--grid", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "quantity,max_rel_error"
    first = float(lines[1].split(",")[1])
    second = float(lines[2].split(",")[1])
    assert first < 1e-5 and second < 1e-5


def test_iges_dump_lists_entities(capsys, iges_file):
    code, out, _ = run(capsys, "iges-dump", "--iges", iges_file)
    assert code == 0
    types = [int(line.split(",")[1]) for line in out.strip().splitlines()[1:]]
    assert sorted(types) == [102, 126, 126, 128, 142, 144]


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
    dump_lines = dump.read_text().strip().splitlines()
    assert dump_lines[0] == "s,t,x,y,ux,uy,sxx,syy,sxy"
    assert len(dump_lines) == 1 + 25


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


def test_usage_error_exits_2(capsys):
    assert main(["not-a-command"]) == 2
    assert main([]) == 2
    assert main(["map", "--at", "0,0", "--bogus"]) == 2
    # --out is checked by the parser, before the IGES file is opened
    assert main(["iges-extract", "--iges", "/nonexistent.igs"]) == 2


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "map", "--region", "/nonexistent.trim", "--at", "0,0")
    assert code == 1
    assert "error" in err


def test_map_requires_geometry(capsys):
    code, _, err = run(capsys, "map", "--at", "0,0")
    assert code == 1
    assert "geometry" in err


def test_bad_at_argument(capsys, plate_file):
    code, _, err = run(capsys, "map", "--region", plate_file, "--at", "0.5")
    assert code == 1


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
