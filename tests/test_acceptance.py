"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from trimiga import iges
from trimiga.cli import main as cli_main
from trimiga.errors import TrimigaError
from trimiga.plate import (
    FieldSpace,
    Free,
    Material,
    Symmetry,
    Traction,
    solve_problem,
)
from trimiga.quadrature import integrate
from trimiga.shapes import (
    EXACT_ARC_WEIGHT,
    plate_with_hole_region,
    unit_square_surface,
)
from trimiga.trimming import TrimmedRegion

from conftest import DirectGeometry, identity_region, refined_h

MAT = Material(1e5, 0.3)


@contextmanager
def criterion(number, title):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {title}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] PASS - {title} ({elapsed:.2f}s)")


def rel(diff, ref):
    return np.abs(diff).max() / max(np.abs(ref).max(), 1.0)


def test_criterion_1_map_fidelity():
    with criterion(1, "map matches the trimming-curve endpoints at the corners"):
        started = time.perf_counter()
        region = plate_with_hole_region()
        expected = {
            (0.0, 0.0): [0.0, 0.2],
            (1.0, 0.0): [0.2, 0.0],
            (0.0, 1.0): [0.0, 1.0],
            (1.0, 1.0): [1.0, 0.0],
        }
        for (s, t), uv in expected.items():
            assert np.abs(region.map_point(s, t).uv - uv).max() < 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_2_derivative_oracle():
    with criterion(2, "composite derivatives match central finite differences"):
        started = time.perf_counter()
        region = plate_with_hole_region()
        rng = np.random.default_rng(314159)
        h1, h2 = 1e-6, 1e-4
        checked = 0
        while checked < 200:
            s, t = 0.02 + 0.96 * rng.random(2)
            if abs(s - 0.5) < 0.02:
                continue
            checked += 1
            cd = region.composite_eval(s, t, order=2)
            fd_s = (
                region.composite_eval(s + h1, t, 0).x
                - region.composite_eval(s - h1, t, 0).x
            ) / (2 * h1)
            fd_t = (
                region.composite_eval(s, t + h1, 0).x
                - region.composite_eval(s, t - h1, 0).x
            ) / (2 * h1)
            assert rel(cd.dx_ds - fd_s, cd.dx_ds) < 1e-7
            assert rel(cd.dx_dt - fd_t, cd.dx_dt) < 1e-7
            fd_ss = (
                region.composite_eval(s + h2, t, 1).dx_ds
                - region.composite_eval(s - h2, t, 1).dx_ds
            ) / (2 * h2)
            fd_tt = (
                region.composite_eval(s, t + h2, 1).dx_dt
                - region.composite_eval(s, t - h2, 1).dx_dt
            ) / (2 * h2)
            fd_st = (
                region.composite_eval(s, t + h2, 1).dx_ds
                - region.composite_eval(s, t - h2, 1).dx_ds
            ) / (2 * h2)
            assert rel(cd.d2x_ds2 - fd_ss, cd.d2x_ds2) < 1e-5
            assert rel(cd.d2x_dt2 - fd_tt, cd.d2x_dt2) < 1e-5
            assert rel(cd.d2x_dsdt - fd_st, cd.d2x_dsdt) < 1e-5
        assert time.perf_counter() - started < 5.0


def test_criterion_3_area_integral():
    with criterion(3, "trimmed area exact to 1e-8 with the C0 split, worse without"):
        started = time.perf_counter()
        region = plate_with_hole_region(arc_weight=EXACT_ARC_WEIGHT)
        target = 1.0 - 0.01 * math.pi
        with_split = integrate(region, lambda cd: 1.0, 16)
        without = integrate(region, lambda cd: 1.0, 16, split_breakpoints=False)
        err_split = abs(with_split - target)
        err_plain = abs(without - target)
        assert err_split < 1e-8
        assert err_plain > 1e-6
        assert err_plain > 100.0 * max(err_split, 1e-16)
        assert time.perf_counter() - started < 1.0


def test_criterion_4_patch_tests():
    with criterion(4, "linear fields and constant stress reproduce to 1e-10"):
        # linear displacement on a curved trimmed region with a polynomial map
        region = plate_with_hole_region(arc_weight=1.0)
        field = FieldSpace.conforming(region, 2)
        gx, gy = 0.85, -0.4
        sig = MAT.plane_stress_matrix() @ np.array([gx, gy, 0.0])
        S = np.array([[sig[0], sig[2]], [sig[2], sig[1]]])
        bcs = {
            "s0": Symmetry(),
            "s1": Symmetry(),
            "t0": Traction(lambda x, n: n @ S.T),
            "t1": Traction(lambda x, n: n @ S.T),
        }
        result = solve_problem(region, field, MAT, bcs)
        scale = max(abs(gx), abs(gy))
        for s in np.linspace(0.0, 1.0, 9):
            for t in np.linspace(0.0, 1.0, 9):
                cd = region.composite_eval(s, t, 1)
                exact = np.array([gx * cd.x[0], gy * cd.x[1]])
                assert np.abs(result.displacement(s, t) - exact).max() < 1e-10 * scale

        # constant stress on the identity trim
        square = identity_region()
        kv_field = FieldSpace.conforming(square, 1)
        tension = {
            "s0": Symmetry(),
            "t0": Symmetry(),
            "s1": Traction(lambda x, n: np.array([1.0, 0.0])),
            "t1": Free(),
        }
        flat = solve_problem(square, kv_field, MAT, tension)
        for s in np.linspace(0.0, 1.0, 7):
            for t in np.linspace(0.0, 1.0, 7):
                stress = flat.stress(s, t)
                assert abs(stress[0] - 1.0) < 1e-10
                assert abs(stress[1]) < 1e-10
                assert abs(stress[2]) < 1e-10


def test_criterion_5_trimmed_untrimmed_equivalence():
    with criterion(5, "identity-trimmed solve equals the mapping-bypassed solve"):
        surface = unit_square_surface(5.0)
        region = identity_region(surface)
        field = refined_h(FieldSpace.conforming(region, 2))
        bcs = {
            "s0": Symmetry(),
            "t0": Symmetry(),
            "s1": Traction(lambda x, n: np.array([1.0, 0.0])),
            "t1": Free(),
        }
        through_map = solve_problem(region, field, MAT, bcs)
        direct = solve_problem(DirectGeometry(surface), field, MAT, bcs)
        assert np.abs(through_map.coeffs - direct.coeffs).max() < 1e-10


def test_criterion_6_convergence_study(tmp_path):
    with criterion(6, "stress error decreases, rate >= 1.5, rim within 2% of 3"):
        started = time.perf_counter()
        table = tmp_path / "convergence.csv"
        code = cli_main(
            ["plate", "--stage", "2", "--bc", "exact", "--out", str(table)]
        )
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "stage,dofs,l2_stress_error,rim_stress,rate"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3
        errors = [float(r[2]) for r in rows]
        assert errors[0] > errors[1] > errors[2]
        final_rate = float(rows[2][4])
        assert final_rate >= 1.5
        rim = float(rows[2][3])
        assert abs(rim - 3.0) / 3.0 < 0.02
        assert time.perf_counter() - started < 120.0


def test_criterion_7_iges_round_trip_and_fuzz():
    with criterion(7, "IGES round trip within 1e-9; fuzz corpus never crashes"):
        region = plate_with_hole_region()
        text = iges.region_to_iges(region)
        model = iges.parse(text)
        back = iges.extract_region(model)
        rng = np.random.default_rng(271828)
        for _ in range(100):
            s, t = rng.random(2)
            assert np.abs(
                back.composite_eval(s, t).x - region.composite_eval(s, t).x
            ).max() < 1e-9
            assert np.abs(
                back.curve_bottom.evaluate(s, 0).value
                - region.curve_bottom.evaluate(s, 0).value
            ).max() < 1e-9
            assert np.abs(
                back.curve_top.evaluate(s, 0).value
                - region.curve_top.evaluate(s, 0).value
            ).max() < 1e-9

        base = text.splitlines()
        cases = 0
        for k in range(64):
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
                mutant[i] = mutant[i][:73] + "qqqqqqq"
            elif mode == 5:
                i = int(rng.integers(0, len(mutant)))
                j = int(rng.integers(0, 60))
                mutant[i] = mutant[i][:j] + "%$@" + mutant[i][j + 3 :]
            elif mode == 6:
                del mutant[int(rng.integers(0, len(mutant)))]
            else:
                i = int(rng.integers(0, len(mutant)))
                mutant.insert(i, mutant[i])
            cases += 1
            try:
                mutated = iges.parse("\n".join(mutant) + "\n")
                if mutated.trimmed:
                    iges.extract_region(mutated)
            except TrimigaError:
                pass
        assert cases >= 50


def test_criterion_8_fold_over_rejection():
    with criterion(8, "reversed trimming curve reported as a jacobian sign change"):
        region = plate_with_hole_region()
        folded = TrimmedRegion(
            region.surface, region.curve_bottom, region.curve_top.reversed()
        )
        report = folded.validate(32)
        assert report.sign_change
        assert not report.ok
        assert report.min_det < 0.0 < report.max_det
        assert "sign change" in report.summary()
