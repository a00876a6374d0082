"""Checks on the benchmark's own parts.

    python3 -m pytest -q perfbench/test_generator.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

from trimiga import iges, native, nurbs, plate, quadrature, trimming  # noqa: E402

from compare import verdict  # noqa: E402
from regions import _FACTORS, POOL_SIZE, generate_regions  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_regions_are_valid_and_survive_iges(seed):
    for region, shape in generate_regions(seed):
        report = region.validate(32)
        assert report.ok, (shape, report.summary())
        # the construction makes the blend Jacobian positive, not just one-signed
        assert report.min_det > 0.0, shape
        text = iges.region_to_iges(region)
        again = iges.extract_region(iges.parse(text))
        assert iges.region_to_iges(again) == text, shape
        assert native.format_region(native.parse_region(native.format_region(again))) \
            == native.format_region(region)


def test_regions_repeat_for_a_seed_and_differ_between_seeds():
    texts = [[iges.region_to_iges(r) for r, _ in generate_regions(seed)] for seed in (5, 5, 6)]
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_every_factor_level_is_dealt_equally_often():
    shapes = [shape for _, shape in generate_regions(7)]
    assert len(shapes) == POOL_SIZE
    for name, levels in _FACTORS.items():
        counts = [sum(1 for s in shapes if s[name] == level) for level in levels]
        assert counts == [POOL_SIZE // len(levels)] * len(levels), name


def test_tracer_counts_calls_and_restores_the_program():
    owners = [nurbs.KnotVector.basis, trimming.TrimmedRegion.composite_eval,
              quadrature.integrate, plate.solve_problem, iges.parse]
    region, _ = generate_regions(0)[0]
    tracer = Tracer()
    tracer.install()
    try:
        quadrature.integrate(region, lambda cd: 1.0, 4)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    panels = metrics["quadrature.panels"][0]
    assert metrics["quadrature.integrate.calls"][0] == 1
    assert metrics["quadrature.points"][0] == panels * 16
    assert metrics["trimming.composite_eval.calls"][0] == panels * 16
    assert metrics["nurbs.curve_eval.per_point"][0] == 2.0
    assert metrics["trimming.composite_eval.per_point"][0] == 1.0
    assert [nurbs.KnotVector.basis, trimming.TrimmedRegion.composite_eval,
            quadrature.integrate, plate.solve_problem, iges.parse] == owners


def test_verdicts():
    before = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [x * 0.8 for x in before]
    slower = [x * 1.3 for x in before]
    pairs = list(zip(before, faster))
    assert verdict(before, faster, pairs, False, 0.1) == "improved"
    assert verdict(before, slower, list(zip(before, slower)), False, 0.1) == "worse"
    assert verdict(before, before, list(zip(before, before)), False, 0.1) == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    assert verdict(before, noisy, list(zip(before, noisy)), False, 0.1) == "unresolved"
