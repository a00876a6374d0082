"""Command-line front end.

Machine-readable CSV goes to stdout (or --out); human diagnostics go to
stderr. Exit codes: 0 success, 1 domain/validation error, 2 usage error.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from . import iges, native
from .errors import DomainError, TrimigaError
from .plate import PlateConfig, convergence_rates, solve_plate
from .quadrature import integrate


def _fmt(value):
    return format(float(value), ".12g")


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_iges(path):
    """The parsed IGES file; its skipped entities and diagnostics go to stderr."""
    model = iges.parse_file(path)
    for etype, count in sorted(model.skipped.items()):
        print(f"skipped {count} entity(ies) of unsupported type {etype}", file=sys.stderr)
    for note in model.diagnostics:
        print(note, file=sys.stderr)
    return model


def _load_path(path):
    if path.lower().endswith((".igs", ".iges")):
        return iges.extract_region(_load_iges(path))
    return native.load_region(path)


def _load_region(args):
    if args.region:
        return _load_path(args.region)
    if args.iges:
        return iges.extract_region(_load_iges(args.iges))
    raise TrimigaError("no geometry given: pass --region or --iges")


def _positive_int(text):
    """argparse type of a count: an integer of at least 1."""
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _parse_at(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise TrimigaError(f"--at expects 's,t', got {text!r}")
    try:
        s, t = float(parts[0]), float(parts[1])
    except ValueError:
        raise TrimigaError(f"--at expects two numbers, got {text!r}") from None
    return s, t


def cmd_map(args):
    region = _load_region(args)
    s, t = _parse_at(args.at)
    m = region.map_point(s, t)
    rows = ["s,t,u,v", ",".join(_fmt(v) for v in (s, t, m.uv[0], m.uv[1]))]
    _write_output("\n".join(rows) + "\n", args.out)
    return 0


def cmd_jacobian(args):
    region = _load_region(args)
    s, t = _parse_at(args.at)
    m = region.map_point(s, t)
    cd = region.composite_eval(s, t, order=1)
    rows = [
        "s,t,du_ds,dv_ds,du_dt,dv_dt,det,jacobian_scale",
        ",".join(
            _fmt(v)
            for v in (
                s, t,
                m.duv_ds[0], m.duv_ds[1], m.duv_dt[0], m.duv_dt[1],
                m.det, cd.jacobian_scale,
            )
        ),
    ]
    _write_output("\n".join(rows) + "\n", args.out)
    return 0


def cmd_area(args):
    region = _load_region(args)
    area = integrate(
        region, lambda cd: 1.0, args.order, split_breakpoints=not args.no_split
    )
    rows = ["order,split,area",
            f"{args.order},{int(not args.no_split)},{_fmt(area)}"]
    _write_output("\n".join(rows) + "\n", args.out)
    return 0


def _worst(pairs):
    """Largest relative error of analytic derivatives against differences."""
    return max((np.abs(a - fd).max(-1) / np.maximum(np.abs(a).max(-1), 1.0)).max(initial=0.0)
               for a, fd in pairs)


def cmd_check_derivs(args):
    region = _load_region(args)
    breaks = [bp.s for bp in region.breakpoints()]
    margin = 0.02
    tvals = np.linspace(margin, 1.0 - margin, args.grid)
    svals = [s for s in tvals if all(abs(s - b) > margin for b in breaks)]
    s, t = (a.ravel() for a in np.meshgrid(svals, tvals, indexing="ij"))
    h1, h2 = 1e-6, 1e-5
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    # a difference across a surface knot line mixes two polynomial pieces
    uv = np.array([region.map_point(s + a * h2, t + b * h2).uv for a, b in ((0, 0),) + steps])
    kvs = (region.surface.knot_vector_u, region.surface.knot_vector_v)
    spans = np.stack([kv.find_span(uv[..., k]) for k, kv in enumerate(kvs)])
    inside = np.all(spans == spans[:, :1], axis=(0, 1))
    if not inside.all():
        print(f"skipped {np.count_nonzero(~inside)} of {s.size} points whose difference "
              "stencil crosses a surface knot line", file=sys.stderr)
    s, t = s[inside], t[inside]
    if not s.size:
        raise DomainError("no sample point left to check")
    cd = region.composite_eval(s, t, order=2)
    sp, sm, tp, tm = (region.composite_eval(s + a * h1, t + b * h1, 0).x for a, b in steps)
    worst1 = _worst([(cd.dx_ds, (sp - sm) / (2 * h1)), (cd.dx_dt, (tp - tm) / (2 * h1))])
    sp, sm, tp, tm = (region.composite_eval(s + a * h2, t + b * h2, 1) for a, b in steps)
    worst2 = _worst([
        (cd.d2x_ds2, (sp.dx_ds - sm.dx_ds) / (2 * h2)),
        (cd.d2x_dt2, (tp.dx_dt - tm.dx_dt) / (2 * h2)),
        (cd.d2x_dsdt, (tp.dx_ds - tm.dx_ds) / (2 * h2)),
    ])
    rows = [
        "quantity,max_rel_error",
        f"first_derivatives,{_fmt(worst1)}",
        f"second_derivatives,{_fmt(worst2)}",
    ]
    _write_output("\n".join(rows) + "\n", args.out)
    ok = worst1 < 1e-5 and worst2 < 1e-5
    if not ok:
        print("derivative check FAILED (tolerance 1e-5)", file=sys.stderr)
    return 0 if ok else 1


def cmd_iges_dump(args):
    model = _load_iges(args.iges)
    rows = ["de,type,param_lines,form"]
    for de, entry in sorted(model.entries.items()):
        rows.append(f"{de},{entry.etype},{entry.pd_count},{entry.form}")
    _write_output("\n".join(rows) + "\n", args.out)
    return 0


def cmd_iges_extract(args):
    region, report = iges.extract_region_with_report(_load_iges(args.iges), args.index)
    native.save_region(region, args.out, comment=f"extracted from {args.iges}")
    print(report.summary(), file=sys.stderr)
    return 0


#: the keys of a plate --config file, each with the converter of its value
_PLATE_KEYS = {
    "stage": int, "degree": int, "quad_order": int, "bc": str, "geometry": str,
    "arc_weight": float, "scale": float, "far_stress": float,
    "youngs_modulus": float, "poisson_ratio": float,
}


def _plate_config(args):
    values = _read_config(args.config, _PLATE_KEYS) if args.config else {}
    for key, value in (("stage", args.stage), ("quad_order", args.order), ("bc", args.bc)):
        if value is not None:
            values[key] = value
    default = PlateConfig()
    material = replace(default.material, **{
        key: values.pop(key) for key in ("youngs_modulus", "poisson_ratio") if key in values})
    geometry = values.pop("geometry", None)
    if args.region and geometry:
        # one geometry source, as for --region and --iges
        raise TrimigaError(f"{args.config}: geometry = {geometry} and --region {args.region} "
                           "both name the region; give one")
    region_path = args.region or geometry
    shaping = [key for key in ("scale", "arc_weight") if key in values]
    if region_path and shaping:
        raise TrimigaError(f"{args.config}: {' and '.join(shaping)} shape only the built-in "
                           "plate, not a region given by --region or geometry")
    cfg = PlateConfig(  # the finest stage, so that PlateConfig checks it
        stage=values.pop("stage", 2), bc_mode=values.pop("bc", default.bc_mode),
        material=material, **values,
    )
    return cfg, region_path


def _read_config(path, keys):
    """key=value lines of UTF-8 text, after an optional byte-order mark; keys
    maps each allowed key to the converter of its value."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise TrimigaError(f"{path}: not UTF-8 text: {exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        where = f"{path}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise TrimigaError(f"{where}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise TrimigaError(f"{where}: unknown key {key!r}")
        try:
            values[key] = keys[key](value)
        except ValueError:
            raise TrimigaError(
                f"{where}: {key} expects {keys[key].__name__}, got {value!r}") from None
    return values


def cmd_plate(args):
    cfg, region_path = _plate_config(args)
    region = _load_path(region_path) if region_path else None
    results = [
        solve_plate(replace(cfg, stage=stage), region=region)
        for stage in range(cfg.stage + 1)
    ]
    rates = convergence_rates(results)
    rows = ["stage,dofs,l2_stress_error,rim_stress,rate"]
    for i, r in enumerate(results):
        rate = _fmt(rates[i - 1]) if i > 0 else ""
        rows.append(
            f"{i},{r.dofs},{_fmt(r.l2_stress_error)},{_fmt(r.rim_stress)},{rate}"
        )
    _write_output("\n".join(rows) + "\n", args.out)
    if args.dump:
        _dump_fields(results[-1], args.dump, args.grid)
    return 0


def _dump_fields(result, path, grid):
    sol = result.solution
    r = np.linspace(0.0, 1.0, grid)
    s, t = (a.ravel() for a in np.meshgrid(r, r, indexing="ij"))
    xy = sol.geometry.composite_eval(s, t, 1).x[:, :2]
    columns = np.column_stack([s, t, xy, sol.displacement(s, t), sol.stress(s, t)])
    rows = ["s,t,x,y,ux,uy,sxx,syy,sxy"]
    rows += [",".join(_fmt(v) for v in row) for row in columns]
    _write_output("\n".join(rows) + "\n", path)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="trimiga",
        description="Evaluate, integrate and analyze trimmed NURBS regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_geometry(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--region", help="native-format region file (surface + 2 curves)")
        source.add_argument("--iges", help="IGES file; the first trimmed surface is used")
        p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("map", help="evaluate the (s,t) -> (u,v) map")
    add_geometry(p)
    p.add_argument("--at", required=True, help="parameter pair 's,t'")
    p.set_defaults(fn=cmd_map)

    p = sub.add_parser("jacobian", help="map derivatives and jacobian at a point")
    add_geometry(p)
    p.add_argument("--at", required=True, help="parameter pair 's,t'")
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("area", help="integrate 1 over the trimmed region")
    add_geometry(p)
    p.add_argument("--order", type=int, default=16, help="Gauss points per direction")
    p.add_argument("--no-split", action="store_true",
                   help="ignore trimming-curve breakpoints when partitioning")
    p.set_defaults(fn=cmd_area)

    p = sub.add_parser("check-derivs",
                       help="compare analytic derivatives with finite differences")
    add_geometry(p)
    p.add_argument("--grid", type=_positive_int, default=16,
                   help="interior sample grid size")
    p.set_defaults(fn=cmd_check_derivs)

    p = sub.add_parser("iges-dump", help="inventory the entities of an IGES file")
    p.add_argument("--iges", required=True)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(fn=cmd_iges_dump)

    p = sub.add_parser("iges-extract",
                       help="extract a trimmed region to the native format")
    p.add_argument("--iges", required=True)
    p.add_argument("--index", type=int, default=0, help="trimmed surface index")
    p.add_argument("--out", required=True, help="native geometry file to write")
    p.set_defaults(fn=cmd_iges_extract)

    p = sub.add_parser("plate", help="plate-with-a-hole convergence study")
    p.add_argument("--stage", type=int, default=None,
                   help="finest refinement stage (default 2)")
    p.add_argument("--bc", choices=("paper", "exact"),
                   help="right-edge loading: uniform pull or reference tractions")
    p.add_argument("--order", type=int, help="Gauss points per direction")
    p.add_argument("--region", help="native-format region overriding the built-in plate")
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--out", help="write the convergence CSV here instead of stdout")
    p.add_argument("--dump", help="write per-point field CSV for the finest stage")
    p.add_argument("--grid", type=_positive_int, default=17,
                   help="dump grid size per direction")
    p.set_defaults(fn=cmd_plate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.fn(args)
    except (TrimigaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
