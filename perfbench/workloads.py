"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Each workload is closed loop with one client: the next operation starts when
the previous one returns. `build(seed)` makes the inputs (timed as set-up),
`op(inputs, k)` runs the k-th operation and returns what it produced, and
`check(inputs, k, output)` returns None or a description of a wrong answer.
Operations that raise a TrimigaError count as failed, as do wrong answers.
`keep(k, output)` picks a few outputs for `verify(inputs, kept)`, which runs
after the timed loop with the slower oracles that would distort the timing
if run inline. A pass is `pass_length` operations that together visit every
input once.
"""

import json
import math
import os
from array import array
from time import perf_counter

import numpy as np

from trimiga import iges, native, plate, quadrature
from trimiga.errors import TrimigaError

from regions import POOL_SIZE, generate_regions

HERE = os.path.dirname(os.path.abspath(__file__))

#: seeds whose iges-ingest areas are recorded in expected.json; other seeds
#: are checked by the seed-independent invariants only
RECORDED_SEEDS = range(32)

#: relative tolerance of every recorded-value gate; switching BLAS from one
#: to two threads moves the stage-2 L2 error by 3e-15 relative
REL_TOL = 1e-9


def _expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, reference, rel=REL_TOL):
    return math.isfinite(value) and abs(value - reference) <= rel * abs(reference)


def _one(cd):
    return 1.0


# ---------------------------------------------------------------------------
# plate-stage3: the paper's headline analysis; ignores the seed


class PlateStage3:
    name = "plate-stage3"
    unit_name = "solve"
    tail = ("max", None)  # one solve per run: the tail is the solve itself
    pass_length = 1

    def build(self, seed):
        ref = _expected()["plate-stage3"]
        return {"config": plate.PlateConfig(stage=3, bc_mode="exact"), "ref": ref}

    def op(self, inputs, k):
        return plate.solve_plate(inputs["config"])

    def check(self, inputs, k, result):
        ref = inputs["ref"]
        if result.dofs != ref["dofs"]:
            return f"dofs {result.dofs} != {ref['dofs']}"
        if not _close(result.l2_stress_error, ref["l2_stress_error"]):
            return f"L2 stress error {result.l2_stress_error!r} != {ref['l2_stress_error']!r}"
        if not _close(result.rim_stress, ref["rim_stress"]):
            return f"rim stress {result.rim_stress!r} != {ref['rim_stress']!r}"
        return None

    def keep(self, k, result):
        return None

    def verify(self, inputs, kept):
        return []


# ---------------------------------------------------------------------------
# iges-ingest: IGES text in, validated region and area out, native round trip


def ingest(text):
    """One iges-ingest operation; returns (area, region, native region, IGES)."""
    model = iges.parse(text)
    region = iges.extract_region(model)
    area = quadrature.integrate(region, _one, 16)
    again = native.parse_region(native.format_region(region))
    return area, region, again, iges.region_to_iges(again)


def _same_region(a, b):
    pairs = [
        (a.surface.control_net, b.surface.control_net),
        (a.surface.weights, b.surface.weights),
        (a.surface.knot_vector_u.knots, b.surface.knot_vector_u.knots),
        (a.surface.knot_vector_v.knots, b.surface.knot_vector_v.knots),
    ]
    for ca, cb in ((a.curve_bottom, b.curve_bottom), (a.curve_top, b.curve_top)):
        pairs += [(ca.control_points, cb.control_points), (ca.weights, cb.weights),
                  (ca.knot_vector.knots, cb.knot_vector.knots)]
    return all(x.shape == y.shape and np.array_equal(x, y) for x, y in pairs)


class IgesIngest:
    name = "iges-ingest"
    unit_name = "region"
    tail = ("p90", 90.0)
    pass_length = POOL_SIZE

    def build(self, seed):
        pool = [region for region, _ in generate_regions(seed)]
        texts = [iges.region_to_iges(region) for region in pool]
        rng = np.random.default_rng([seed, 1])
        order = np.concatenate([rng.permutation(len(pool)) for _ in range(64)])
        areas = _expected()["iges-ingest"]["areas"].get(str(seed))
        return {"texts": texts, "order": order.tolist(), "areas": areas}

    def op(self, inputs, k):
        index = inputs["order"][k % len(inputs["order"])]
        return index, ingest(inputs["texts"][index])

    def check(self, inputs, k, output):
        index, (area, region, again, text) = output
        if not (math.isfinite(area) and area > 0.0):
            return f"region {index}: area {area!r} is not finite and positive"
        if text != inputs["texts"][index]:
            return f"region {index}: IGES round trip changed the text"
        if not _same_region(region, again):
            return f"region {index}: native round trip changed the region"
        areas = inputs["areas"]
        if areas is not None and not _close(area, areas[index]):
            return f"region {index}: area {area!r} != recorded {areas[index]!r}"
        return None

    def keep(self, k, output):
        # the native round trip must leave the area unchanged; three
        # operations are re-integrated after the timed loop
        index, (area, _, again, _) = output
        return (index, area, again) if k < 3 else None

    def verify(self, inputs, kept):
        errors = []
        for index, area, again in kept:
            area2 = quadrature.integrate(again, _one, 16)
            if not _close(area2, area, 1e-12):
                errors.append(f"region {index}: native round trip moved the area "
                              f"{area!r} -> {area2!r}")
        return errors


# ---------------------------------------------------------------------------
# point-queries: one scalar map call per operation, many regions


def query(region, kind, s, t):
    if kind == 0:
        return region.map_point(s, t)
    return region.composite_eval(s, t, order=kind)


def _fd_errors(region, kind, s, t, h=1e-5, tol=1e-6):
    """Central-difference oracle for the derivatives of one query.

    Returns None when the stencil straddles a knot of the trimming curves or
    the surface, where one-sided derivatives make differences meaningless.
    """
    stencil = [(s, t), (s + h, t), (s - h, t), (s, t + h), (s, t - h)]
    if any(abs(s - bp.s) <= 2 * h for bp in region.breakpoints()):
        return None
    uvs = [region.map_point(a, b).uv for a, b in stencil]
    for kv, axis in ((region.surface.knot_vector_u, 0), (region.surface.knot_vector_v, 1)):
        if len({kv.find_span(float(uv[axis])) for uv in uvs}) > 1:
            return None
    errors = []

    def compare(name, analytic, plus, minus):
        fd = (plus - minus) / (2 * h)
        if np.max(np.abs(fd - analytic)) > tol * (1.0 + np.max(np.abs(analytic))):
            errors.append(f"{name} differs from central differences by "
                          f"{np.max(np.abs(fd - analytic)):.3g}")

    if kind == 0:
        m = region.map_point(s, t)
        compare("duv_ds", m.duv_ds, uvs[1], uvs[2])
        compare("duv_dt", m.duv_dt, uvs[3], uvs[4])
        return errors
    cd = region.composite_eval(s, t, order=kind)
    near = [region.composite_eval(a, b, order=1) for a, b in stencil[1:]]
    compare("dx_ds", cd.dx_ds, near[0].x, near[1].x)
    compare("dx_dt", cd.dx_dt, near[2].x, near[3].x)
    if kind == 2:
        compare("d2x_ds2", cd.d2x_ds2, near[0].dx_ds, near[1].dx_ds)
        compare("d2x_dt2", cd.d2x_dt2, near[2].dx_dt, near[3].dx_dt)
        compare("d2x_dsdt", cd.d2x_dsdt, near[2].dx_ds, near[3].dx_ds)
    return errors


def _blend_reference(region, s, t):
    """(u, v) and model point from the curves and surface, without the map code."""
    uv = (1.0 - t) * region.curve_bottom.evaluate(s, 0).value \
        + t * region.curve_top.evaluate(s, 0).value
    u, v = (min(max(float(c), 0.0), 1.0) for c in uv)
    return uv, region.surface.evaluate(u, v, 0).value


class PointQueries:
    name = "point-queries"
    unit_name = "query"
    #: not the p99: a p99 of sub-millisecond calls measures the host's
    #: interrupts, not the program (over two-second windows it followed the
    #: machine's speed with correlation 0.5, the p90 with 0.9). The p90 lies
    #: among the order-2 calls, the slowest kind
    tail = ("p90", 90.0)
    pass_length = 3

    #: queries drawn per run, a multiple of the three kinds; the loop cycles
    QUERIES = 3 << 15

    def build(self, seed):
        regions = [region for region, _ in generate_regions(seed)]
        rng = np.random.default_rng([seed, 2])
        n = self.QUERIES
        # each kind visits the regions in a run of shuffles, so every
        # (region, kind) pair is as frequent on every seed
        per_kind = n // 3
        shuffles = -(-per_kind // len(regions))
        streams = [np.concatenate([rng.permutation(len(regions))
                                   for _ in range(shuffles)])[:per_kind]
                   for _ in range(3)]
        return {
            "regions": regions,
            "region": np.stack(streams, axis=1).reshape(-1).tolist(),
            "s": rng.random(n).tolist(),
            "t": rng.random(n).tolist(),
        }

    def op(self, inputs, k):
        # the kinds interleave, so every run has the same one-third mix
        j = k % self.QUERIES
        return query(inputs["regions"][inputs["region"][j]], k % 3,
                     inputs["s"][j], inputs["t"][j])

    def check(self, inputs, k, out):
        if k % 3 == 0:
            uv = out.uv
            inside = -1e-9 <= uv[0] <= 1.0 + 1e-9 and -1e-9 <= uv[1] <= 1.0 + 1e-9
            det = out.det
            if inside and det > 0.0 and math.isfinite(det):
                return None
            return f"query {k}: map_point gave uv {uv} with det {det}"
        scale = out.jacobian_scale
        if scale > 0.0 and math.isfinite(scale) and math.isfinite(float(out.x.sum())):
            return None
        return f"query {k}: composite_eval gave x {out.x} with scale {scale}"

    def keep(self, k, out):
        return (k, out) if k < 48 else None

    def verify(self, inputs, kept):
        errors = []
        for k, out in kept:
            region = inputs["regions"][inputs["region"][k]]
            s, t, kind = inputs["s"][k], inputs["t"][k], k % 3
            uv_ref, x_ref = _blend_reference(region, s, t)
            problems = []
            if kind == 0:
                if np.max(np.abs(out.uv - uv_ref)) > 1e-12:
                    problems.append(f"uv {out.uv} != blend {uv_ref}")
            elif np.max(np.abs(out.x - x_ref)) > 1e-12 * (1.0 + np.max(np.abs(x_ref))):
                problems.append(f"x {out.x} != surface at blend {x_ref}")
            if 1e-3 < s < 1 - 1e-3 and 1e-3 < t < 1 - 1e-3:
                problems += _fd_errors(region, kind, s, t) or []
            if problems:
                errors.append(f"query {k}: " + "; ".join(problems))
        return errors


WORKLOADS = {w.name: w for w in (PlateStage3(), IgesIngest(), PointQueries())}


def run_loop(workload, inputs, seconds, count=None):
    """Closed loop for `seconds` (or exactly `count` operations).

    The loop stops at the end of a whole pass (`workload.pass_length`
    operations: every region once, or one query of each kind), so every run
    measures the same mix of operations however fast the machine is.
    Returns (latencies in seconds, start times on the perf_counter clock,
    failure messages, kept outputs, wall seconds).
    """
    latencies, starts, failures, kept = array("d"), array("d"), [], []
    start = perf_counter()
    k = 0
    while k < count if count is not None else (
            k % workload.pass_length or k == 0 or perf_counter() - start < seconds):
        t0 = perf_counter()
        starts.append(t0)
        try:
            out = workload.op(inputs, k)
        except TrimigaError as exc:
            latencies.append(perf_counter() - t0)
            failures.append(f"operation {k}: {type(exc).__name__}: {exc}")
        else:
            latencies.append(perf_counter() - t0)
            problem = workload.check(inputs, k, out)
            if problem is not None:
                failures.append(problem)
            item = workload.keep(k, out)
            if item is not None:
                kept.append(item)
        k += 1
    return latencies, starts, failures, kept, perf_counter() - start
