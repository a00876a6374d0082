"""Per-layer tracing installed from outside the program.

The tracer replaces public functions and methods of trimiga's modules with
wrappers that time each call and keep a span stack, so every layer's self
time is its wall time minus the time of the wrapped calls it made. Nothing
in `src/` is edited: wrappers go onto the class or module attribute that the
program looks up at call time, and `uninstall` puts the originals back.

Spans are kept in memory aggregated by (caller layer, layer): a stage-3
plate solve makes over a million wrapped calls, too many to store one by
one. The aggregate is written out when the run ends (see `span_tree`).
"""

from time import perf_counter

import numpy as np

from trimiga import iges, native, nurbs, plate, quadrature, trimming


def _points(s, t):
    """(s, t) pairs of one call, scalar or batched."""
    if np.ndim(s) == 0 and np.ndim(t) == 0:
        return [(float(s), float(t))]
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(t, dtype=float))
    return list(zip(s.ravel().tolist(), t.ravel().tolist()))


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    """Wraps the layers, keeps the span stack, and collects counts."""

    def __init__(self):
        self.calls = {}        # layer -> number of calls
        self.self_s = {}       # layer -> wall time minus wrapped children
        self.edges = {}        # (caller, layer) -> [calls, inclusive seconds]
        self.counts = {
            "map_points": 0,
            "composite_points": 0,
            "quadrature.panels": 0,
            "quadrature.points": 0,
        }
        self.values = {}       # sentinels from the last result seen
        self._distinct = set()
        self._keep = {}        # objects whose id() keys _distinct stay alive
        self._stack = []       # [layer, child seconds] per open span
        self._saved = []

    # -- installation -----------------------------------------------------

    def _layers(self):
        """(owner, attribute, layer name, result hook) for every traced call."""
        return [
            (nurbs.KnotVector, "basis", "nurbs.basis", None),
            (nurbs.NurbsCurve, "evaluate", "nurbs.curve_eval", None),
            (nurbs.NurbsSurface, "evaluate", "nurbs.surface_eval", None),
            (trimming.TrimmedRegion, "composite_eval", "trimming.composite_eval",
             self._on_composite),
            (trimming.TrimmedRegion, "map_point", "trimming.map_point", self._on_map),
            (trimming.TrimmedRegion, "validate", "trimming.validate", None),
            (quadrature, "integrate", "quadrature.integrate", None),
            (quadrature, "partition_regions", "quadrature.partition_regions",
             self._on_partition),
            (plate.FieldSpace, "basis", "plate.field_basis", None),
            (plate, "assemble_stiffness", "plate.assemble_stiffness", self._on_matrix),
            (plate, "assemble_tractions", "plate.assemble_tractions", None),
            (plate, "stress_error_l2", "plate.stress_error_l2", None),
            (plate, "kirsch_reference", "plate.kirsch_reference", None),
            (plate, "solve_problem", "plate.linear_solve", self._on_solve),
            (plate, "solve_plate", "plate.solve_plate", self._on_plate),
            (iges, "parse", "iges.parse", None),
            (iges, "extract_region", "iges.extract_region", None),
            (iges, "region_to_iges", "iges.region_to_iges", None),
            (native, "parse_region", "native.parse_region", None),
            (native, "format_region", "native.format_region", None),
        ]

    def install(self):
        for owner, attr, layer, hook in self._layers():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, hook))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer, fn, hook):
        self.calls.setdefault(layer, 0)
        self.self_s.setdefault(layer, 0.0)
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            caller = stack[-1][0] if stack else "bench"
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - frame[1]
                edge = edges.get((caller, layer))
                if edge is None:
                    edges[(caller, layer)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                h0 = perf_counter()
                hook(caller, args, kwargs, result)
                if stack:
                    # bookkeeping is tracing overhead, not the parent's work
                    stack[-1][1] += perf_counter() - h0
            return result

        traced.__wrapped__ = fn
        return traced

    # -- result hooks -----------------------------------------------------

    def _on_composite(self, caller, args, kwargs, result):
        region, s, t = args[0], _arg(args, kwargs, 1, "s"), _arg(args, kwargs, 2, "t")
        self._keep[id(region)] = region
        points = _points(s, t)
        self._distinct.update((id(region),) + st for st in points)
        n = len(points)
        self.counts["composite_points"] += n
        self.counts["map_points"] += n
        if caller == "quadrature.integrate":
            self.counts["quadrature.points"] += n

    def _on_map(self, caller, args, kwargs, result):
        self.counts["map_points"] += len(_points(_arg(args, kwargs, 1, "s"),
                                                _arg(args, kwargs, 2, "t")))

    def _on_partition(self, caller, args, kwargs, result):
        self.counts["quadrature.panels"] += len(result)

    def _on_matrix(self, caller, args, kwargs, K):
        if hasattr(K, "nnz"):  # a scipy.sparse matrix
            nbytes = sum(getattr(K, a).nbytes for a in ("data", "indices", "indptr")
                         if hasattr(K, a))
            nonzeros = K.nnz
        else:
            nbytes = K.nbytes
            nonzeros = int(np.count_nonzero(K))
        self.values["plate.matrix_mb"] = nbytes / 1e6
        self.values["plate.matrix_nonzeros"] = nonzeros

    def _on_solve(self, caller, args, kwargs, result):
        self.values["plate.residual"] = float(result.residual)

    def _on_plate(self, caller, args, kwargs, result):
        self.values["plate.dofs"] = int(result.dofs)

    # -- results ----------------------------------------------------------

    def metrics(self):
        """Per-layer metrics by name: `<module>.<function>.<stat>` and counts."""
        out = {}
        for layer in sorted(self.calls):
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        points = self.counts["map_points"]
        composite = self.counts["composite_points"]
        out["nurbs.curve_eval.per_point"] = (
            self.calls["nurbs.curve_eval"] / points if points else 0.0, "ratio")
        out["trimming.composite_eval.per_point"] = (
            len(self._distinct) / composite if composite else 0.0, "ratio")
        out["quadrature.panels"] = (self.counts["quadrature.panels"], "count")
        out["quadrature.points"] = (self.counts["quadrature.points"], "count")
        out["plate.matrix_mb"] = (self.values.get("plate.matrix_mb", 0.0), "MB")
        out["plate.matrix_nonzeros"] = (self.values.get("plate.matrix_nonzeros", 0), "count")
        out["plate.dofs"] = (self.values.get("plate.dofs", 0), "count")
        out["plate.residual"] = (self.values.get("plate.residual", 0.0), "ratio")
        return out

    def span_tree(self):
        """Aggregated spans: caller layer, layer, calls, inclusive seconds."""
        return [
            {"caller": caller, "layer": layer, "calls": n, "inclusive_s": secs}
            for (caller, layer), (n, secs) in sorted(self.edges.items())
        ]
