"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload iges-ingest --seed 3 --seconds 20 --trace 0

Run from the root of a source checkout: trimiga is imported from `src/` next
to this directory, never from an installed copy. Human-readable lines go to
stdout first; the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones
of BENCHMARK.json, measured with no wrappers installed; operation and set-up
times are scaled to a reference machine speed (calibrate.py). With `--trace 1` the
same operations run once untraced and once traced, and the metrics are the
per-layer ones, including the tracing overhead. Every run also writes a JSON
record (environment, all metrics, aggregated spans) to `perfbench/results/`.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: BLAS threads, the same on every run; set before numpy loads
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

#: set-up samples per run: this process plus SETUP_REPEATS fresh interpreters.
#: They are not scaled to the reference speed (calibrate.py): import time
#: did not follow the calibration kernel's speed, and the raw samples agree
#: closely within a run
SETUP_REPEATS = 6
SETUP_TIMEOUT_S = 60


def _pin_blas_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    """Import trimiga from ROOT/src; exit non-zero if it is not there."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import trimiga
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import trimiga from {src}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(trimiga.__file__))) != src:
        sys.exit(f"perfbench: trimiga was imported from {trimiga.__file__}, not {src}")


def _setup_only(workload, seed):
    """Child mode: import and build the inputs, print the seconds it took."""
    t0 = time.perf_counter()
    _import_program()
    from workloads import WORKLOADS

    WORKLOADS[workload].build(seed)
    print(repr(time.perf_counter() - t0))


def _setup_samples(workload, seed):
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up child failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _environment():
    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(workload, setup_s, peak_rss_mb, latencies):
    """Contract metrics, plus the same figures under the workload's own names."""
    import numpy as np

    ms = [float(x) * 1e3 for x in latencies]
    tail_name, tail_q = workload.tail
    tail = max(ms) if tail_q is None else float(np.percentile(ms, tail_q))
    p50 = statistics.median(ms)
    rate = len(latencies) / sum(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_tail": (tail, "ms"),
    }
    unit = workload.unit_name
    if unit == "solve":
        named = {"solve_s": (p50 / 1e3, "s")}
    elif unit == "region":
        named = {"regions_per_s": (rate, "1/s"), "region_ms_p50": (p50, "ms"),
                 f"region_ms_{tail_name}": (tail, "ms")}
    else:
        # the p99 is printed but is no contract metric: see PointQueries.tail
        named = {"queries_per_s": (rate, "1/s"), "query_us_p50": (p50 * 1e3, "us"),
                 f"query_us_{tail_name}": (tail * 1e3, "us"),
                 "query_us_p99": (float(np.percentile(ms, 99)) * 1e3, "us")}
    return metrics, named


def main(argv=None):
    _pin_blas_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0

    t0 = time.perf_counter()
    _import_program()
    from workloads import WORKLOADS, run_loop

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    setup_here = time.perf_counter() - t0
    spec = _load_spec()
    setup_samples = [setup_here] + _setup_samples(args.workload, args.seed)
    setup_s = statistics.median(setup_samples)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup_samples}
    if args.trace == 0:
        from calibrate import Speedometer

        with Speedometer() as speed:
            latencies, starts, failures, kept, wall = run_loop(
                workload, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scaled, factors = speed.scale(starts, latencies)
        metrics, named = end_to_end(workload, setup_s, peak_rss_mb, scaled)
        _, named_wall = end_to_end(workload, setup_s, peak_rss_mb, latencies)
        named.update((f"{name}_wall", value) for name, value in named_wall.items())
        named["speed_factor"] = (statistics.median(factors), "x")
        record["calibration_ms"] = speed.ms
        declared = [m["name"] for m in spec["end_to_end"]]
    else:
        from tracer import Tracer

        latencies, _, failures, kept, wall = run_loop(workload, inputs, args.seconds)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, traced_failures, traced_kept, traced_wall = run_loop(
                workload, inputs, args.seconds, count=len(latencies))
        finally:
            tracer.uninstall()
        failures += traced_failures
        kept += traced_kept
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_wall - wall) / wall, "%")
        named = {"untraced_wall_s": (wall, "s"), "traced_wall_s": (traced_wall, "s")}
        record["spans"] = tracer.span_tree()
        latencies = latencies + traced
        declared = [m["name"] for m in spec["per_layer"]]

    failures += workload.verify(inputs, kept)
    attempted = len(latencies)
    failed = min(len(failures), attempted)
    env = _environment()

    for name, (value, unit) in named.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    for problem in failures[:20]:
        print(f"FAILED {problem}")
    print("environment " + json.dumps(env, sort_keys=True))

    missing = [name for name in declared if name not in metrics]
    if missing:
        sys.exit(f"perfbench: metrics not produced: {missing}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }
    record.update({
        "environment": env,
        "result": result,
        "all_metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "failures": failures,
    })
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = os.path.join(out_dir, f"{args.workload}_seed{args.seed}_trace{args.trace}"
                                 f"_{stamp}_{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
