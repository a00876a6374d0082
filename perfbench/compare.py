"""Compare two sets of benchmark runs, per workload and per metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR [--trace 1]

Each directory holds the JSON records that `run.py` writes to
`perfbench/results/` (copy them aside between commits). For every workload
and metric it prints both sides' median and quartiles and a verdict, by the
rules of the repository's benchmark method:

* improved: the after side wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the before side's
  interquartile distance. Runs pair up by seed when both sides used the same
  seeds, otherwise in run order.
* worse: the after median is worse than the before median by more than the
  metric's bound in BENCHMARK.json. Per-layer metrics have no bound; they
  are worse by the mirror image of the improved rule.
* unresolved: the spread (interquartile distance over median) of either
  side is wider than the bound, unless every after run is better than every
  before run.
* unchanged: none of the above.

A gain does not count when the after side failed more operations; such a
verdict reads "unresolved (more failures)".
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory, trace):
    """workload -> list of run records with that trace flag, in run order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        if record.get("trace") == trace:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _value(record, name):
    return record["all_metrics"][name]["value"]


def _summary(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.4g}, {q3:.4g}]"


def pairs(before, after):
    """(before run, after run) pairs: by seed when both sides ran the same seeds."""
    by_seed_b = {r["seed"]: r for r in before}
    by_seed_a = {r["seed"]: r for r in after}
    if len(by_seed_b) == len(before) and set(by_seed_b) == set(by_seed_a):
        return [(by_seed_b[s], by_seed_a[s]) for s in sorted(by_seed_b)]
    return list(zip(before, after))


def verdict(before, after, paired, higher_is_better, bound):
    sign = 1.0 if higher_is_better else -1.0
    q1b, medb, q3b = quartiles(before)
    q1a, meda, q3a = quartiles(after)
    gain = sign * (meda - medb)
    wins = sum(1 for b, a in paired if sign * (a - b) > 0)
    losses = sum(1 for b, a in paired if sign * (a - b) < 0)
    n = len(paired)
    if n and wins >= 0.9 * n and gain > (q3b - q1b):
        return "improved"
    if bound is None:
        if n and losses >= 0.9 * n and -gain > (q3b - q1b):
            return "worse"
        return "unresolved"
    if -gain > bound * abs(medb):
        return "worse"
    spread = max((q3b - q1b) / abs(medb) if medb else 0.0,
                 (q3a - q1a) / abs(meda) if meda else 0.0)
    if spread > bound:
        if min(sign * a for a in after) > max(sign * b for b in before):
            return "unchanged"
        return "unresolved"
    return "unchanged"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    before_runs = load_runs(args.before, args.trace)
    after_runs = load_runs(args.after, args.trace)
    workloads = [w["name"] for w in spec["workloads"]]
    if not any(before_runs.get(w) and after_runs.get(w) for w in workloads):
        sys.exit("compare: no workload has runs on both sides")

    header = (f"{'workload':<14} {'metric':<36} {'before median [q1, q3]':>36} "
              f"{'after median [q1, q3]':>36}  verdict")
    print(header)
    for workload in workloads:
        before, after = before_runs.get(workload, []), after_runs.get(workload, [])
        if not before or not after:
            continue
        failed_b = sum(r["result"]["failed"] for r in before)
        failed_a = sum(r["result"]["failed"] for r in after)
        paired_runs = pairs(before, after)
        for m in metrics:
            name = m["name"]
            vb = [_value(r, name) for r in before]
            va = [_value(r, name) for r in after]
            paired = [(_value(b, name), _value(a, name)) for b, a in paired_runs]
            v = verdict(vb, va, paired, m["better"] == "higher", m.get("bound"))
            if v == "improved" and failed_a > failed_b:
                v = "unresolved (more failures)"
            print(f"{workload:<14} {name:<36} {_summary(vb):>36} {_summary(va):>36}  {v}")
        print(f"{workload:<14} runs before {len(before)}, after {len(after)}; "
              f"failed operations before {failed_b}, after {failed_a}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
