#!/usr/bin/env python3
"""Compares two sets of benchmark results written by perfbench/run.py.

  python3 perfbench/compare.py --base .bench_results/A*.json \\
                               --new .bench_results/B*.json

Every result carries a context record. The comparison is refused (exit
status 2) when the runs differ in anything that makes their numbers
incomparable: workload, mode, run length, CPU count, build type,
compiler, offered rates or shard count. Seeds, commits and load averages
are recorded but may differ. For each metric it prints the median of
each side and the change, and flags a regression where the new median is
worse than the base by more than the metric's bound in BENCHMARK.json
(exit status 1).
"""

import argparse
import json
import statistics
import sys

COMPARED = ("workload", "trace", "seconds", "nproc", "build_type", "compiler",
            "offered_rate_tps", "churn_rate_per_s", "shards")


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    p.add_argument("--spec", default="BENCHMARK.json")
    args = p.parse_args()
    base, new = load(args.base), load(args.new)

    ref = {k: base[0]["context"].get(k) for k in COMPARED}
    for r, path in zip(base + new, args.base + args.new):
        diff = {k: (ref[k], r["context"].get(k)) for k in COMPARED
                if r["context"].get(k) != ref[k]}
        if diff:
            print("refusing to compare: %s differs from %s in %s" %
                  (path, args.base[0], diff))
            return 2

    with open(args.spec) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    print("%-38s %14s %14s %9s" % ("metric", "base median", "new median",
                                   "change"))
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        change = (n - b) / b if b else 0.0
        verdict = ""
        m = bounds.get(name, {})
        if "bound" in m:
            worse = change if m["better"] == "lower" else -change
            if worse > m["bound"]:
                verdict = "REGRESSION (bound %.0f%%)" % (100 * m["bound"])
                regressions += 1
        print("%-38s %14.6g %14.6g %+8.1f%% %s" %
              (name, b, n, 100 * change, verdict))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
