#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (with the engine sources
under src/) into .bench_build/, runs one workload, writes the result with
its context record to .bench_results/, prints a readable report and, as
the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (and writes the spans).

Exit status is non-zero, and no JSON line is printed, when the build
fails, the engine fails, or any query's output differs from its
reference.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BINARY = "tcq_perfbench"
WORKLOADS = ("filters_inline", "windowed_history", "sharded_disorder")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def local_env():
    """The environment for child processes, with temporary files (the
    compiler's included) kept inside the checkout."""
    tmp = os.path.abspath(".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "Makefile")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=local_env()).returncode:
            return None
    cmd = ["cmake", "--build", out, "--target", BINARY, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=local_env()).returncode:
        return None
    return os.path.join(out, BINARY)


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-1 over the engine and benchmark sources: names the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    """HEAD's commit, read from .git in the current directory only (no
    git process, no search above the checkout); "unknown" elsewhere."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref)) as f:
                return f.read().strip()
        except OSError:
            with open(os.path.join(".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args, report):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = "unknown"
    try:
        r = subprocess.run([compiler, "--version"], capture_output=True,
                           text=True, timeout=10)
        version = r.stdout.splitlines()[0] if r.returncode == 0 else version
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "compiler": version,
        "offered_rate_tps": report["offered_rate_tps"]["value"],
        "churn_rate_per_s": report["churn_rate_per_s"]["value"],
        "shards": report["shards"]["value"],
        # Recorded, not compared: they differ between runs by design.
        "seed": args.seed,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "loadavg": list(os.getloadavg()),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(args):
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    os.makedirs(".bench_tmp", exist_ok=True)
    os.makedirs(".bench_results", exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", ".bench_tmp"]
    if args.trace:
        cmd += ["--spans", os.path.join(".bench_results", tag + ".spans.jsonl")]
    if args.perturb_oracle:
        cmd.append("--perturb-oracle")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, env=local_env())
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    if r.returncode != 0:
        log("perfbench: run failed with status %d" % r.returncode)
        return r.returncode
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        return 3
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        log("perfbench: metrics differ from BENCHMARK.json: %s" %
            sorted(set(want) ^ set(result["metrics"])))
        return 1

    record = {
        "context": context(args, result["report"]),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "report": result["report"],
    }
    path = os.path.join(".bench_results",
                        tag + time.strftime("-%Y%m%dT%H%M%S") + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    ctx = record["context"]
    print("perfbench %s seed=%d trace=%d seconds=%s | nproc=%s %s %s | "
          "loadavg=%.2f | %s" %
          (args.workload, args.seed, args.trace, args.seconds, ctx["nproc"],
           ctx["build_type"], ctx["compiler"], ctx["loadavg"][0], path))
    for section in ("metrics", "report"):
        for name, m in result[section].items():
            print("  %-38s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


def selftest():
    """Determinism of inputs and references, and that a perturbed
    expectation makes every workload fail."""
    binary = build()
    if binary is None:
        return 1
    ok = subprocess.run([binary, "--selftest"]).returncode == 0
    os.makedirs(".bench_tmp", exist_ok=True)
    for w in WORKLOADS:
        base = [binary, "--workload", w, "--seed", "1", "--seconds", "1",
                "--trace", "0", "--tmp", ".bench_tmp"]
        good = subprocess.run(base, capture_output=True, text=True)
        bad = subprocess.run(base + ["--perturb-oracle"], capture_output=True,
                             text=True)
        fires = bad.returncode == 3 and not bad.stdout.strip()
        log("selftest %-17s reference check passes: %s, perturbed "
            "expectation fails the run: %s" %
            (w, "yes" if good.returncode == 0 else "NO",
             "yes" if fires else "NO"))
        ok = ok and good.returncode == 0 and fires
    log("selftest %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--perturb-oracle", action="store_true",
                   help="corrupt one expected answer (the run must fail)")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
