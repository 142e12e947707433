#!/usr/bin/env python3
"""Builds and runs the indoorflow benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload office-topk --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (the indoorflow libraries
from src/ plus the driver) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset. The driver's last stdout line is the result
object; this script exits non-zero when the build, a correctness check or
the result line fails. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("office-topk", "mall-serve", "live-ingest")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(out):
    """Configures (once) and builds the driver; returns the binary dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/: nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"], log, 300)
        if rc != 0:
            sys.stderr.write(open(log).read()[-4000:])
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", out, "-j", jobs, "--target",
                     "perfbench_driver", "perfbench_selftest"], log, 850)
    if rc != 0:
        sys.stderr.write(open(log).read()[-4000:])
        fail("building the benchmark failed")
    return out


def run_driver(out, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    data = os.path.join(out, "data", workload)
    os.makedirs(data, exist_ok=True)
    env = dict(os.environ)
    # One generator (the driver's thread) plus nproc - 1 executor workers.
    env["INDOORFLOW_THREADS"] = str(max(1, (os.cpu_count() or 1) - 1))
    cmd = [os.path.join(out, "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--data-dir", data]
    if trace:
        cmd += ["--spans-out", os.path.join(out, "spans-%s.csv" % workload)]
    # The serving path logs one line per request to stderr; keep it in a
    # file beside the build instead of the benchmark's output.
    log = os.path.join(out, "driver-%s.log" % workload)
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  env=env, timeout=RUN_TIMEOUT_S, text=True,
                                  check=False)
        except subprocess.TimeoutExpired:
            fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
                 1)
    if proc.returncode != 0:
        sys.stderr.write(open(log).read()[-2000:])
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys \
        else None


def counters(lines):
    return [line for line in lines if line.startswith("counter ")]


def self_test(out):
    """Arithmetic self-tests, then each workload twice with one seed: the
    work counters must repeat exactly and the printed metrics must be the
    ones BENCHMARK.json declares."""
    rc = subprocess.run([os.path.join(out, "perfbench_selftest")],
                        check=False).returncode
    if rc != 0:
        fail("arithmetic self-test failed", 1)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        fail("BENCHMARK.json names a workload run.py does not know", 1)
    ok = True
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            rc, lines = run_driver(out, workload, 7, 3, False)
            result = parse_result(lines)
            if rc != 0 or result is None or not result["correct"]:
                fail("%s failed its correctness checks" % workload, 1)
            runs.append(lines)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[False]:
                print("%s: end-to-end metrics differ from BENCHMARK.json"
                      % workload)
                ok = False
        first, second = counters(runs[0]), counters(runs[1])
        if not first or first != second:
            print("%s: work counters differ between two runs of one seed:"
                  % workload)
            print("\n".join(sorted(set(first) ^ set(second))))
            ok = False
        else:
            print("%s: %d work counters repeat exactly"
                  % (workload, len(first)))
        rc, lines = run_driver(out, workload, 7, 3, True)
        result = parse_result(lines)
        if rc != 0 or result is None or not result["correct"]:
            fail("%s (traced) failed its correctness checks" % workload, 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared[True]:
            print("%s: per-layer metrics differ from BENCHMARK.json"
                  % workload)
            ok = False
    if not ok:
        fail("self-test failed", 1)
    print("perfbench self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    out = build(build_dir())
    if args.self_test:
        self_test(out)
        return 0

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        rc, lines = run_driver(out, workload, args.seed, args.seconds,
                               bool(args.trace))
        result = parse_result(lines)
        if result is None:
            sys.stdout.write("\n".join(lines) + "\n")
            fail("%s printed no result (exit %d)" % (workload, rc), 1)
        body = lines if args.workload != "all" else lines[:-1]
        sys.stdout.write("\n".join(body) + "\n")
        combined["correct"] = combined["correct"] and result["correct"] \
            and rc == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            key = name if args.workload != "all" else workload + "/" + name
            combined["metrics"][key] = metric
    if args.workload == "all":
        print(json.dumps(combined))
    sys.stdout.flush()
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
