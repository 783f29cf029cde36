#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (a CMake package that
compiles the simulator from src/) into .bench_build/perfbench on first use,
runs one workload in its own process, checks the shape of its result and
prints it as the last line of standard output.  --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target="perfbench"):
    """Configures (once) and builds `target`; returns the binary's path."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", target])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, target)


def expected_metrics(trace):
    """Metric names BENCHMARK.json asks for in this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns the parsed result, or None with a reason on stderr."""
    try:
        result = json.loads(line)
    except ValueError:
        print("perfbench: last line is not JSON", file=sys.stderr)
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("perfbench: result keys are wrong", file=sys.stderr)
        return None
    for name, metric in result["metrics"].items():
        if not NAME_RE.match(name) or sorted(metric) != ["unit", "value"]:
            print("perfbench: bad metric " + name, file=sys.stderr)
            return None
    expected = expected_metrics(trace)
    if expected is not None:
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            wrong = sorted(n for n in set(got) & set(expected)
                           if got[n] != expected[n])
            print("perfbench: metrics differ from BENCHMARK.json: missing %s,"
                  " extra %s, unit mismatch %s" % (missing, extra, wrong),
                  file=sys.stderr)
            return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail("workload exited with status %d" % done.returncode)
    result = check_result(lines[-1], args.trace == "1")
    if result is None:
        sys.exit(3)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
