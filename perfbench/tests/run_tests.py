#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/tests/run_tests.py

Builds and runs the C++ unit tests (tests/selftest.cpp: metric names, the
quantile helper, span self times, the wire check), checks BENCHMARK.json's
names, and runs the `sweep` workload to check that its deterministic metrics
repeat exactly for one seed and change under another.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run as bench_run  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DETERMINISTIC_E2E = ["requests_per_loss", "repairs_per_loss",
                     "recovery_p50_ms", "recovery_p99_ms", "recovered_frac"]
# Per-layer metrics that are wall-clock measurements, not counts.
TIMED_UNITS = {"s", "ns", "1/s"}
TIMED_NAMES = {"trace.overhead_frac", "sim.pdes.speedup"}


def run_bench(workload, seed, trace, seconds=0.1):
    done = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_cpp_helpers(self):
        binary = bench_run.build("perfbench_selftest")
        subprocess.run([binary], check=True)


class MetricNames(unittest.TestCase):
    def test_benchmark_json_names(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))


class Determinism(unittest.TestCase):
    def test_end_to_end_repeats_per_seed(self):
        first = run_bench("sweep", 1, 0)
        again = run_bench("sweep", 1, 0)
        other = run_bench("sweep", 2, 0)
        for result in (first, again, other):
            self.assertTrue(result["correct"])
        values = lambda r: [r["metrics"][n]["value"] for n in DETERMINISTIC_E2E]
        self.assertEqual(values(first), values(again))
        self.assertNotEqual(values(first), values(other))

    def test_per_layer_counts_repeat_per_seed(self):
        first = run_bench("sweep", 1, 1)
        again = run_bench("sweep", 1, 1)
        other = run_bench("sweep", 2, 1)
        counts = lambda r: {n: m["value"] for n, m in r["metrics"].items()
                            if m["unit"] not in TIMED_UNITS
                            and n not in TIMED_NAMES}
        self.assertTrue(first["correct"] and again["correct"])
        self.assertEqual(counts(first), counts(again))
        self.assertNotEqual(counts(first), counts(other))


if __name__ == "__main__":
    unittest.main()
