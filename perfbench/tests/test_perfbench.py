#!/usr/bin/env python3
"""Self-tests of the pipesim benchmark, at a tiny size.

    python3 -m unittest discover -s perfbench/tests

Run from the root of a checkout (the first test builds the runner).
Scratch files go under the benchmark's build directory.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
GOLDEN = os.path.join(ROOT, "results", "bench_full.txt")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

SIMULATED = ("sim.cycles", "sim.insts", "cpi.", "fetch.", "mem.",
             "replay.sampled_windows", "sampled_cpi_err_pct")


def scratch():
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


def run(workload, trace, *extra, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py",
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)
    return proc


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class EveryWorkloadEmitsEveryMetric(unittest.TestCase):
    def test_metrics_units_and_no_failures(self):
        for w in SPEC["workloads"]:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    r = result(run(w["name"], trace))
                    self.assertEqual(set(r), {"correct", "attempted",
                                              "failed", "metrics"})
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[group]}
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    for k, v in r["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), k)
                    if trace:
                        self.assertEqual(r["metrics"]["fail_frac"]["value"],
                                         0)
                        self.assertGreater(
                            r["metrics"]["prof.coverage"]["value"], 0.95)
                    else:
                        for k, v in r["metrics"].items():
                            self.assertGreater(v["value"], 0, k)


class PerturbedGoldenTableFails(unittest.TestCase):
    def test_one_changed_cell_fails_the_run(self):
        with open(GOLDEN) as f:
            text = f.read()
        # The 128-byte conv cell of Fig 5a, the row a tiny run sweeps.
        cell = "128          746994   523891"
        self.assertEqual(text.count(cell), 1)
        tmp = scratch()
        try:
            path = os.path.join(tmp, "bench_full.txt")
            with open(path, "w") as f:
                f.write(text.replace(cell, "128          746995   523891"))
            r = result(run("fig5-slowmem", 1, "--golden", path))
        finally:
            shutil.rmtree(tmp)
        self.assertFalse(r["correct"])
        self.assertGreater(r["failed"], 0)
        self.assertGreater(r["metrics"]["fail_frac"]["value"], 0)


class CountsIndependentOfWorkers(unittest.TestCase):
    def test_simulated_counts_match_across_worker_counts(self):
        for w in ("fig5-slowmem", "fig4-fastmem-par"):
            runs = [result(run(w, 1, "--workers", str(n)))["metrics"]
                    for n in (1, 3)]
            counts = [{k: v["value"] for k, v in m.items()
                       if k.startswith(SIMULATED)} for m in runs]
            self.assertGreater(counts[0]["sim.cycles"], 0)
            self.assertEqual(counts[0], counts[1], w)


class FailsWithoutTheProgram(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        tmp = scratch()
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = run("fig5-slowmem", 0, cwd=tmp, env=env)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
