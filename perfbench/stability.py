#!/usr/bin/env python3
"""Check that the benchmark is steady: run every workload under several
seeds and report, for each end-to-end metric, the median and the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), beside a third of its bound.

    python3 perfbench/stability.py [--runs 10]

Run from the root of a checkout.  Every workload BENCHMARK.json names
runs for its run_seconds under seeds 1..runs, and the workload order
alternates between runs (forward on odd seeds, reversed on even ones) so
that no workload always runs first on a cold machine.  Exits 1 when a
spread reaches its metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    values = {w: {} for w in workloads}
    for seed in range(1, args.runs + 1):
        for w in workloads if seed % 2 else workloads[::-1]:
            for k, v in run_once(w, seed, spec["run_seconds"]).items():
                values[w].setdefault(k, []).append(v)

    steady = True
    print(f"{'workload':18} {'metric':14} {'median':>12} {'iqr/med':>8} "
          f"{'bound/3':>8}")
    for w in workloads:
        for m in spec["end_to_end"]:
            vs = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if spread >= m["bound"]:
                steady, flag = False, "  OVER BOUND"
            elif spread >= m["bound"] / 3:
                flag = "  over bound/3"
            print(f"{w:18} {m['name']:14} {med:12.6g} {spread:8.4f} "
                  f"{m['bound'] / 3:8.4f}{flag}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
