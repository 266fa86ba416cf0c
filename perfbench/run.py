#!/usr/bin/env python3
"""Run one workload of the pipesim benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a pipesim checkout.  The first run configures and
builds perfbench/ (the pipesim library plus the runner) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only re-check the build.  A line with the run's context comes first;
the last stdout line is one JSON object with the keys correct,
attempted, failed and metrics: the end_to_end metrics BENCHMARK.json
names with --trace 0, its per_layer metrics with --trace 1, each with
the unit BENCHMARK.json gives it.  Any other arguments (--tiny,
--workers N, --golden PATH) go to the runner.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure and (re)build the runner; output goes to stderr."""
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select(values, names):
    """The named metrics, each with the unit BENCHMARK.json gives it."""
    out = {}
    for m in names:
        if m["name"] not in values:
            sys.exit(f"perfbench: the runner printed no metric {m['name']}")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args(argv)

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload}")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    workdir = os.path.join(build_dir(), f"work-{os.getpid()}")
    # The git revision goes into the context; git must not search
    # directories above the checkout for a repository.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--golden", os.path.join("results", "bench_full.txt"),
             "--workdir", workdir] + extra,
            stdout=subprocess.PIPE, text=True, env=env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: runner exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])

    group = "per_layer" if args.trace else "end_to_end"
    metrics = select(doc["metrics"], spec[group])
    print(json.dumps({"context": doc["context"],
                      "why": next(w["why"] for w in spec["workloads"]
                                  if w["name"] == args.workload)}))
    print(json.dumps({"correct": doc["correct"],
                      "attempted": doc["attempted"],
                      "failed": doc["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
