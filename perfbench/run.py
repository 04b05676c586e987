#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe with
dune in the release profile (into .bench_build/), runs the workload for
S seconds, and relays the binary's output. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics: with
--trace 0 the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics. `--workload all` runs every workload in turn.

The exit code is non-zero, with no JSON printed, when the build fails,
the binary fails or times out, or its metrics do not match BENCHMARK.json.
Extra arguments after the known ones (--corrupt-references,
--corrupt-job I, --print-refs) go to the binary unchanged.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "dune"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = dune() + ["build", "--root", ".", "--profile", "release",
                    "--build-dir", BUILD_DIR, "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout)
        fail("build failed")


def spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def run_one(workload, seed, seconds, trace, extra, expected):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("%s exited with code %d" % (workload, r.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON" % workload)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail("%s: metrics differ from BENCHMARK.json" % workload)
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = p.parse_known_args()
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in bench[key]}
    build()
    if args.workload != "all":
        text, result = run_one(args.workload, args.seed, seconds, args.trace, extra, expected)
        print("\n".join(text))
        print(json.dumps(result))
        return
    # Every workload in turn, one combined result keyed workload/metric.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        text, result = run_one(name, args.seed, seconds, args.trace, extra, expected)
        print("\n".join(text))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][name + "/" + metric] = value
    print(json.dumps(total))


if __name__ == "__main__":
    main()
