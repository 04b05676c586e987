#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code.

    python3 perfbench/steady.py [--runs 10]

Run from the root of a checkout. For round r = 1..runs it runs every
workload once for set A and once for set B, both with seed r, so the two
sets see the same seeds and the same machine phases. For each workload
and end-to-end metric it then prints both sets' medians, the shift of B
against A in the metric's worse direction, and each set's spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. A metric is flagged when the shift
exceeds its bound in BENCHMARK.json, or when a spread exceeds a third of
the bound. The spread of setup_s is printed but not flagged: a benchmark
is accepted when the spread of every end-to-end metric but setup_s is
within its bound, while setup_s, like every metric, is held to its bound
on the shift. Exits 1 if anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit("steady.py: %s seed %d failed" % (workload, seed))
    result = json.loads(r.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit("steady.py: %s seed %d produced wrong output" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    values = {s: {w: [] for w in names} for s in "AB"}
    for r in range(1, args.runs + 1):
        for s in "AB":
            for w in names:
                values[s][w].append(run(w, r))
                print("round %d set %s %s done" % (r, s, w), file=sys.stderr)
    flagged = 0
    print("%-16s %-22s %12s %12s %8s %8s %8s %7s" %
          ("workload", "metric", "median A", "median B", "shift", "spr A", "spr B", "bound"))
    for w in names:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [v[name] for v in values["A"][w]]
            b = [v[name] for v in values["B"][w]]
            ma, mb = statistics.median(a), statistics.median(b)
            shift = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            bad = shift > bound or (name != "setup_s" and max(sa, sb) > bound / 3)
            flagged += bad
            print("%-16s %-22s %12.6g %12.6g %+8.3f %8.3f %8.3f %7.3f%s" %
                  (w, name, ma, mb, shift, sa, sb, bound, "  <-" if bad else ""))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
