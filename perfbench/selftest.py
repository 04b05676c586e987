#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute. Checks that:
- with the pinned references intact, pass_share is 1.0 on the default
  seed, and with every reference corrupted it drops and the result is
  marked incorrect (fuzz, mcheck, sim-probed-par);
- on sim-churn-seq with a seed that has no pinned reference, one job
  whose digest differs from the others' lowers pass_share;
- alloc_check.exe: words allocated on a worker domain of a scoped pool
  are all counted by a GC reading taken after the pool has joined it.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402


def run(workload, *extra, seed=1, seconds=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"] + list(extra)
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.exit("selftest.py: %s %s failed to run" % (workload, " ".join(extra)))
    result = json.loads(r.stdout.splitlines()[-1])
    return result, {k: v["value"] for k, v in result["metrics"].items()}


def main():
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in ("fuzz", "mcheck"):
        result, m = run(w)
        check(result["correct"] and m["pass_share"] == 1.0,
              "%s: pass_share 1.0 with the pinned references" % w)
        result, m = run(w, "--corrupt-references")
        check(not result["correct"] and m["pass_share"] < 1.0,
              "%s: pass_share %.3f < 1.0 with corrupted references" % (w, m["pass_share"]))

    result, m = run("sim-probed-par", "--corrupt-references")
    check(not result["correct"] and m["pass_share"] < 1.0,
          "sim-probed-par: pass_share %.3f < 1.0 with corrupted references" % m["pass_share"])

    # Seed 2 has no pinned churn reference, so only the agreement between
    # the run's jobs can catch the altered digest; 6 s holds two jobs.
    result, m = run("sim-churn-seq", seed=2, seconds=6)
    check(result["correct"] and m["pass_share"] == 1.0 and result["attempted"] >= 2,
          "sim-churn-seq seed 2: %d jobs agree" % result["attempted"])
    result, m = run("sim-churn-seq", "--corrupt-job", "1", seed=2, seconds=6)
    check(not result["correct"] and m["pass_share"] < 1.0,
          "sim-churn-seq seed 2: pass_share %.3f < 1.0 with one job's digest altered"
          % m["pass_share"])

    exe = os.path.join(bench_run.BUILD_DIR, "default", "perfbench", "alloc_check.exe")
    built = subprocess.run(bench_run.dune() + ["build", "--root", ".", "--profile", "release",
                                               "--build-dir", bench_run.BUILD_DIR,
                                               "./perfbench/alloc_check.exe"])
    r = subprocess.run([exe], stdout=subprocess.PIPE, text=True) if built.returncode == 0 else None
    check(r is not None and r.returncode == 0,
          r.stdout.strip() if r is not None else "alloc_check.exe failed to build")

    if failures:
        sys.exit("selftest.py: %d check(s) failed" % len(failures))


if __name__ == "__main__":
    main()
