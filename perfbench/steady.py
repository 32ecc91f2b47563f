#!/usr/bin/env python3
"""Steadiness check: runs the workloads K times, interleaved, and prints
for each end-to-end metric its median, quartiles and spread next to the
bound BENCHMARK.json gives it.

    python3 perfbench/steady.py [--runs K] [--sets 2] [--workloads a,b]
                                [--seed-base N] [--seconds S]

Run from the repository root. Round r runs every workload once with seed
seed-base + r. The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). With --sets 2 the K rounds are made
twice: the spread shown is the larger of the two sets', the quartiles
the last set's, and the drift is the second set's median against the
first's, signed so that positive is worse; it must stay within the
bound.
Every run's failed share must be the same within a set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    return json.loads(lines[-1])


def one_set(workloads, runs, seed_base, seconds):
    results = {w: [] for w in workloads}
    for r in range(runs):
        for w in workloads:
            results[w].append(run(w, seed_base + r, seconds))
            sys.stderr.write(".")
            sys.stderr.flush()
    sys.stderr.write("\n")
    return results


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=[1, 2], default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    sets = [one_set(workloads, args.runs, args.seed_base, seconds)
            for _ in range(args.sets)]

    ok = True
    print("%-16s %-22s %12s %12s %12s %8s %8s %8s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound", "drift"))
    for w in workloads:
        shares = {r["failed"] / r["attempted"] for s in sets for r in s[w]}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians, spreads = [], []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s[w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                spreads.append((q3 - q1) / med if med else float("inf"))
            spread = max(spreads)  # the worse set
            drift = 0.0
            if len(medians) == 2 and medians[0]:
                drift = (medians[1] - medians[0]) / medians[0]
                if m["better"] == "higher":
                    drift = -drift
            verdict = ""
            if name != "setup_s" and spread > bound:
                verdict, ok = "SPREAD>BOUND", False
            elif drift > bound:
                verdict, ok = "DRIFT>BOUND", False
            elif name != "setup_s" and spread > bound / 3:
                verdict = "spread>bound/3"
            print("%-16s %-22s %12.4g %12.4g %12.4g %8.3f %8.3f %8.3f %s" %
                  (w, name, med, q1, q3, spread, bound, drift, verdict))
        if len(shares) != 1:
            ok = False
        print("%-16s failed share %s" % (w, sorted(shares)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
