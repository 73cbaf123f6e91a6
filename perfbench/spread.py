#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs perfbench/run.py (--trace 0, BENCHMARK.json's run_seconds) once per
seed for each workload and prints, per metric, the median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound. A spread at or above a third of its bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    flagged = 0
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   w, "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 cwd=ROOT, check=True).stdout
            lines = out.strip().splitlines()
            steal = json.loads(lines[-2])["context"]["cpu_steal_share"]
            metrics = json.loads(lines[-1])["metrics"]
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d done (steal %.3f, wall_s %.3f)"
                  % (w, seed, steal, metrics["wall_s"]["value"]),
                  file=sys.stderr)
        print("%s (%d runs)" % (w, args.runs))
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = spread >= m["bound"] / 3
            flagged += flag
            print("  %-15s median %-14.6g spread %.4f bound %.2f%s"
                  % (m["name"], med, spread, m["bound"],
                     "  <-- over a third of the bound" if flag else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
