#!/usr/bin/env python3
"""Repeats one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--trace 0|1]
                                [--seconds S]

Run from the root of a checkout. The spread of a metric is the distance
between the first and third quartiles of its values (Python's
statistics.quantiles(values, n=4)) as a share of their median: the figure
a metric's bound in BENCHMARK.json must stay above. --seconds defaults to
BENCHMARK.json's run_seconds. Exits 1 if any run fails or is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--seconds")
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open("BENCHMARK.json") as f:
            seconds = str(json.load(f)["run_seconds"])

    values = {}
    units = {}
    ok = True
    for seed in args.seeds.split(","):
        begin = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", args.workload, "--seed", seed,
             "--seconds", seconds, "--trace", args.trace],
            capture_output=True, text=True)
        wall = time.time() - begin
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %s: exit %d\n%s" % (seed, proc.returncode,
                                            proc.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print("seed %s: incorrect (%d of %d failed)" % (
                seed, result["failed"], result["attempted"]))
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print("seed %s: %.1f s wall, %d tasks" % (seed, wall,
                                                  result["attempted"]))

    print("%-24s %12s %8s  %s" % ("metric", "median", "spread", "unit"))
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = 0.0
        if len(vals) >= 2 and med:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / abs(med)
        print("%-24s %12.6g %8.4f  %s" % (name, med, spread, units[name]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
