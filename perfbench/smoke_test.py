#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py [--seconds S]

Run from the root of a checkout. Runs every workload BENCHMARK.json lists,
plus time-sweep (kept out of BENCHMARK.json, see README.md), briefly (one
pass each by default), untraced and traced, and asserts that:

  * the last output line is the result object with exactly the keys
    correct, attempted, failed and metrics, and correct is true;
  * the untraced result carries every end_to_end metric and the traced one
    every per_layer metric, each with the unit BENCHMARK.json gives;
  * the report line prints every end-to-end metric named in the
    benchmark's README (error_rate included) with its unit, and
    error_rate is 0;
  * the host and dispatch record is present.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.getcwd()
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUNNER = os.path.join("perfbench", "run.py")
EXTRA_WORKLOADS = ["time-sweep"]
HOST_KEYS = ["kernel", "kernel_detected", "nproc", "l2_bytes", "l3_bytes",
             "compiler", "commit", "ndebug"]


def run(workload, trace, seconds):
    cmd = [sys.executable, RUNNER, "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd),
                             proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    reports = [l for l in lines if l.startswith("perfbench-report ")]
    if len(reports) != 1:
        raise AssertionError("expected one report line, got %d" % len(reports))
    return result, json.loads(reports[0].split(" ", 1)[1])


def check_metrics(where, metrics, expected):
    for entry in expected:
        got = metrics.get(entry["name"])
        if got is None:
            raise AssertionError("%s: metric %s missing" % (where, entry["name"]))
        if got.get("unit") != entry["unit"]:
            raise AssertionError("%s: %s has unit %r, want %r" % (
                where, entry["name"], got.get("unit"), entry["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            raise AssertionError("%s: %s value is not a number" % (
                where, entry["name"]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    # error_rate is printed in the report; BENCHMARK.json carries its
    # complement ok_ratio because its metrics must never read 0.
    report_metrics = spec["end_to_end"] + [{"name": "error_rate",
                                            "unit": "ratio"}]
    failures = []
    for workload in [w["name"] for w in spec["workloads"]] + EXTRA_WORKLOADS:
        for trace in (0, 1):
            where = "%s trace=%d" % (workload, trace)
            try:
                result, report = run(workload, trace, args.seconds)
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    raise AssertionError("result keys %s" % sorted(result))
                if not result["correct"] or result["failed"] != 0:
                    raise AssertionError("incorrect run: %s" %
                                         report.get("failures"))
                expected = spec["per_layer"] if trace else spec["end_to_end"]
                check_metrics(where, result["metrics"], expected)
                flat = dict(report["end_to_end"])
                flat["error_rate"] = report["error_rate"]
                check_metrics(where + " report", flat, report_metrics)
                if report["error_rate"]["value"] != 0:
                    raise AssertionError("error_rate %s" %
                                         report["error_rate"]["value"])
                missing = [k for k in HOST_KEYS if k not in report["host"]]
                if missing:
                    raise AssertionError("host record lacks %s" % missing)
                print("ok   %s (%d tasks)" % (where, report["tasks"]))
            except (AssertionError, ValueError, KeyError) as e:
                failures.append(where)
                print("FAIL %s: %s" % (where, e))
    if failures:
        print("%d smoke check(s) failed" % len(failures))
        return 1
    print("all smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
