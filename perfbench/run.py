#!/usr/bin/env python3
"""Builds perfbench from the checkout it runs in, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, rebuilt incrementally); build output goes to stderr so
that standard output ends with the benchmark's result line. Everything
else on the command line is passed to the benchmark binary. Exits
non-zero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
JOBS = "4"


def run_build_step(args):
    return subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr).returncode


def configure():
    args = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        args += ["-G", "Ninja"]
    return run_build_step(args)


def build():
    """Configures on first use; reconfigures from scratch once if the cached
    configuration no longer builds (for example, a moved checkout)."""
    for attempt in range(2):
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if configure() != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        status = run_build_step(["cmake", "--build", BUILD_DIR,
                                 "--target", "perfbench", "-j", JOBS])
        if status == 0:
            return True
        if attempt == 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
    return False


def source_revision():
    """The git commit when the checkout is a repository, else "unknown"."""
    if not os.path.isdir(".git") or not shutil.which("git"):
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD_DIR, "perfbench")
    args = [binary] + sys.argv[1:] + ["--work-dir", WORK_DIR,
                                      "--commit", source_revision()]
    try:
        status = subprocess.run(args).returncode
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
