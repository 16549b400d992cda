#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The executable is built with dune into .bench_build/ (release profile,
dune cache off, so nothing is written outside the checkout), then run
from the checkout root with the same arguments. Build output goes to
standard error; the last line of standard output is the benchmark's
JSON result. Exits non-zero, printing no result, when the checkout lacks
the sources the benchmark builds or reads.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
REQUIRED = [
    "dune-project",
    "lib/parallel/parallel.mli",
    "lib/fuzz/mcheck.mli",
    "test/fixtures/diff/golden_sim.txt",
]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main() -> int:
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a full checkout, missing: " + ", ".join(missing),
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "-j", "2", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
