#!/usr/bin/env python3
"""Build the serving-path benchmark from source and run one workload.

    python3 perfbench/run.py --workload bulk_ecb --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --sweep            # mixed_open offered-load sweep
    python3 perfbench/run.py --self-test        # unit tests of the benchmark

Run from the repository root. The build goes to .bench_build/perfbench and
its log to standard error, so the last line of standard output is the
benchmark's own JSON result. Exits non-zero, printing no result, when the
program cannot be built.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target,
         "--parallel", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main(argv):
    target = "perfbench_test" if "--self-test" in argv else "perfbench"
    if not build(target):
        return 2
    if target == "perfbench_test":
        return subprocess.run([os.path.join(BUILD, target)]).returncode
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
