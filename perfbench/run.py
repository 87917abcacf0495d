#!/usr/bin/env python3
"""Builds the benchmark program from this checkout's sources, then runs it.

    python3 perfbench/run.py --workload fig9_char_1m --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --verify --workload all

Run from the repository root. The build goes to .bench_build/ and its
output to stderr, so the program's JSON result stays the last line of
stdout. Exits non-zero, printing no result, when the build fails (for
example when the library sources are missing).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD, "perfbench")


def build():
    """Configures and builds incrementally; returns the exit code."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench",
              "--parallel", "4"]]
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
        if rc != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return rc
    return 0


def main():
    rc = build()
    if rc != 0:
        return rc
    args = sys.argv[1:]
    if "--record-digests" not in args:
        args += ["--digests", os.path.join(HERE, "digests.txt")]
    sys.stdout.flush()
    return subprocess.run([PROGRAM] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
