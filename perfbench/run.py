#!/usr/bin/env python3
"""Builds and runs the PSTM benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mobile_fleet --seed 1 --seconds 10 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. This script builds it in
release mode (into $CARGO_TARGET_DIR, default .bench_build), runs it
with the given arguments, and passes its output through. The last line
of standard output is the JSON result object. The exit code is 0 only
when the build succeeded, the run finished in time, its correctness gate
passed and it printed a well-formed result.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
REQUIRED = ["Cargo.toml", "crates/front/Cargo.toml", "perfbench/Cargo.toml"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        fail("run from the root of a source checkout; missing " + ", ".join(missing))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")
    binary = os.path.join(target, "release", "pstm-perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result object on the last line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result object has the wrong keys")


if __name__ == "__main__":
    main()
