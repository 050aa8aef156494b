#!/usr/bin/env python3
"""Builds the simulator benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <kvs_get|dlrm_gather|txn_chain> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package in this directory. It is built in release
mode (into $CARGO_TARGET_DIR, or perfbench/target when that is unset) and
then run with the same arguments. Its standard output is passed through;
the last line is the JSON result. Build output goes to standard error. The
exit code is non-zero when the build or the run fails, or when the run
prints no well-formed result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(target, "release", "rambda-perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the run printed no JSON result", file=sys.stderr)
        return 1
    if set(result) != RESULT_KEYS:
        print(f"perfbench: result keys {sorted(result)} are not {sorted(RESULT_KEYS)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
