#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload regular|irregular|replay-mixed \
        --seed N --seconds S --trace 0|1

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Build output goes to stderr, so the last line of stdout is
the binary's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    out = os.path.join(target, "perfbench")
    os.makedirs(out, exist_ok=True)
    bench = subprocess.run([exe, *sys.argv[1:], "--out", out], check=False)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
