#!/usr/bin/env python3
"""Build the POI360 benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <call|crowd|grid|matrix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds both benchmark binaries (release) into $CARGO_TARGET_DIR, or
`.bench_build` when it is unset, then runs `perfbench` for timed runs
(`--trace 0`) and `perfbench-traced` for the traced run (`--trace 1`).
The last line of standard output is the benchmark's JSON result; build
output goes to standard error. Exits non-zero, without a result, when the
build or the run fails.
"""

import os
import subprocess
import sys


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    manifest = os.path.join("perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
         "--manifest-path", manifest, "--target-dir", target],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    traced = any(flag == "--trace" and value != "0" for flag, value in zip(argv, argv[1:]))
    exe = os.path.join(target, "release", "perfbench-traced" if traced else "perfbench")
    return subprocess.run([exe] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
