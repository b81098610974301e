#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one benchmark workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program and the itag library are compiled from ../src with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
in a checkout builds, later runs reuse the build. Build output goes to
stderr, so the last line of stdout is the program's JSON result. Data
directories live under the same build directory and are removed afterwards.
Exits non-zero when the build fails or an output check fails.
"""

import os
import shutil
import subprocess
import sys


def main(argv):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    binary = os.path.join(build_dir, "perfbench")

    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    data_dir = os.path.join(target, "perfbench-data-%d" % os.getpid())
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else "none"
    trace_out = os.path.join(target, "perfbench-trace-%s.json" % os.path.basename(workload))
    try:
        cmd = [binary] + argv + ["--data-dir", data_dir, "--trace-out", trace_out]
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
