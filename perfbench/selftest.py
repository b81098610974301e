#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Two traced runs of upload_overflow with one seed must replay the same op
sequence (same op digest) and give identical count metrics: WAL bytes and
appends, page writes and evictions, socket bytes. A run with another seed
must replay a different op sequence. upload_overflow is used because it is
the workload where every one of these counts is non-zero. Exits non-zero
on the first mismatch.
"""

import json
import os
import subprocess
import sys

WORKLOAD = "upload_overflow"
SEED, OTHER_SEED = 1, 2
COUNTS = [
    "storage.wal_bytes_per_op",
    "storage.wal_appends_per_op",
    "storage.page_writes_per_op",
    "storage.evictions_per_op",
    "net.bytes_per_op",
]


def traced(seed):
    run = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    out = subprocess.run(
        [sys.executable, run, "--workload", WORKLOAD, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True).stdout.splitlines()
    digest = next(tok.split("=", 1)[1] for line in out if line.startswith("#")
                  for tok in line.split() if tok.startswith("op_digest="))
    metrics = json.loads(out[-1])["metrics"]
    return digest, {name: metrics[name]["value"] for name in COUNTS}


def main():
    first, second, other = traced(SEED), traced(SEED), traced(OTHER_SEED)
    failures = []
    if first[0] != second[0]:
        failures.append("same seed, different op sequences: %s vs %s"
                        % (first[0], second[0]))
    for name in COUNTS:
        if first[1][name] != second[1][name]:
            failures.append("same seed, %s differs: %r vs %r"
                            % (name, first[1][name], second[1][name]))
        if first[1][name] == 0:
            failures.append("%s is 0, so it proves nothing" % name)
    if first[0] == other[0]:
        failures.append("seeds %d and %d replay the same op sequence"
                        % (SEED, OTHER_SEED))
    for f in failures:
        print("FAIL: " + f)
    print("selftest: %s (digests %s %s %s)"
          % ("FAIL" if failures else "ok", first[0], second[0], other[0]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
