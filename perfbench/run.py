#!/usr/bin/env python3
"""End-to-end, per-layer benchmark of the spm libraries.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. On first use it configures and builds
perfbench/ (a CMake package that compiles ../src from source) into
.bench_build/perfbench; later runs only re-check the build. It then runs the
driver once for the workload, copies the driver's telemetry rows to stdout
and to .bench_out/, and prints the result object as the last line of stdout.

Exits non-zero without printing a result when the sources are missing, the
build fails, the driver fails or its result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD, "spm_perfbench")
WORKLOADS = ("simpoint_sweep", "cache_reconfig", "marker_pipeline")
# A run measures for --seconds, plus set-up and the last pass; stay well
# inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no spm sources (src/) in " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PACKAGE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [DRIVER, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
    except (IndexError, ValueError, AssertionError):
        fail("driver printed no well-formed result")

    os.makedirs(OUT, exist_ok=True)
    rows = os.path.join(OUT, "%s-seed%d-trace%d.jsonl" %
                        (a.workload, a.seed, a.trace))
    with open(rows, "w") as f:
        f.write("\n".join(lines) + "\n")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
