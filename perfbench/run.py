#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver and the repository's
libraries are built with CMake into .bench_build/perfbench (build output
goes to stderr); the driver's stdout is passed through, so its last line
is the JSON result. Traced runs write their spans next to the build.
Exits 2 without a result when the checkout has no sources to build or
the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to perfbench/; run from a full checkout of the "
             "repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(cmd))


def spans_path(argv):
    """.bench_build/perfbench/spans-<workload>.csv for traced runs."""
    workload = "run"
    for i, arg in enumerate(argv):
        if arg == "--workload" and i + 1 < len(argv):
            workload = argv[i + 1]
        elif arg.startswith("--workload="):
            workload = arg.split("=", 1)[1]
    safe = "".join(c for c in workload if c.isalnum() or c in "_-") or "run"
    return os.path.join(BUILD, "spans-%s.csv" % safe)


def main(argv):
    build()
    cmd = [EXE] + argv
    if "--spans" not in argv:
        cmd += ["--spans", spans_path(argv)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
