#!/usr/bin/env python3
"""Builds and runs the RuleKit performance benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--smoke] [--inject <fault>]

Run from the root of a source tree. The first run configures and builds a
Release tree of its own under .bench_build/ (separate from the
RelWithDebInfo build/ of the repository); later runs reuse it. The
benchmark binary's output is passed through; its last line is the result
object (correct, attempted, failed, metrics). Exits non-zero, without a
result, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_TYPE = "Release"
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-" + BUILD_TYPE.lower())
BINARY = os.path.join(BUILD_DIR, "rulekit_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("# " + msg, file=sys.stderr, flush=True)


def source_id():
    """The git commit of the tree, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/CMakeLists.txt here: run from the root of a RuleKit tree")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    for step in steps:
        out = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:])
            log("build step failed: " + " ".join(step))
            return False
    return True


def main(argv):
    if not build():
        return 1
    args = [BINARY] + argv + ["--commit", source_id(),
                              "--build-type", BUILD_TYPE]
    try:
        out = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run timed out")
        return 1
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    if out.returncode != 0:
        log("benchmark exited with status %d" % out.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
