#!/usr/bin/env python3
"""Self-tests of the RuleKit performance benchmark.

    python3 perfbench/selftest.py

Run from the root of the source tree. Checks, on smoke-size inputs:
  * every workload of BENCHMARK.json, and serving_zipf, runs to its
    end, correct, with no failed operation, and reports every end-to-end
    metric (untraced) and every per-layer metric (traced) of
    BENCHMARK.json with its unit;
  * each injected fault makes the matching reference check fail: a
    corrupted prediction (serving_zipf wire check, catalog_full layer
    recomposition), a dropped edit (rules_20k_edits probe) and a skipped
    retrain (event_drift recovery);
  * the command refuses bad arguments, and fails without printing a
    result in a directory that holds only BENCHMARK.json and the
    benchmark's own files.
Exits 0 when every case passes.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_JSON = "BENCHMARK.json"


def run(cmd, cwd="."):
    out = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return out.returncode, result, out


def main():
    if not os.path.isfile(BENCH_JSON):
        sys.exit("run from the root of the source tree (no %s)" % BENCH_JSON)
    with open(BENCH_JSON) as f:
        bench = json.load(f)
    base = list(bench["command"])
    failures = []

    def case(name, ok, detail=""):
        print("%-60s %s %s" % (name, "ok" if ok else "FAIL", detail), flush=True)
        if not ok:
            failures.append(name)

    def bench_run(workload, trace, extra=()):
        return run(base + ["--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace),
                           "--smoke"] + list(extra))

    # serving_zipf is not among the gated workloads (see README.md) but
    # stays runnable, so it is smoke-tested too.
    for workload in [w["name"] for w in bench["workloads"]] + ["serving_zipf"]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            code, result, out = bench_run(workload, trace)
            name = "smoke %s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                case(name, False, "exit %d: %s" % (code, out.stderr[-500:]))
                continue
            metrics = result["metrics"]
            want = {s["name"]: s["unit"] for s in specs}
            have = {k: v["unit"] for k, v in metrics.items()}
            case(name, result["correct"] and result["failed"] == 0 and
                 result["attempted"] >= 1 and have == want,
                 "" if have == want else "metrics differ: %s" %
                 sorted(set(want) ^ set(have)))

    negatives = [
        ("serving_zipf", 0, "corrupt_prediction"),
        ("catalog_full", 1, "corrupt_prediction"),
        ("rules_20k_edits", 0, "drop_edit"),
        ("event_drift", 0, "skip_retrain"),
    ]
    for workload, trace, fault in negatives:
        code, result, _ = bench_run(workload, trace, ["--inject", fault])
        case("negative %s --inject %s" % (workload, fault),
             code == 0 and result is not None and not result["correct"])

    code, result, _ = run(base + ["--workload", "no_such_workload",
                                  "--seed", "1", "--seconds", "1",
                                  "--trace", "0"])
    case("unknown workload is refused", code != 0 and result is None)

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(BENCH_JSON, bare)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    code, result, _ = run(base + ["--workload", bench["workloads"][0]["name"],
                                  "--seed", "1", "--seconds", "1",
                                  "--trace", "0"], cwd=bare)
    case("bare directory fails without a result", code != 0 and result is None)
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
