#!/usr/bin/env python3
"""Steadiness and compare tool for the RuleKit performance benchmark.

Run each workload on several seeds and summarise every end-to-end metric:

    python3 perfbench/steady.py run --seeds 1-10 --out a.json \
        [--workloads catalog_full,serving_zipf] [--seconds S] [--trace 0|1]

prints, per workload and metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median. A spread above
the metric's bound in BENCHMARK.json is flagged UNSTEADY, one above a
third of it WIDE.

Compare two such result sets against the bounds:

    python3 perfbench/steady.py compare a.json b.json

A metric is a regression when b's median is worse than a's by more than
its bound, and unresolved when either set's spread is wider than the
bound, unless every run of b is better than every run of a. The share of
failed operations must be identical in both sets.

Run from the root of the source tree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_JSON = "BENCHMARK.json"


def load_benchmark():
    with open(BENCH_JSON) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "error":
                "exit %d" % out.returncode}
    result = json.loads(lines[-1])
    result.update({"workload": workload, "seed": seed})
    for line in lines:
        if line.startswith("# detail: "):
            result["detail"] = json.loads(line[len("# detail: "):])
        elif line.startswith("# run: "):
            result["run"] = json.loads(line[len("# run: "):])
    return result


def spread(values):
    if len(values) < 2:
        return 0.0, values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf"), q1, med, q3


def metric_specs(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def summarize(bench, runs, trace):
    ok = True
    by_workload = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
    for workload, rs in by_workload.items():
        good = [r for r in rs if "error" not in r]
        print("== %s: %d runs, %d errored, %d incorrect" % (
            workload, len(rs), len(rs) - len(good),
            sum(1 for r in good if not r["correct"])))
        if len(good) != len(rs) or any(not r["correct"] for r in good):
            ok = False
        if not good:
            continue
        shares = sorted({(r["failed"] / r["attempted"]) for r in good})
        print("   failed share: %s" % ", ".join("%.6g" % s for s in shares))
        for spec in metric_specs(bench, trace):
            values = [r["metrics"][spec["name"]]["value"] for r in good
                      if spec["name"] in r["metrics"]]
            if len(values) != len(good):
                print("   %-34s MISSING in %d runs" % (
                    spec["name"], len(good) - len(values)))
                ok = False
                continue
            s, q1, med, q3 = spread(values)
            bound = spec.get("bound")
            flag = ""
            if bound is not None:
                if s > bound:
                    flag = "UNSTEADY"
                    ok = False
                elif s > bound / 3:
                    flag = "WIDE"
            print("   %-34s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f"
                  "%s %s" % (spec["name"], med, q1, q3, s,
                             "" if bound is None else " (bound %.2f)" % bound,
                             flag))
    return ok


def cmd_run(args):
    bench = load_benchmark()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            r = run_once(bench, workload, seed, seconds, args.trace)
            runs.append(r)
            print("%s seed %d: %s" % (
                workload, seed, r.get("error") or json.dumps(r["metrics"])),
                flush=True)
            if args.out:
                with open(args.out, "w") as f:
                    json.dump({"trace": args.trace, "runs": runs}, f, indent=1)
    return 0 if summarize(bench, runs, args.trace) else 1


def cmd_summary(args):
    with open(args.results) as f:
        data = json.load(f)
    return 0 if summarize(load_benchmark(), data["runs"], data["trace"]) else 1


def cmd_compare(args):
    bench = load_benchmark()
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    ok = True
    workloads = sorted({r["workload"] for r in base["runs"]} |
                       {r["workload"] for r in new["runs"]})
    for workload in workloads:
        a = [r for r in base["runs"] if r["workload"] == workload
             and "error" not in r]
        b = [r for r in new["runs"] if r["workload"] == workload
             and "error" not in r]
        print("== %s (%d vs %d runs)" % (workload, len(a), len(b)))
        if not a or not b:
            print("   missing runs")
            ok = False
            continue
        fa = sum(r["failed"] for r in a) / sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b) / sum(r["attempted"] for r in b)
        if fa != fb:
            print("   failed share differs: %.6g vs %.6g" % (fa, fb))
            ok = False
        for spec in metric_specs(bench, base["trace"]):
            name, bound = spec["name"], spec.get("bound")
            va = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not va or not vb:
                print("   %-34s missing" % name)
                ok = False
                continue
            sa, _, ma, _ = spread(va)
            sb, _, mb, _ = spread(vb)
            lower = spec["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            if bound is None:
                verdict = "(no bound)"
            elif (max(sa, sb) > bound and
                  not (max(vb) < min(va) if lower else min(vb) > max(va))):
                verdict = "UNRESOLVED (spread wider than bound)"
                ok = False
            elif worse > bound:
                verdict = "REGRESSED"
                ok = False
            else:
                verdict = "ok"
            print("   %-34s %-12.6g -> %-12.6g worse by %+7.3f%s  %s" % (
                name, ma, mb, worse,
                "" if bound is None else " (bound %.2f)" % bound, verdict))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run", help="run workloads on seeds and summarise")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("summary", help="summarise a saved result set")
    p.add_argument("results")
    p.set_defaults(fn=cmd_summary)
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    args = parser.parse_args()
    if not os.path.isfile(BENCH_JSON):
        sys.exit("run from the root of the source tree (no %s)" % BENCH_JSON)
    sys.exit(args.fn(args))


if __name__ == "__main__":
    main()
