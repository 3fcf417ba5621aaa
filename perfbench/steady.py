#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py [--seeds 10] [--first 1]

For each workload, runs `perfbench/run.py --trace 0` once per seed and
prints, per metric, the median and the spread: the distance between the
first and third quartiles (statistics.quantiles(n=4)) as a share of the
median, next to a third of the metric's bound from BENCHMARK.json.
Exits non-zero if a run fails its output check or a spread reaches a
third of its metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for workload in bench["workloads"]:
        w = workload["name"]
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first, args.first + args.seeds):
            res = run(w, seed, bench["run_seconds"])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: output check failed: {res}")
                ok = False
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            limit = m["bound"] / 3
            flag = "" if spread < limit else "  WIDE"
            ok = ok and flag == ""
            print(f"{w:12} {m['name']:20} median {med:14.6g}  "
                  f"spread {spread:7.4f}  bound/3 {limit:.4f}{flag}")
            print("    " + " ".join(f"{x:.6g}" for x in xs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
