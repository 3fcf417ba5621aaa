#!/usr/bin/env python3
"""Build the benchmark from source with dune, then run it.

    python3 perfbench/run.py --workload serve-sw|federate-pr|toolchain \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Build output goes to stderr; the last
line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the build or the run fails, or when the result does not
list exactly BENCHMARK.json's metrics for the mode (end_to_end with
--trace 0, per_layer with --trace 1), by name, unit and order.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def schema_error(args, stdout):
    """Why the result line disagrees with BENCHMARK.json, or None."""
    if "--trace" not in args:
        return None
    trace = args[args.index("--trace") + 1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = [(m["name"], m["unit"])
            for m in bench["per_layer" if trace == "1" else "end_to_end"]]
    lines = stdout.strip().splitlines()
    if not lines:
        return "no result line"
    got = [(k, v["unit"])
           for k, v in json.loads(lines[-1])["metrics"].items()]
    if got != want:
        return f"metrics {got} differ from BENCHMARK.json's {want}"
    return None


def main():
    # --cache=disabled keeps every build write inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    run = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode
    error = schema_error(args, run.stdout)
    if error:
        sys.stderr.write(run.stdout)
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
