#!/usr/bin/env python3
"""Runs one workload on several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload commit_mix --seeds 1-10 \
        [--seconds 25] [--trace 0|1] [--json OUT]

For every metric it prints the median of the per-run values and the
distance between their first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)

    print(f"\n{args.workload}, {len(runs)} seeds, {seconds:g} s, "
          f"trace={args.trace}\n")
    print("| metric | unit | median | spread | bound | values |")
    print("|---|---|---|---|---|---|")
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        spread = ""
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / median:.3f}"
        bound = bounds.get(name)
        print(f"| {name} | {metric['unit']} | {median:.4g} | {spread} | "
              f"{'' if bound is None else bound} | "
              f"{' '.join(f'{v:.4g}' for v in values)} |")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)
    bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
