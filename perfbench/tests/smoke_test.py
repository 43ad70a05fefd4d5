#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, untraced and
traced, must be correct and emit exactly the metrics BENCHMARK.json names,
each with its unit; the human report must give sample counts.

    python3 perfbench/tests/smoke_test.py BINARY

BINARY is the built idl_perfbench (see perfbench/README.md).
"""

import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(binary, workload, trace, scratch):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--tiny", "--scratch-dir", scratch],
        capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main():
    binary = os.path.abspath(sys.argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    with tempfile.TemporaryDirectory(dir=os.path.dirname(binary)) as scratch:
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                report, result = run(binary, workload, trace, scratch)
                where = f"{workload} trace={trace}"
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{where}: result keys {sorted(result)}")
                if result["correct"] is not True or result["failed"] != 0:
                    problems.append(f"{where}: not correct: {report[-3:]}")
                if not result["attempted"] >= 1:
                    problems.append(f"{where}: nothing attempted")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(f"{where}: metrics {got} != {expected[trace]}")
                for name, metric in result["metrics"].items():
                    if set(metric) != {"value", "unit"} or not isinstance(
                            metric["value"], (int, float)):
                        problems.append(f"{where}: bad metric {name}: {metric}")
                if not any("(n=" in line for line in report):
                    problems.append(f"{where}: report gives no sample counts")
                if trace == 0:
                    zero = [k for k, v in result["metrics"].items()
                            if v["value"] <= 0]
                    if zero:
                        problems.append(f"{where}: end-to-end metrics not > 0: {zero}")
                print(f"ok  {where}: {len(got)} metrics")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
