#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/tests/selfcheck.py

Runs every workload named in BENCHMARK.json at a tiny scale, untraced and
traced, and asserts that each run passes its output checks and prints
every metric BENCHMARK.json names, by name, with its unit, both in the
human-readable listing and in the JSON result on the last line. Then
checks that the benchmark refuses to run, without printing a result,
from a directory that holds only BENCHMARK.json and the benchmark's own
files. Exits non-zero on the first failure.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def check(condition, message):
    if not condition:
        print(f"selfcheck: FAIL: {message}")
        sys.exit(1)


def run_benchmark(cwd, workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_run(benchmark, workload, trace):
    proc = run_benchmark(ROOT, workload, trace)
    what = f"{workload} --trace {trace}"
    check(proc.returncode == 0,
          f"{what} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result keys are {sorted(result)}")
    check(result["correct"] is True, f"{what}: an output check failed")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{what}: attempted {result['attempted']}, "
          f"failed {result['failed']}")
    expected = benchmark["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in expected},
          f"{what}: metric names differ from BENCHMARK.json")
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        reported = result["metrics"][name]
        check(reported["unit"] == unit,
              f"{what}: {name} has unit {reported['unit']}, not {unit}")
        check(isinstance(reported["value"], (int, float))
              and math.isfinite(reported["value"]),
              f"{what}: {name} is not a finite number")
        listed = re.compile(
            rf"^\s*{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s*$",
            re.MULTILINE)
        check(listed.search(proc.stdout),
              f"{what}: {name} is not listed with its unit")
    print(f"selfcheck: {what}: ok ({len(expected)} metrics)")


def check_refuses_without_sources(workload):
    """The benchmark builds the program from ../src; without it, it must
    fail fast and print no result."""
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, workload, 0)
    check(proc.returncode != 0,
          "a checkout without the sources still exited 0")
    check('"correct"' not in proc.stdout,
          "a checkout without the sources still printed a result")
    print("selfcheck: refuses to run without the sources: ok")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
        benchmark = json.load(file)
    for workload in benchmark["workloads"]:
        for trace in (0, 1):
            check_run(benchmark, workload["name"], trace)
    check_refuses_without_sources(benchmark["workloads"][0]["name"])
    print("selfcheck: all ok")


if __name__ == "__main__":
    main()
