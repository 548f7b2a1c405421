#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the Betty libraries and the workload driver from source into
.bench_build/perfbench (Release), records the machine fingerprint, runs
the workload, and prints its result as one JSON object on the last line
of standard output. With --trace 0 the result holds the end-to-end
metrics; with --trace 1 the per-layer metrics of a traced session, whose
Chrome trace must pass `betty_report critpath` at its 95% coverage gate.
Everything a run writes stays under .bench_build/ in the checkout.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed, with "correct": false), 2 when the benchmark
could not build or run (nothing is printed).
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
REPORT = os.path.join(BUILD, "betty_report")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool bring targets up to date."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "perfbench_driver", "betty_report"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (self-check only)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    # The name becomes part of a results path.
    if not re.fullmatch(r"[A-Za-z0-9_]+", args.workload):
        fail(f"malformed --workload '{args.workload}'")

    build()
    out_dir = os.path.join(
        BUILD_ROOT, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        + ("-tiny" if args.tiny else ""))
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)

    probe = subprocess.run([DRIVER, "--fingerprint"], capture_output=True,
                           text=True)
    if probe.returncode != 0:
        fail("fingerprint probe failed: " + probe.stderr.strip())
    fingerprint = json.loads(probe.stdout)
    print("fingerprint:", json.dumps(fingerprint), flush=True)

    command = [DRIVER, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", out_dir]
    if args.tiny:
        command.append("--tiny")
    status = subprocess.run(command).returncode
    if status not in (0, 1) or not os.path.exists(result_path):
        fail(f"workload driver exited with status {status}")
    with open(result_path) as file:
        result = json.load(file)

    if args.trace:
        metrics = result["metrics"]
        for name, key, unit in (
                ("machine.fma_peak_gflops", "fma_peak_gflops", "GFLOP/s"),
                ("machine.copy_peak_gbs", "copy_peak_gbs", "GB/s")):
            metrics[name] = {"value": fingerprint[key], "unit": unit}
            print(f"  {name:<28} {fingerprint[key]:.6g} {unit}")
        gemm = metrics["kernels.gemm_gflops"]["value"]
        print(f"GEMM roof: {gemm:.3g} GFLOP/s achieved, "
              f"{100.0 * gemm / fingerprint['fma_peak_gflops']:.1f}% of "
              f"the single-core FMA peak", flush=True)
        gate = subprocess.run(
            [REPORT, "critpath", os.path.join(out_dir, "trace.json"),
             "--min-coverage", "0.95",
             "--out", os.path.join(out_dir, "critpath.json")])
        if gate.returncode != 0:
            result["correct"] = False
            result["failures"].append(
                f"betty_report critpath gate exited {gate.returncode}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "fingerprint": fingerprint, **result}
    with open(os.path.join(out_dir, "record.json"), "w") as file:
        json.dump(record, file, indent=1)
    for failure in result["failures"]:
        print("CHECK FAILED:", failure)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
