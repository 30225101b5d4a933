#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

    python3 e2ebench/run.py --workload analyze-pack --seed 1 --seconds 25 --trace 0

Run it from the repository root. It configures and builds the library and
the ndv_e2ebench binary with CMake (Release) under $CARGO_TARGET_DIR
(default .bench_build), runs one workload, echoes the binary's report and
prints as its last line one JSON object with the metrics BENCHMARK.json
names: the end_to_end ones with --trace 0, the per_layer ones with
--trace 1. A per-layer metric the workload does not measure is reported
as 0 (see README.md). The full report, with the environment stamp, is
also written to <build>/results/.

Exit codes: 0 all checks passed; 1 an operation or correctness check
failed; 2 the benchmark could not build or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "ndv_e2ebench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    command = ["cmake", "--build", str(build_dir), "--target", BINARY,
               "-j", "4"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / BINARY


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    binary = build(target / "e2ebench")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = target / "work" / f"{tag}-{os.getpid()}"
    (target / "traces").mkdir(parents=True, exist_ok=True)
    (target / "results").mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir),
               "--trace-file", str(target / "traces" / f"{tag}.json")]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    (target / "results" / f"{tag}.txt").write_text(proc.stdout)
    for line in lines[:-1]:
        print(line)
    print(f"wall {time.monotonic() - started:.1f} s")

    result = json.loads(lines[-1])
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        measured = result["metrics"].get(name)
        if measured is None:
            if not args.trace:
                fail(f"{args.workload} did not measure {name}")
            measured = {"value": 0.0, "unit": unit}
        if measured["unit"] != unit or measured["value"] is None:
            fail(f"{name}: got {measured}, want a number in {unit}")
        metrics[name] = {"value": measured["value"], "unit": unit}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] and result["failed"] == 0 else 1)


if __name__ == "__main__":
    main()
