#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and compiles the
perfbench package (the library from src/ plus the benchmark program in
perfbench/src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. The
program's standard output is passed through; its last line is the JSON
result. The result's metric names are checked against BENCHMARK.json, so
the two cannot drift apart. With --trace 1 the traced run's spans are
written as Chrome trace-event JSON to
<build dir>/traces/<workload>-seed<N>.json.

Exit codes: 0 success, 2 bad usage or build failure, 3 an output
correctness check failed, 4 the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures (once) and builds the program; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step exited {done.returncode}: "
                  f"{' '.join(step)}", file=sys.stderr)
            return None
    binary = bdir / "perfbench"
    return binary if binary.exists() else None


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 3) or not lines:
        sys.stdout.write(done.stdout)
        return done.returncode or 2

    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    expected = expected_metrics(args.trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            print(f"perfbench: metrics {sorted(got.items())} do not match "
                  f"BENCHMARK.json {sorted(expected.items())}",
                  file=sys.stderr)
            return 4
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
