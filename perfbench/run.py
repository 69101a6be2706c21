#!/usr/bin/env python3
"""Runs one perfbench workload and prints its metrics.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Builds perfbench/ (the library from src/ plus the workload binaries) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
workload in child processes:

  --trace 0  end-to-end metrics from the untraced binary. Two extra
             processes stop after set-up, so setup_s is a median of three.
  --trace 1  per-layer metrics from the traced binary, plus one untraced
             process beside it for the tracing overhead.

The last line of stdout is the result object; everything before it is a
human-readable copy. Exits non-zero, without a result, when the build or a
workload process fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import report  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Seconds the workload processes may take once the build is done.
DEADLINE_S = 165.0
# Extra set-up-only processes per end-to-end run.
SETUP_REPEATS = 2


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the report.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def run_workload(binary, args, deadline, scratch, setup_only=False):
    """Runs one workload process and returns its record, or None."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--scratch", scratch]
    if setup_only:
        command.append("--setup-only")
    # The workload pins the pool itself; measure the library's own solver
    # and kernel choices.
    env = {k: v for k, v in os.environ.items()
           if k not in ("UMVSC_NUM_THREADS", "UMVSC_EIGENSOLVER", "UMVSC_SIMD")}
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=env,
                          text=True) as child:
        try:
            out, _ = child.communicate(timeout=max(1.0, deadline - time.time()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            log(f"{' '.join(command)} timed out")
            return None
    if child.returncode != 0:
        log(f"{' '.join(command)} exited with {child.returncode}")
        return None
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"{' '.join(command)} printed no record")
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=report.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return 1
    deadline = time.time() + DEADLINE_S
    scratch = os.path.join(build_dir, "tmp")
    os.makedirs(scratch, exist_ok=True)
    untraced = os.path.join(build_dir, "perfbench")
    traced = os.path.join(build_dir, "perfbench_traced")

    if args.trace:
        records = [run_workload(untraced, args, deadline, scratch)]
        main_record = records[0] and run_workload(traced, args, deadline,
                                                  scratch)
    else:
        records = [run_workload(untraced, args, deadline, scratch,
                                setup_only=True)
                   for _ in range(SETUP_REPEATS)]
        main_record = all(records) and run_workload(untraced, args, deadline,
                                                    scratch)
    records.append(main_record)
    if not all(records):
        return 1

    try:
        if args.trace:
            metrics = report.per_layer(args.workload, main_record, records[0])
            units = report.LAYER_UNITS
        else:
            metrics = report.end_to_end(
                args.workload, main_record,
                [r["values"]["setup_s"] for r in records])
            units = report.E2E_UNITS
    except (KeyError, TypeError, ZeroDivisionError) as error:
        log(f"record lacks what a metric needs: {error!r}")
        return 1
    if not all(math.isfinite(v) for v in metrics.values()):
        log(f"non-finite metric in {metrics}")
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    res = report.result(metrics, units, attempted, failed)
    for line in report.render(main_record["header"], res):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
