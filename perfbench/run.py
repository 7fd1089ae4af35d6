#!/usr/bin/env python3
"""End-to-end serving benchmark for speedqm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark program and the
speedqm library from the checkout's sources into .bench_build/perfbench
(incrementally after the first run), runs one measurement and prints every
metric by name and unit. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

Exits 0 when a result was printed, 1 when the build or the run failed (no
result is printed then), 2 on a usage error.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
RESULT_KEYS = ["correct", "attempted", "failed", "metrics"]
# A run must end well inside 180 s.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perfbench_e2e; raises on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_e2e",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BINARY


def parse_result(line):
    """The result object, or None when the line is not one."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or list(result) != RESULT_KEYS:
        return None
    return result


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args(argv)

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    result = parse_result(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: perfbench_e2e exited {proc.returncode} "
              "without a result", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(f"  (run took {time.monotonic() - start:.1f} s)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
