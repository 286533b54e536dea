#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Each run configures and builds
perfbench/ (its own CMake package, compiling ../src) into
.bench_build/perfbench; only the first run compiles everything. The build
log goes to stderr, so the last stdout line is the benchmark's JSON
result. A traced run (--trace 1) also writes its Chrome trace to
.bench_build/perfbench/traces/<workload>.json, replacing the last one. The exit code is the benchmark's: 0 only
when every correctness check passed. --self-test builds and runs the
tests of the benchmark's own arithmetic.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("udp_clean", "udp_lossy", "frontend_mixed", "audit_fuzz")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


def build(target):
    """Configures and builds `target`; returns True on success."""
    steps = [["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", target,
              "-j", str(jobs())]]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            print(f"run.py: {' '.join(cmd)}: {exc}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"run.py: {' '.join(cmd)} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Runs `cmd`, passing its output through; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: {cmd[0]} ran past {RUN_TIMEOUT_S} s; killed",
              file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        if not build("perfbench_stats_test"):
            return 2
        return run([os.path.join(BUILD, "perfbench_stats_test")])
    if args.workload is None:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.json")]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
