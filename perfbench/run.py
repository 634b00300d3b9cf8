#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload recurring_plans|adhoc_sql \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures perfbench/CMakeLists.txt
into .bench_build/ (or $CARGO_TARGET_DIR when set), builds the server binary
and perfbench_run, runs perfbench_run in a scratch directory under the build
directory, and relays its output. The last line of standard output is the
benchmark's JSON result. Build output goes to standard error. The exit code
is non-zero when a build step or a correctness check failed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("recurring_plans", "adhoc_sql")
# Hard cap on one run, so a hung server cannot hold the machine.
RUN_TIMEOUT_S = 170


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(os.path.join(ROOT, configured))


def build(out_dir):
    """Configures and builds; returns False (after logging) on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target",
                  "perfbench_run", "prestroid_cli"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    if not build(out_dir):
        return 1

    work_root = os.path.join(out_dir, "work")
    work_dir = os.path.join(
        work_root, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    command = [
        os.path.join(out_dir, "perfbench_run"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", work_dir,
        "--cli", os.path.join(out_dir, "prestroid_cli"),
    ]
    # Own process group, so a timeout also takes down the server children.
    bench = subprocess.Popen(command, stdout=subprocess.PIPE,
                              start_new_session=True, text=True)
    try:
        output, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(output)
    sys.stdout.flush()
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
