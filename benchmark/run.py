#!/usr/bin/env python3
"""Builds the vsd benchmark from source and runs one workload.

Usage (from the repository root):
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds benchmark/ into .bench_build (Release);
later runs rebuild incrementally. The benchmark binary prints progress on
standard error and its result as the last line of standard output; run
records and traces go to .bench_out/. The exit code is the binary's, or 1
when the build fails or the run exceeds its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def log(message):
    print("[run.py] " + message, file=sys.stderr, flush=True)


def build(env):
    """Configures (once) and builds the benchmark; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "vsd_benchmark",
                  "-j", jobs])
    for step in steps:
        try:
            # Build output goes to stderr: stdout carries only the result.
            done = subprocess.run(step, stdout=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("build step failed: %s" % error)
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def commit_id():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources at %s/src: run from a repository checkout"
            % ROOT)
        return 1
    # The library reads VSD_* variables (threads, batch size, backend,
    # faults); the benchmark measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("VSD_")}
    if not build(env):
        return 1
    command = [os.path.join(BUILD, "vsd_benchmark"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out", OUT, "--commit", commit_id()]
    try:
        return subprocess.run(command, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
