#!/usr/bin/env python3
"""Builds and runs the sparkopt repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (which compiles ../src in Release)
into the build directory named by $CARGO_TARGET_DIR, default
.bench_build, builds the `perfbench` binary, and runs it with the fixed
per-workload constants of perfbench/workloads.json. The binary prints
report and metadata lines and, as the last line of stdout, one JSON
object with the run's metrics. The exit status is the binary's: 0 when
every correctness check passed, 1 when one failed; 2 when the build or
the arguments fail (then no JSON line is printed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr) != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        log("unknown workload %r (have %s)" % (args.workload,
                                               ", ".join(sorted(workloads))))
        return 2

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        log("build failed")
        return 2
    trace_dir = os.path.join(build_root, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir, "--git-sha", git_sha()]
    for key, value in sorted(workloads[args.workload].items()):
        cmd += ["--" + key.replace("_", "-"), str(value)]
    sys.stdout.flush()
    try:
        return subprocess.call(cmd, timeout=175)
    except subprocess.TimeoutExpired:
        log("perfbench exceeded 175 s")
        return 2


if __name__ == "__main__":
    sys.exit(main())
