#!/usr/bin/env python3
"""Builds and runs the daemon benchmark; see perfbench/README.md.

Usage, from the repository root:

  python3 perfbench/run.py --workload <bcheck_cold|check_warm|view_churn> \
      --seed <n> --seconds <s> --trace <0|1>

The first run configures and compiles perfbench/ (which compiles the
repository's libraries from src/) into .bench_build/perfbench as a Release
build; later runs only re-check the build. The output is a host line, a
detail line and, last, the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every run also saves those lines to .bench_build/results/, traced and
untraced runs in separate files.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bcheck_cold", "check_warm", "view_churn")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources next to {HERE} (src/ is missing)")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=log,
                              timeout=300).returncode != 0:
                fail(f"cmake configure failed; see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.run(["cmake", "--build", build_dir, "--target",
                           "perfbench", "-j", jobs],
                          stdout=log, stderr=log,
                          timeout=800).returncode != 0:
            fail(f"build failed; see {log_path}")
    return os.path.join(build_dir, "perfbench")


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_block(build_dir, detail):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": detail.get("compiler", "unknown"),
        "build_type": detail.get("build_type",
                                 cache_value(build_dir, "CMAKE_BUILD_TYPE")),
        "git_sha": sha,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60", 64)

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)
    if cache_value(build_dir, "CMAKE_BUILD_TYPE") != "Release":
        fail(f"{build_dir} is not a Release build; refusing to measure", 3)

    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("perfbench binary did not finish within 170 s", 1)
    if run.returncode != 0:
        fail(f"perfbench binary exited with {run.returncode}", run.returncode)
    lines = [json.loads(line) for line in run.stdout.splitlines() if line]
    if len(lines) != 2 or "detail" not in lines[0] or "metrics" not in lines[1]:
        fail("perfbench binary printed an unexpected result", 1)
    detail, result = lines[0], lines[1]
    host = {"host": host_block(build_dir, detail["detail"])}

    results_dir = os.path.join(os.path.dirname(build_dir), "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    with open(os.path.join(results_dir, name), "w") as out:
        json.dump({**host, **detail, "result": result}, out, indent=1)

    print(json.dumps(host))
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
