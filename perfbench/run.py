#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload lan_steady --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the libraries under src/ it links) with CMake into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
benchmark binary with the same arguments.  Build output goes to standard
error; the binary's last line of standard output is the JSON result.  Exits
non-zero, without a result, if the build or any correctness gate fails.
"""

import os
import subprocess
import sys

WORKLOADS = ("lan_steady", "internet_population", "crash_replay")


def parse(argv):
    args = {"--workload": None, "--seed": "1", "--seconds": "10", "--trace": "0"}
    if len(argv) % 2 != 0:
        return None
    for flag, value in zip(argv[0::2], argv[1::2]):
        if flag not in args:
            return None
        args[flag] = value
    if args["--workload"] not in WORKLOADS or args["--trace"] not in ("0", "1"):
        return None
    try:
        int(args["--seed"])
        float(args["--seconds"])
    except ValueError:
        return None
    return args


def build(build_root):
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        print("perfbench: run from the repository root (no src/ here)", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", cmake_dir, "--target", "perfbench", "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(cmake_dir, "perfbench")


def main():
    args = parse(sys.argv[1:])
    if args is None:
        print("usage: run.py --workload {%s} --seed N --seconds S --trace {0,1}"
              % ",".join(WORKLOADS), file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    command = [binary, "--work-dir", os.path.join(build_root, "work")]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        command += [flag, args[flag]]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
