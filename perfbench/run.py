#!/usr/bin/env python3
"""Builds and runs the tpdb loopback benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The engine and the benchmark program are
built from source with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the build's output goes to stderr, so the last line
on stdout is the program's JSON result. Exits non-zero, without a result,
when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    root = os.path.dirname(HERE)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    for step in steps:
        built = subprocess.run(step, cwd=root, stdout=sys.stderr,
                               stderr=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1
    binary = os.path.join(build_dir, "tpdb_loopbench")
    sys.stdout.flush()
    run = subprocess.run([binary] + argv + ["--work-dir", work_dir], cwd=root)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
