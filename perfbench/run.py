#!/usr/bin/env python3
"""Builds the benchmark program from source and runs it.

Usage (from the repository root):

    python3 perfbench/run.py --workload mlp_serve --seed 1 --seconds 10 --trace 0

The program is configured and built with CMake under $CARGO_TARGET_DIR
(default .bench_build) in the repository root on first use; later runs only
re-check the build. Build output goes to stderr, so the last line of stdout
is the program's JSON result. The program runs with AF_THREADS=1: every
server worker is serial-pinned, and setup-time calibration then starts no
thread pool. Exits nonzero, without a result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out, env):
    configured = any(
        os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")
    )
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)


def main():
    out = build_dir()
    work = os.path.join(out, "work")
    tmp = os.path.join(out, "tmp")
    os.makedirs(work, exist_ok=True)
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        build(out, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    env["AF_THREADS"] = "1"
    cmd = [os.path.join(out, "perfbench")] + sys.argv[1:] + ["--workdir", work]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
