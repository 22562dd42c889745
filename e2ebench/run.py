#!/usr/bin/env python3
"""Builds and runs the end-to-end DNND benchmark.

    python3 e2ebench/run.py --workload <build-1r|build-4r> --seed <n> \
        --seconds <s> --trace <0|1>

Run it from anywhere inside a source tree that has src/ next to e2ebench/.
On first use it builds the library and the benchmark binary from source
(CMake, Release) into .bench_build/ at the root of the tree; later runs
only rebuild what changed. Build output goes to stderr. The binary's
stdout is passed through: a provenance line, a detail line, and, last, one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit code is
non-zero when the build fails, the run fails, or any correctness check is
violated.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "dnnd_e2e")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 800
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    for needed in (("src", "CMakeLists.txt"), ("bench", "common.hpp")):
        if not os.path.isfile(os.path.join(ROOT, *needed)):
            fail(f"no {os.path.join(*needed)} under {ROOT}")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "dnnd_e2e",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:2])} exited {done.returncode}")


def revision():
    """Git commit when the tree is a checkout, plus a digest of the
    sources the binary is built from (the tree may not be a git repo)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        head = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        head = "unavailable"
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "bench", "common.hpp")]
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, n) for n in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return f"git {head}; sources sha256 {digest.hexdigest()[:16]}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build-1r", "build-4r"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--rev", revision()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("the run printed no result line", code=done.returncode or 3)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
