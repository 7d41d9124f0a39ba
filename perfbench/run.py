#!/usr/bin/env python3
"""Build the simulator's host-time benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the root of a checkout. The benchmark package (perfbench/) is
configured and built into $CARGO_TARGET_DIR (default .bench_build) on the
first call. Every call runs the helper self-tests, then the benchmark
program measures. The last line of stdout is the result object; per-run
details, host context and (with --trace 1) the spans land in
<build root>/results/. --record re-records perfbench/reference.json
through the plain SimContext path.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """Commit (when the checkout is a git work tree) plus a digest of every
    file the benchmark builds or reads, so results from different trees
    are never silently compared."""
    digest = hashlib.sha256()
    for top in ("src", "configs", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    commit = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return commit + "+tree:" + digest.hexdigest()[:16]


def build(build_dir):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        if subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                           "-G", generator,
                           "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                          **quiet).returncode != 0:
            fail("configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                      **quiet).returncode != 0:
        fail("build failed")
    if subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                      **quiet).returncode != 0:
        fail("helper self-tests failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and not args.workload:
        parser.error("--workload is required")

    for needed in ("src/CMakeLists.txt", "configs/c2050.config"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s in %s: run from a full checkout" % (needed, ROOT))

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "work")
    build(build_dir)

    program = os.path.join(build_dir, "perfbench")
    reference = os.path.join(BENCH_DIR, "reference.json")
    if args.record:
        cmd = [program, "--record=" + reference]
        timeout = None
    else:
        cmd = [program, "--workload=" + args.workload,
               "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--reference=" + reference,
               "--results=" + os.path.join(build_root, "results"),
               "--work=" + work_dir, "--commit=" + source_id()]
        timeout = RUN_TIMEOUT_S
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
