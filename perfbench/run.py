#!/usr/bin/env python3
"""Build the raven-guard benchmark in Release and run one workload.

    python3 perfbench/run.py --workload gw-paced|gw-flood|campaign \
        --seed N --seconds S --trace 0|1

The program is built from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; build
output goes to stderr.  The last stdout line is the result object
printed by rg_perfbench (see perfbench/README.md).  Exits non-zero,
without a result, when the sources are missing or the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: program sources (src/) not found next to perfbench/")
    obj = os.path.join(out, "perfbench")
    if not os.path.isfile(os.path.join(obj, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", obj, "--target", "rg_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(obj, "rg_perfbench")


def main():
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    cmd = [binary] + sys.argv[1:] + ["--scratch", os.path.join(out, "scratch")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
