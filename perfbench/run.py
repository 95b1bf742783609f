#!/usr/bin/env python3
"""Build and run the tsdx benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload stream_light --seed 1 --seconds 20 --trace 0

Configures the repository's own CMake project into .bench_build (Release,
tests/benches/examples off) with perfbench/tsdx_perfbench.cmake injected, so
the benchmark links the library targets built with the repository's flags;
builds only the tsdx_perfbench target; then runs it. Build output goes to
stderr, so the benchmark's last stdout line (the JSON result) stays last.
Traced runs write their spans and registry snapshot to .bench_build/perfbench-out.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("stream_light", "burst_closed", "offline_batch")


def build():
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", ROOT, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DTSDX_BUILD_TESTS=OFF", "-DTSDX_BUILD_BENCH=OFF",
                     "-DTSDX_BUILD_EXAMPLES=OFF",
                     "-DCMAKE_PROJECT_tsdx_INCLUDE="
                     + os.path.join(HERE, "tsdx_perfbench.cmake")]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "tsdx_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "tsdx_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: %s is not a tsdx source checkout (no CMakeLists.txt "
              "and src/)" % ROOT, file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--out", os.path.join(BUILD, "perfbench-out")],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
