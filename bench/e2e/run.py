#!/usr/bin/env python3
"""Entry point of the fairlaw end-to-end benchmark.

Configures and builds fairlaw_bench, together with the fairlaw_audit and
fairlaw_serve binaries it drives, from this checkout into
.bench_build/cmake (a Release build; later calls rebuild only what
changed), then runs one workload:

    python3 bench/e2e/run.py --workload audit_stream --seed 1 \
        --seconds 15 --trace 0

--trace 0 runs `fairlaw_bench run` (the end-to-end metrics, tracing off);
--trace 1 runs `fairlaw_bench trace` (the per-layer metrics). The last
line of stdout is the JSON result; build output goes to stderr. Exits
non-zero without a result when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(".bench_build", "cmake")


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured from another directory cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(BUILD)
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4",
                    "--target", "fairlaw_bench"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("fairlaw_bench build failed: %s" % error, file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "fairlaw_bench"),
               "trace" if args.trace else "run",
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
