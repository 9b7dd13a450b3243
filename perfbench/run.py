#!/usr/bin/env python3
"""Build and run dnsboot's end-to-end benchmark.

    python3 perfbench/run.py --workload monitor|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
repository's libraries plus the perfbench binary in Release mode under
.bench_build/; later runs only rebuild what changed. Build output goes to
stderr; the last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("monitor", "serve")
# A run measures for --seconds, then finishes its last round (about a second)
# and reports; allow this much on top before giving up on it.
RUN_MARGIN_S = 60
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def cmake(args):
    return subprocess.run(["cmake", *args], stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build():
    """Configure once, then build incrementally; start over if the cache is stale."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for attempt in range(2):
        if attempt == 1 or not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            if not cmake(configure):
                continue
        if cmake(["--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]):
            return True
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail(f"no dnsboot sources in {ROOT}; run from a full checkout")
    if not build():
        return fail("build failed")

    # The monitor keeps its journal and snapshots on disk, inside the checkout.
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    try:
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--scratch", scratch]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        return fail(f"perfbench ran over {args.seconds + RUN_MARGIN_S} s and was stopped")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        return fail(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("perfbench printed no result")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        return fail(f"malformed result: {lines[-1]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
