#!/usr/bin/env python3
"""Build and run the circles end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_auto --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the circles library through the repository's own
CMakeLists.txt, plus the benchmark binary) in Release mode under
$CARGO_TARGET_DIR, default .bench_build, then runs the binary with the given
arguments. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON report. With --trace 1 the Chrome-trace JSON of the replay
lands in <build dir>/traces/. The exit code is the benchmark's; a missing
source tree or a failed build exits with 2 and prints no report.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(REPO, path)
    return os.path.join(path, "perfbench")


def build(out_dir):
    """Configures once, then rebuilds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(REPO, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(REPO, "src")
    ):
        raise RuntimeError(f"no circles source tree (CMakeLists.txt, src/) at {REPO}")
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", out_dir, "-j", jobs, "--target", "circles_bench"],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(out_dir, "circles_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        traces = os.path.join(out_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += [
            "--trace-out",
            os.path.join(traces, f"{args.workload}-seed{args.seed}.trace.json"),
        ]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
