#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload star_inline --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. `--workload all` runs every workload, one
process each, and exits non-zero if any of them did. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) in Release mode
under $CARGO_TARGET_DIR or .bench_build/; later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The exit code is the benchmark's: non-zero when the build
failed or any output was wrong.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["star_inline", "tcp_loopback", "keyed_100k"]
BUILD_TIMEOUT_S = 850


def build(build_dir):
    """Configures and builds dema_perfbench; returns the binary path or None."""
    # Keep the compiler's temporary files inside the build tree.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "dema_perfbench", "-j", "4"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(step)}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "dema_perfbench")


def main(argv):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        print("perfbench: the Dema sources (src/) are not next to perfbench/",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(os.path.abspath(build_root), "perfbench"))
    if binary is None:
        return 2
    args = argv[1:]
    if "all" not in args:
        sys.stdout.flush()
        return subprocess.run([binary] + args).returncode
    # --workload all: each workload in its own process, so that peak_rss_mb
    # covers only that workload.
    worst = 0
    for workload in WORKLOADS:
        sys.stdout.flush()
        run = [binary] + [workload if a == "all" else a for a in args]
        worst = max(worst, subprocess.run(run).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
