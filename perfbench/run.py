#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Run from the root of the source tree:

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and all run files to a sibling work directory. Build output goes to stderr;
the last line on stdout is the result JSON. The exit code is non-zero when
the build fails, an output check fails, or the run does not finish in time.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("serve-zipf", "serve-churn")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_root() -> pathlib.Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_checked(cmd, timeout_s, **kwargs) -> int:
    """Runs cmd to completion, killing it (and waiting) on timeout."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: timed out after {timeout_s}s: {cmd[0]}", file=sys.stderr)
        return 124
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def build(targets) -> pathlib.Path:
    build_dir = build_root() / "perfbench"
    code = run_checked(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: configure failed ({code})")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_checked(
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets],
        BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        sys.exit(f"perfbench: build failed ({code})")
    return build_dir


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main() -> int:
    # A terminated run still kills and waits for the build or driver it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper tests instead")
    args = parser.parse_args()

    if args.selftest:
        build_dir = build(["perfbench_test"])
        return run_checked([str(build_dir / "perfbench_test")], RUN_TIMEOUT_S)
    if args.workload is None:
        parser.error("--workload is required")

    build_dir = build(["perfbench"])
    workdir = build_root() / "perfbench-work"
    workdir.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    return run_checked(
        [str(build_dir / "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--workdir", str(workdir),
         "--git-sha", git_sha()],
        RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
