#!/usr/bin/env python3
"""End-to-end benchmark of xpstreamd: build, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds xpstreamd and the perfbench binary
from source into $CARGO_TARGET_DIR (default .bench_build) with CMake,
then runs that binary, which starts xpstreamd on loopback, drives it and
prints one JSON result line last on standard output. Build output and
human-readable detail go to standard error. Exits non-zero when the
build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        sys.exit("perfbench: the xpstream sources are not beside perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "perfbench", "xpstreamd"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed: " + " ".join(step))
    return out


def stop_group(proc):
    """SIGTERM, then SIGKILL, the run's process group (the perfbench
    binary and its xpstreamd child), and wait for the binary to be reaped."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        try:
            proc.wait(timeout=5)
            break
        except subprocess.TimeoutExpired:
            continue
    # The daemon dies with its parent (PR_SET_PDEATHSIG); give it a moment.
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    out = build()
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--daemon", os.path.join(out, "xpstream", "src", "xpstreamd")]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc)
        sys.exit("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    except BaseException:
        stop_group(proc)
        raise
    stop_group(proc)  # nothing of the run may outlive it
    sys.stdout.write(stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
