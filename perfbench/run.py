#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload campaign|serve|fit --seed N \
        --seconds S --trace 0|1

The program is compiled (CMake, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; an up-to-date build is a no-op. Each run
works in a fresh directory under .bench_run/ (ledgers, model registries,
traces), removed when the run ends. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cores():
    try:
        return max(2, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(2, os.cpu_count() or 2)


def build(build_dir, jobs):
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(jobs)],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "hlp_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["campaign", "serve", "fit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    nproc = cores()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        exe = build(build_dir, nproc)
    except (subprocess.CalledProcessError, OSError) as e:
        fail(f"build failed: {e}")

    runs = os.path.abspath(".bench_run")
    os.makedirs(runs, exist_ok=True)
    workdir = os.path.join(runs, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--nproc", str(nproc)]
    try:
        # The program's set-up clock starts here: process creation, loading
        # and the workload's own set-up all count.
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(cmd + ["--t0-ns", str(t0)],
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(runs)
        except OSError:
            pass

    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark program exited with {proc.returncode} and no result")
    print(json.dumps(result))
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.exit(1)


if __name__ == "__main__":
    main()
