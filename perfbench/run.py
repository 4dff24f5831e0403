#!/usr/bin/env python3
"""Serving benchmark entry point.

Builds ssbench from the checkout's sources (optimized, under .bench_build/),
runs one workload and prints ssbench's JSON result as the last line of stdout:

    python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Workloads, metrics and sizing are described in perfbench/WORKLOADS.md. Exits non-zero
without printing a result when the sources are missing, the build fails, no private
tmpfs can be mounted, ssbench fails or its result is malformed. Everything it writes
stays under .bench_build/.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
SSBENCH = BUILD_DIR / "ssbench"
WORKLOADS = ("read-zipf", "write-durable", "cluster-quorum")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"storage sources not found under {ROOT / 'src'}")
        return False
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(BUILD_ROOT / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", str(BUILD_DIR), "--target", "ssbench", "-j", "4"]]
        for step in steps:
            proc = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=BUILD_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-8000:])
                log("build failed")
                return False
    return SSBENCH.is_file()


def tmpfs_wrapper(work_dir):
    """Command prefix that runs ssbench in a private mount namespace with a tmpfs on
    its work directory, or [] when this machine does not allow it.

    FileDisk then writes to memory, as on /dev/shm, while every path stays inside the
    checkout; the mount disappears with the process. This is the benchmark's only
    device model, so without it there is no run."""
    unshare = shutil.which("unshare")
    if unshare is None:
        return []
    prefix = [unshare, "--mount", "--propagation", "private", "sh", "-c",
              'mount -t tmpfs -o size=2g,mode=0700 perfbench "$0" && exec "$@"',
              str(work_dir)]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def valid_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["correct"], bool):
        return False
    if not all(isinstance(result[k], int) for k in ("attempted", "failed")):
        return False
    if result["attempted"] < 1:
        return False
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return names <= set(result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own tests (tiny workloads, oracle gate)")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1

    work_dir = BUILD_ROOT / "work" / f"{args.workload or 'selftest'}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    wrapper = tmpfs_wrapper(work_dir)
    if not wrapper:
        shutil.rmtree(work_dir, ignore_errors=True)
        log("cannot mount a private tmpfs here (needs unshare --mount and mount)")
        return 1
    cmd = wrapper + [str(SSBENCH), "--work-dir", str(work_dir)]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            trace_out = BUILD_ROOT / "traces" / f"{args.workload}-{args.seed}.jsonl"
            cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ssbench exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.selftest:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"ssbench failed with exit code {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("ssbench printed no JSON result")
        return 1
    if not valid_result(result, args.trace):
        log("ssbench result is malformed")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
