#!/usr/bin/env python3
"""Steadiness record of the serving benchmark.

Runs perfbench/run.py on several seeds per workload and prints, per workload, the
median, IQR / median and range / median of every end-to-end metric, plus the same for
the fixed CPU loop and memory chase each run times (host.cpu_loop_ms and
host.mem_chase_ms, printed on stderr), so host noise can be told apart from program
noise. Quartiles are Python's
statistics.quantiles(values, n=4).

    python3 perfbench/steadiness.py --workloads read-zipf write-durable \\
        --seeds 101-110 --seconds 15 [--json out.json]

Exits non-zero when a run fails or reports correct: false.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
HOST_PROBES = ("host.cpu_loop_ms", "host.mem_chase_ms")


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 101-110")
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--json", help="also write every run's figures here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                print(f"{workload} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            figures = {name: m["value"] for name, m in result["metrics"].items()}
            for probe in HOST_PROBES:
                found = re.search(re.escape(probe) + r"=([0-9.eE+-]+)", proc.stderr)
                figures[probe] = float(found.group(1)) if found else 0.0
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": figures})
            ok = ok and result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        record[workload] = runs
        if not runs:
            continue
        print(f"\n{workload} ({len(runs)} runs, --seconds {args.seconds})")
        print("| metric (bound) | median | IQR / median | range / median |")
        print("|---|---|---|---|")
        for name in list(bounds) + list(HOST_PROBES):
            med, iqr, rng = spread([r["metrics"][name] for r in runs])
            bound = f" ({bounds[name]})" if name in bounds else ""
            print(f"| `{name}`{bound} | {med:.6g} | {iqr:.3f} | {rng:.3f} |")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
