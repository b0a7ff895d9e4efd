#!/usr/bin/env python3
"""Seeded benchmark of the Jade runtime.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench, runs one workload for the
measured window, and prints as its last stdout line one JSON object with
the keys correct, attempted, failed and metrics.  Build and progress output
goes to stderr.  Workloads: thread_cholesky, sim_make, cluster_relax,
server_churn (see BENCHMARK.json for why each exists).
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("thread_cholesky", "sim_make", "cluster_relax", "server_churn")
# Set-ups, warm-up and process start on top of the measured window.
RUN_SLACK_S = 120


def build(src: Path, out: Path) -> None:
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(src), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    here = Path(__file__).resolve().parent
    out = here.parent / ".bench_build" / "perfbench"
    try:
        build(here, out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(out / "jade_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # Own process group, so a timeout also takes down forked cluster workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
