"""Every workload, untraced then traced, with the human-readable summaries.

    python3 perfbench/summary.py [--seed 1] [--seconds run_seconds]

Prints, per workload, the end-to-end metrics with their units, the error
rate and the tail latency where a run has enough ops (untraced run), then
every per-layer metric and the tracing overhead (traced run).
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (workloads.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = parser.parse_args()
    status = 0
    for name in workloads.NAMES:
        for trace in (0, 1):
            done = workloads.run_benchmark(workloads.ROOT, name, args.seed, args.seconds, trace)
            print(done.stderr.rstrip(), flush=True)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"{name} trace {trace}: FAILED (exit {done.returncode})", flush=True)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
