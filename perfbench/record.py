"""Measure the benchmark's run-to-run spread, and record its baseline.

    python3 perfbench/record.py [--workloads noisy_155,...] [--seeds 1-10] [--write]

Runs ``run.py --trace 0`` once per workload and seed, for the
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end
metric its median and its spread: (Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``.  That spread is what the bounds in
``BENCHMARK.json`` limit.  With ``--write`` it also runs every seed traced
and writes ``expected_counts.json`` (the work counts each workload must
repeat) and ``baseline.json`` (the machine and these medians).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = workloads.run_benchmark(workloads.ROOT, workload, seed, seconds, trace)
    print(f"  {workload} seed {seed} trace {trace}: {time.perf_counter() - start:.1f} s wall",
          file=sys.stderr, flush=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{done.stderr}")
    return result


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def machine() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    out = workloads.ROOT / workloads.OUT
    mounts = [line.split() for line in Path("/proc/self/mountinfo").read_text().splitlines()]
    fs = max((m for m in mounts if str(out).startswith(m[4].rstrip("/") + "/")),
             key=lambda m: len(m[4]))
    fs_type = fs[fs.index("-") + 1]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "run_output_fs": fs_type,
        "run_output_on_tmpfs": fs_type == "tmpfs",
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    names = args.workloads.split(",")

    table: dict = {}
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            for metric, entry in run(name, seed, seconds, 0)["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        table[name] = {metric: spread(vals) for metric, vals in values.items()}
        for metric, stats in table[name].items():
            flag = "" if stats["spread"] <= bounds[metric] / 3 else "  WIDE"
            print(f"{name:15} {metric:12} median {stats['median']:.6g}  "
                  f"spread {stats['spread']:.4f}  bound {bounds[metric]}{flag}  "
                  f"values {' '.join(f'{v:.4g}' for v in values[metric])}", flush=True)
    if not args.write:
        return

    counts = json.loads((HERE / "expected_counts.json").read_text())
    for name in names:
        per_seed = {}
        for seed in args.seeds:
            metrics = run(name, seed, 1, 1)["metrics"]
            per_seed[str(seed)] = {
                metric: entry["value"] for metric, entry in metrics.items()
                if not metric.endswith("_s") and metric != "bench.count_diffs"
            }
        first = per_seed[str(args.seeds[0])]
        fixed = {m: v for m, v in first.items() if all(c[m] == v for c in per_seed.values())}
        counts[name] = {
            "all_seeds": fixed,
            "by_seed": {s: {m: v for m, v in c.items() if m not in fixed}
                        for s, c in per_seed.items()},
        }
    (HERE / "expected_counts.json").write_text(json.dumps(counts, indent=1) + "\n")
    baseline = json.loads((HERE / "baseline.json").read_text())
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, check=False, cwd=workloads.ROOT).stdout.strip()
    baseline.update(machine=machine(), program_commit=commit or "unknown", seeds=args.seeds,
                    run_seconds=seconds)
    baseline.setdefault("workloads", {}).update(table)
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
