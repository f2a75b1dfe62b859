"""ghostdisk benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload noisy_155 --seed 1 --seconds 50 --trace 0

The run imports ``ghostdisk`` from ``src/`` and drives it from outside, through
its public API and ``ghostdisk.cli.main``.  It times operations in a closed
loop until their summed time reaches ``--seconds``, checks every output
against the oracles in ``oracle.py``, and prints the metrics as the last
line of standard output::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median of
several fresh processes, each timed from its start until just before its
first simulate call), ``op_s_p50``, ``slots_per_s`` and ``peak_rss_mb``.
``op_s_p50`` is the median host seconds of one simulate + report op and
``slots_per_s`` the slots simulate is asked for per op over that median.
The error rate is ``failed / attempted``.  ``--trace 1`` alternates plain
and traced ops and reports the per-layer metrics of ``spans.py``, the
tracing overhead and how many work counts differ from ``expected_counts.json``.
A human-readable summary, with the tail latency where a run has enough
ops, goes to standard error.  All times are host seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
TAIL_BEYOND = 10

E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "slots_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    return parser.parse_args(argv)


def probe_setup(args) -> list[float]:
    """Set-up seconds of fresh processes, from spawn to just before simulate."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) at the highest percentile with TAIL_BEYOND values beyond it."""
    if len(values) < 10 * TAIL_BEYOND:
        return None
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def expected_diffs(name: str, seed: int, counts: dict) -> list[str]:
    record = json.loads((HERE / "expected_counts.json").read_text()).get(name, {})
    want = dict(record.get("all_seeds", {}))
    want.update(record.get("by_seed", {}).get(str(seed), {}))
    return [f"{key} = {counts.get(key)!r}, recorded {value!r}"
            for key, value in sorted(want.items()) if counts.get(key) != value]


def measure(gd, work, args) -> dict:
    tracer = spans.Tracer()
    setup_times = [] if args.trace else probe_setup(args)
    ops: list[tuple[float, bool]] = []
    layers: list[dict] = []
    attempted = failed = 0
    spent = 0.0
    while spent < args.seconds or attempted < (4 if args.trace else 3):
        traced = bool(args.trace) and attempted % 2 == 1
        tracer.reset()
        with tracer.installed() if traced else nullcontext():
            seconds, ok = work.op(gd, tracer)
        if traced:
            layers.append(tracer.snapshot())
        attempted += 1
        if ok:
            ops.append((seconds, traced))
        else:
            failed += 1
        spent += seconds
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors, late = work.finish(gd)
    failed += late
    for message in errors:
        print(f"oracle: {message}", file=sys.stderr)

    plain = [seconds for seconds, traced in ops if not traced]
    if not plain:
        raise SystemExit("perfbench: every operation failed")
    summary = [f"perfbench {work.name} seed {args.seed}: {attempted} ops, "
               f"{failed} failed, error_rate {failed / attempted:.6g}"]
    if args.trace:
        metrics = per_layer(layers, summary)
        traced_ops = [seconds for seconds, traced in ops if traced]
        metrics["trace.overhead_s"] = statistics.median(traced_ops) - statistics.median(plain)
        diffs = [] if args.tiny else expected_diffs(work.name, args.seed, layers[0])
        summary += [f"  count differs from expected_counts.json: {d}" for d in diffs]
        metrics["bench.count_diffs"] += len(diffs)
        if tracer.missing:
            summary.append(f"  not wrapped (absent): {', '.join(tracer.missing)}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_s_p50": statistics.median(plain),
            "slots_per_s": work.slots / statistics.median(plain),
            "peak_rss_mb": peak_rss_mb,
        }
        units = E2E_UNITS
        high = tail(plain)
        summary.append(
            f"  op_s_tail {high[1]!r} s at p{high[0]:.2f} of {len(plain)} ops" if high
            else f"  op_s_tail not reported: {len(plain)} ops, fewer than {10 * TAIL_BEYOND}"
        )
    summary += [f"  {name} {value!r} {units[name]}" for name, value in metrics.items()]
    print("\n".join(summary), file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def per_layer(layers: list[dict], summary: list[str]) -> dict:
    """Median timings over traced ops; counts, which must repeat exactly."""
    metrics: dict = {}
    unstable = 0
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(value != values[0] for value in values):
                unstable += 1
                summary.append(f"  count {name} differs between ops: {values}")
    metrics["bench.count_diffs"] = unstable
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    gd = workloads.import_ghostdisk()
    os.chdir(workloads.ROOT)
    work = workloads.make(args.workload, args.seed, args.tiny)
    out = Path(workloads.OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = measure(gd, work, args)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
