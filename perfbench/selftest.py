"""Fast self-test of the benchmark harness, about a minute.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks that
the last line of each run is the result object, that it names exactly the
metrics of ``BENCHMARK.json`` with their units, and that no operation
failed (error rate 0).  Then it copies ``BENCHMARK.json`` and the
benchmark's own directories, without the program, into a scratch
directory and checks that the benchmark refuses to run there: a nonzero
exit and no result line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import workloads

KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(done: subprocess.CompletedProcess, units: dict[str, str]) -> list[str]:
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    problems = []
    if set(result) != KEYS:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct {result.get('correct')}, failed {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    got = {name: entry.get("unit") for name, entry in result.get("metrics", {}).items()}
    if got != units:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}"
                        f" or units {sorted(n for n in got if got[n] != units.get(n))}")
    for name, entry in result.get("metrics", {}).items():
        value = entry.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name} value {value!r}")
    return problems


def main() -> int:
    root = workloads.ROOT
    bench = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for name in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            units = {metric["name"]: metric["unit"] for metric in bench[key]}
            found = check_result(workloads.run_benchmark(root, name, 1, 1, trace, tiny=True), units)
            problems += [f"{name} trace {trace}: {p}" for p in found]
            print(f"{name} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)

    bare = root / workloads.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in bench["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = workloads.run_benchmark(bare, workloads.NAMES[0], 1, 1, 0, tiny=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or "{" in done.stdout:
        problems.append(f"without the program: exit {done.returncode}, stdout {done.stdout!r}")
    print(f"without the program: exit {done.returncode}", flush=True)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
