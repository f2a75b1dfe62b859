"""Set-up probe: one fresh process, stopped just before its first simulate call.

Prints ``time.perf_counter()`` at that point.  On Linux this is the
system-wide monotonic clock, so ``run.py`` subtracts the time it read just
before starting this process to get the set-up seconds a user waits for:
interpreter start, import, configuration and schedule construction.
"""

from __future__ import annotations

import argparse
import time

import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    gd = workloads.import_ghostdisk()
    workloads.make(args.workload, args.seed, args.tiny).probe(gd)
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main()
