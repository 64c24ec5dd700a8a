"""Self-test of the benchmark's own instruments.

Run from the repository root::

    python3 hostbench/selftest.py [--workload NAME]

For each workload it makes two traced measured processes with the same
seed and checks that:

- every count (``*calls``, ``misses``, ``table_hits``, ``pops``,
  ``preemptions``, ``evicted_blocks``) is identical across the two
  processes — counts are a pure function of the seed;
- the layer self-times cover at least 95% of the traced pass (the rest
  is the benchmark's own glue);
- no request failed its correctness check.

Exits non-zero on the first workload that breaks a check.
"""

from __future__ import annotations

import argparse
import sys
import time

from run import WORKLOADS, _child, prime

MIN_COVERAGE = 0.95


def check(workload: str, seed: int) -> list:
    args = argparse.Namespace(workload=workload, seed=seed, trace=1)
    runs = [_child(args, 0.0, time.perf_counter() + 170) for _ in range(2)]
    problems = []
    first, second = (run["traced_passes"][0] for run in runs)
    counts = sorted(k for k in first if not k.endswith(("_s", "_ratio")))
    for name in counts:
        if first[name] != second[name]:
            problems.append(f"{name}: {first[name]} != {second[name]}")
    for run in runs:
        coverage = run["traced_passes"][0]["layer_coverage_ratio"]
        if coverage < MIN_COVERAGE:
            problems.append(f"layer coverage {coverage:.3f} < {MIN_COVERAGE}")
        if run["failed"]:
            problems.append(f"{run['failed']} of {run['attempted']} "
                            "requests failed")
    print(f"{workload}: {len(counts)} counts compared, coverage "
          f"{first['layer_coverage_ratio']:.4f}: "
          f"{'ok' if not problems else 'FAILED'}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    prime()
    for workload in args.workload or WORKLOADS:
        problems = check(workload, args.seed)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        if problems:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
