"""Regenerate ``expected.json``: modeled-output digests at the default seed.

Run from the repository root after a change that is meant to move
modeled outputs::

    PYTHONPATH=src python3 hostbench/record.py

It refuses to write when the nine ``demo`` trials of ``sweep-cold`` no
longer reproduce the metrics committed in ``BENCH_10.json``.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

import numpy as np

from layers import Capture
from workloads import DEFAULT_SEED, EXPECTED_PATH, WORKLOADS, metrics_digest

BASELINE = Path(__file__).resolve().parents[1] / "BENCH_10.json"


def main() -> int:
    digests = {}
    with Capture() as capture:
        for name, workload in WORKLOADS.items():
            prepared = workload(DEFAULT_SEED)
            capture.take()
            outcomes = prepared.run_pass(capture)
            failed = [o.label for o in outcomes if o.raised]
            if failed:
                print(f"{name}: simulations raised: {failed}",
                      file=sys.stderr)
                return 1
            digests[name] = {o.label: metrics_digest(o.metrics)
                             for o in outcomes}

    baseline = json.loads(BASELINE.read_text())["trials"]
    mismatched = [t["trial_id"] for t in baseline
                  if digests["sweep-cold"].get(t["trial_id"])
                  != metrics_digest(t["metrics"])]
    if mismatched:
        print(f"demo trials differ from {BASELINE.name}: {mismatched}",
              file=sys.stderr)
        return 1
    EXPECTED_PATH.write_text(json.dumps({
        "seed": DEFAULT_SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "digests": digests,
    }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH.name}: {len(baseline)} of "
          f"{len(digests['sweep-cold'])} sweep-cold trials match "
          f"{BASELINE.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
