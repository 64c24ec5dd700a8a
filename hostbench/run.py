"""Host-time benchmark of the VQ-LLM simulator.

Run from the repository root::

    python3 hostbench/run.py --workload chat-prefix --seed 0 \
        --seconds 20 --trace 0

The simulator runs as its users run it: one process, one thread, no
worker pool.  The launcher first primes the on-disk sample-tensor cache
(``.benchmarks/samples``) in an untimed process, then starts
:data:`PROCESSES` measured processes one after another (``worker.py``),
each of which sets the workload up once and times passes over it for
its share of ``--seconds``.  End-to-end metrics (``--trace 0``) are
medians over processes (``setup_s``, ``peak_rss_mb``) or over passes
(``run_s``, ``sim_req_per_s``).  Times are wall time rescaled to a
nominal host speed measured alongside (:mod:`speed`); raw wall-clock
medians are printed on a comment line.  ``--trace 1`` reports the
per-layer metrics (raw wall time) of the median traced pass, plus the
tracing overhead.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; an operation is one trace
request, and it fails if its simulation raised, if the simulation's
modeled metrics differ from the digest pinned for the default seed in
``expected.json``, or if the request was not conserved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-cold", "chat-prefix", "fleet-route")

#: Measured processes per run; ``setup_s`` is their median.
PROCESSES = 3
#: Wall-clock cap on the measured processes together, seconds.
MEASURE_TIMEOUT_S = 170
#: Sample priming trains codebooks on a fresh checkout (~10 s each).
PRIME_TIMEOUT_S = 600

END_TO_END = {"run_s": "s", "setup_s": "s", "sim_req_per_s": "1/s",
              "peak_rss_mb": "MB"}


def _env() -> dict:
    """The pinned child environment: one thread, sanitizer off."""
    env = dict(os.environ)
    env.pop("REPRO_SANITIZE", None)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               REPRO_SAMPLE_CACHE=str(ROOT / ".benchmarks" / "samples"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def prime() -> None:
    """Load, or on a fresh checkout train and store, the sample tensors."""
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--prime"],
                   env=_env(), timeout=PRIME_TIMEOUT_S, check=True)


def _child(args, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=_env(),
                          stdout=subprocess.PIPE, timeout=deadline - t0,
                          check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _aggregate(children: list, trace: bool) -> dict:
    passes = [p for c in children for p in c["passes"]]
    if not trace:
        return {
            "run_s": statistics.median(p["nominal_s"] for p in passes),
            "setup_s": statistics.median(c["setup_s"] for c in children),
            "sim_req_per_s": statistics.median(p["completed"] / p["nominal_s"]
                                               for p in passes),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"]
                                             for c in children),
        }
    traced = sorted((p for c in children for p in c["traced_passes"]),
                    key=lambda p: p["traced_run_s"])
    out = dict(traced[(len(traced) - 1) // 2])
    out["trace_overhead_ratio"] = statistics.median(
        p["trace_overhead_ratio"] for p in traced)
    for name in children[0]["setup_layers"]:
        out[name] = statistics.median(c["setup_layers"][name]
                                      for c in children)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2

    prime()
    deadline = time.perf_counter() + MEASURE_TIMEOUT_S
    children = [_child(args, args.seconds / PROCESSES, deadline)
                for _ in range(PROCESSES)]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    values = _aggregate(children, bool(args.trace))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {children[0]['versions']}, "
          f"{PROCESSES} processes, "
          f"{sum(len(c['passes']) for c in children)} untraced passes")
    print(f"# failed_ratio {failed / attempted:.6g} "
          f"({failed} of {attempted} requests)")
    passes = [p for c in children for p in c["passes"]]
    print(f"# wall clock, not speed-normalized: pass median "
          f"{statistics.median(p['work_s'] for p in passes):.4f} s, "
          f"setup median "
          f"{statistics.median(c['setup_wall_s'] for c in children):.4f} s")
    metrics = {}
    for name in sorted(values):
        unit = END_TO_END.get(name) or _unit(name)
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name:40s} {values[name]:14.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
