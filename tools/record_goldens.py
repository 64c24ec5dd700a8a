"""Record golden metrics for the fast-path refactor tests.

Runs the pinned scenarios of ``tests/test_golden_fastpath.py`` and
writes their full ``metrics()`` dicts to
``tests/data/golden_fastpath.json``.  JSON round-trips Python floats
losslessly, so the stored values pin the simulator's output
*bit-identical*: any refactor of the scheduler, cost model or event
core that changes a single float shows up as a golden diff.

Regenerate (only when an intentional semantic change lands)::

    PYTHONPATH=src python tools/record_goldens.py
"""

from __future__ import annotations

import json
import os
import sys

from repro.bench.cluster import replica_kv_budget
from repro.bench.serving import make_cost_model, make_trace, simulate_mode
from repro.cluster.fleet import size_fleet
from repro.serve.api import FleetConfig
from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.llm.config import llama_7b
from repro.obs.slo import SLO

OUT = os.path.join(os.path.dirname(__file__), os.pardir,
                   "tests", "data", "golden_fastpath.json")

#: The PR-1 seed workload (poisson trace, real RTX 4090 cost model).
SEED_WORKLOAD = dict(kv_hbm_gb=4.0, rate_rps=16.0, n_requests=64,
                     prompt_mean=384, output_mean=96, seed=0)

#: The PR-5 prefix workload (chat sessions, paged blocks, 1 GB KV).
PREFIX_WORKLOAD = dict(kv_hbm_gb=2.0, rate_rps=16.0, n_requests=48,
                       prompt_mean=256, output_mean=64, seed=0,
                       trace_kind="chat", admission="paged",
                       prefix_caching=True)

#: Fleet scenario: 3 identical replicas, poisson arrivals.
FLEET_TRACE = dict(kind="poisson", rate_rps=24.0, n_requests=48,
                   prompt_mean=512, output_mean=64, seed=0)

#: Sizing scenario: smallest kv-cq-4 fleet under a 2 s TTFT SLO.
SIZING_TRACE = dict(kind="poisson", rate_rps=24.0, n_requests=48,
                    prompt_mean=768, output_mean=96, seed=0)
SIZING_SLO = SLO(ttft_s=2.0)


def record() -> dict:
    config = llama_7b()
    engine = ComputeEngine(RTX4090)
    golden: dict = {}

    seed = {}
    for mode in ("fp16", "kv-cq-4"):
        for adm in ("reserve", "paged"):
            rep = simulate_mode(mode, config=config, engine=engine,
                                admission=adm, **SEED_WORKLOAD)
            seed[f"{mode}/{adm}"] = rep.metrics()
    golden["seed"] = seed

    prefix = {}
    for mode in ("fp16", "kv-cq-4"):
        rep = simulate_mode(mode, config=config, engine=engine,
                            **PREFIX_WORKLOAD)
        prefix[mode] = rep.metrics()
    golden["prefix"] = prefix

    # Fleets are built as hostbench's fleet-route builds them: per-GPU
    # budget, cost model, then FleetConfig.build.
    budget = replica_kv_budget(config, "kv-cq-4", RTX4090)
    cost_model = make_cost_model(engine, config, "kv-cq-4")
    spec = dict(FLEET_TRACE)
    trace = make_trace(spec.pop("kind"), **spec)
    fleet = {}
    for policy in ("jsq", "least-kv"):
        rep = FleetConfig(policy=policy).build(3, budget,
                                               cost_model).run(trace)
        fleet[policy] = {
            "metrics": rep.metrics(),
            "replica_iterations": [s.n_iterations for s in rep.replica_stats],
            "replica_requests": [s.n_requests for s in rep.replica_stats],
        }
    golden["fleet"] = fleet

    spec = dict(SIZING_TRACE)
    strace = make_trace(spec.pop("kind"), **spec)
    n, rep = size_fleet(FleetConfig(policy="least-kv"), budget, cost_model,
                        strace, SIZING_SLO, max_replicas=4)
    golden["sizing"] = {"n_replicas": n, "metrics": rep.metrics(SIZING_SLO)}
    return golden


def main() -> int:
    golden = record()
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(OUT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
