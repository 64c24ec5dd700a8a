"""Fleet sizing: how many fewer GPUs does a VQ KV cache need?

The single-GPU serving example shows CQ-compressed caches sustaining
more throughput from one card.  At fleet scale the same effect is
priced in GPUs: at a fixed offered load and a TTFT-p95 SLO, each mode's
fleet is grown one replica at a time until it complies — every replica
an RTX 4090 with identical HBM, weights resident, the rest of the
memory given to the KV cache.  FP16 reserves ~0.5 MB of cache per
token and queues; CQ-4 reserves a quarter of that, admits ~4x the
concurrent sequences per replica, and meets the same SLO with a
smaller fleet.

Also prints the tensor-parallel decode-scaling table: per-shard kernels
shrink with TP degree while ring collectives grow, and the crossover
depends on the interconnect (NVLink vs PCIe).

Run with::

    PYTHONPATH=src python examples/cluster_serving.py
"""

from repro.bench.cluster import (
    fleet_sizing_comparison,
    replica_kv_budget,
    tp_scaling,
)
from repro.cluster.fleet import SLO
from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.llm.config import llama_7b
from repro.serve.scheduler import hbm_walk

#: Shared workload: 96 requests offered at 24 req/s, ~1024-token
#: prompts and ~96-token outputs — prompt-heavy traffic that stresses
#: KV capacity, the regime where compression changes fleet size.
WORKLOAD = dict(rate_rps=24.0, n_requests=96, prompt_mean=1024,
                output_mean=96, trace_kind="poisson", seed=0)

#: The service-level objective: 95% of requests see their first token
#: within 2 s.
TARGET = SLO(ttft_s=2.0)


def main():
    spec, config = RTX4090, llama_7b()
    engine = ComputeEngine(spec)

    weights_gb = hbm_walk(config, spec).weights / 1e9
    print(f"{config.name} on {spec.name} fleets "
          f"({spec.dram_gb:.0f} GB/GPU, ~{weights_gb:.1f} GB FP16 "
          f"weights resident per replica)")
    print(f"offered: {WORKLOAD['rate_rps']:.0f} req/s, "
          f"~{WORKLOAD['prompt_mean']} prompt / "
          f"~{WORKLOAD['output_mean']} output tokens; "
          f"SLO: TTFT p95 <= {TARGET.ttft_s:.1f} s\n")

    reports = {}
    table = fleet_sizing_comparison(
        spec=spec, config=config, engine=engine,
        modes=("fp16", "kv-cq-4"), slo=TARGET, policy="least-kv",
        max_replicas=8, reports=reports, **WORKLOAD)

    for mode, (size, report) in reports.items():
        print(report.summary())
        print()
    print(table)

    n_fp16, _ = reports["fp16"]
    n_vq, vq_report = reports["kv-cq-4"]
    assert n_fp16 is not None and n_vq is not None, \
        "both fleets should be sizeable within the search limit"
    assert n_vq < n_fp16, \
        "the VQ fleet should meet the SLO with fewer GPUs than FP16"
    kv_gain = (replica_kv_budget(config, "kv-cq-4", spec).max_tokens
               / replica_kv_budget(config, "fp16", spec).max_tokens)
    print(f"\n=> kv-cq-4 meets the TTFT-p95 SLO with {n_vq} GPUs where "
          f"FP16 needs {n_fp16} — {n_fp16 - n_vq} fewer GPUs "
          f"({n_vq / n_fp16:.0%} of the FP16 fleet) at equal per-GPU "
          f"HBM, because each replica's KV budget holds "
          f"{kv_gain:.1f}x the tokens.\n")

    print(tp_scaling(spec=spec, config=config, engine=engine,
                     degrees=(1, 2, 4, 8), batch=16, context_tokens=1024))
    print("\nTP shrinks per-shard kernels but adds two ring all-reduces "
          "per layer; PCIe's hop latency erases most of the gain that "
          "NVLink keeps.")


if __name__ == "__main__":
    main()
