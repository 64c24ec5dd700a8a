"""Ablation and sensitivity studies on the design choices.

Beyond the paper's own figures, these sweeps probe the knobs DESIGN.md
calls out:

- :func:`bandwidth_sensitivity` — Sec. VII-E's observation (the A40
  gains more than the 4090) generalised: VQ-LLM's advantage over FP16
  as a function of DRAM bandwidth.
- :func:`shuffle_threshold_sweep` — the profiled "one smem round trip
  ~ five shuffles" constant: how the fusion decision and latency move
  if the threshold were different.
- :func:`occupancy_floor_sweep` — the slack heuristic's occupancy floor
  (how much occupancy the codebook cache may consume).
- :func:`quantization_overhead` — the paper's Sec. VII-F claim that
  online KV quantization is negligible, derived from the encode
  arithmetic itself.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.bench.workloads import (
    attention_sample,
    llama_attention_shape,
    llama_gemv_shape,
    weight_sample,
)
from repro.core import slack as slack_module
from repro.core.codegen import VQLLMCodeGenerator
from repro.core.fusion import REQUIRED_LAYOUT, n_shuffles
from repro.gpu.spec import RTX4090
from repro.kernels.attention import FlashDecodingKernel
from repro.llm.config import llama_7b
from repro.vq.algorithms import make_config


def bandwidth_sensitivity(fractions=(0.4, 0.6, 0.8, 1.0, 1.5)):
    """VQ-LLM attention speedup over FP16 vs DRAM bandwidth."""
    result = ExperimentResult(
        "abl-bw", "Ablation: speedup vs DRAM bandwidth (CQ-2 attention)",
        columns=("bandwidth_gbps", "fp16_us", "vqllm_us", "speedup"),
    )
    qt_k, qt_v = attention_sample("cq-2")
    shape = llama_attention_shape(llama_7b(), batch=8, seq_len=4096)
    for frac in fractions:
        spec = RTX4090.with_bandwidth(RTX4090.dram_bandwidth_gbps * frac)
        fp16 = FlashDecodingKernel(shape).latency_us(spec)
        ours = VQLLMCodeGenerator(spec).generate_attention(
            shape, qt_k, qt_v, level="O4").latency_us()
        result.add_row(spec.dram_bandwidth_gbps, fp16, ours, fp16 / ours)
    return result


def shuffle_threshold_sweep(thresholds=(0, 1, 3, 5, 7, 15)):
    """Fusion level chosen per algorithm as the threshold moves.

    The paper profiles the smem-round-trip cost at ~5 shuffles; this
    sweep shows which configurations flip between register and shared
    fusion as that constant changes.
    """
    result = ExperimentResult(
        "abl-thresh", "Ablation: fusion level vs shuffle threshold",
        columns=("threshold",) + tuple(
            f"{algo}-{op}" for algo in ("quip#-4", "gptvq-2")
            for op in ("gemm", "gemv")),
    )
    for threshold in thresholds:
        row = [threshold]
        for algo in ("quip#-4", "gptvq-2"):
            cfg = make_config(algo)
            for op in ("gemm", "gemv"):
                shuffles = n_shuffles(cfg.vector_size, REQUIRED_LAYOUT[op])
                row.append("register" if shuffles <= threshold
                           else "shared")
        result.add_row(*row)
    return result


def occupancy_floor_sweep(floors=(0.1, 0.25, 0.5, 0.9)):
    """GeMV latency as the slack heuristic's occupancy floor moves.

    A lower floor lets the codebook cache take more shared memory (fewer
    cold misses, less concurrency); a higher floor preserves occupancy
    but shrinks the cache.  The default (0.25) should be near the sweet
    spot for the large-codebook configuration (AQLM-3).
    """
    result = ExperimentResult(
        "abl-floor", "Ablation: AQLM-3 GeMV latency vs occupancy floor",
        columns=("min_occupancy", "latency_us", "n_shared"),
    )
    qt = weight_sample("aqlm-3")
    shape = llama_gemv_shape(llama_7b(), batch=1)
    original = slack_module.MIN_OCCUPANCY
    try:
        for floor in floors:
            slack_module.MIN_OCCUPANCY = floor
            gen = VQLLMCodeGenerator(RTX4090)
            kernel = gen.generate_gemv(shape, qt, level="O2")
            bounds = kernel.knobs.boundaries
            result.add_row(floor, kernel.latency_us(),
                           bounds.n_shared if bounds else 0)
    finally:
        slack_module.MIN_OCCUPANCY = original
    return result


def quantization_overhead():
    """Online/prefill KV quantization cost relative to the projections.

    Encoding one token's K (or V) against CQ codebooks costs one
    nearest-centroid search per channel group: ``entries * vector_size
    * 2`` FLOPs per sub-vector.  The paper reports < 1 us per decode
    token and < 10% of the prefill linear projections; both follow from
    the arithmetic.
    """
    cfg = llama_7b()
    vq = make_config("cq-2")
    groups = cfg.hidden // vq.vector_size
    encode_flops_per_token = (2 * groups * vq.n_entries * vq.vector_size
                              * 2 * vq.residuals)  # K and V
    qkv_flops_per_token = 2 * cfg.hidden * 3 * cfg.hidden
    # Decode-phase wall time at a conservative 10 TFLOP/s effective.
    encode_us = encode_flops_per_token / 10e12 * 1e6

    result = ExperimentResult(
        "abl-quant", "Ablation: online KV quantization overhead (CQ-2)",
        columns=("metric", "value"),
    )
    result.add_row("encode_flops_per_token", encode_flops_per_token)
    result.add_row("qkv_projection_flops_per_token", qkv_flops_per_token)
    result.add_row("encode_vs_projection",
                   encode_flops_per_token / qkv_flops_per_token)
    result.add_row("decode_encode_us_per_token", encode_us)
    return result


ABLATIONS = {
    "bandwidth": bandwidth_sensitivity,
    "threshold": shuffle_threshold_sweep,
    "floor": occupancy_floor_sweep,
    "quant-overhead": quantization_overhead,
}


def main(argv=None) -> int:
    """CLI: print requested ablations (default: all)."""
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    ids = args or list(ABLATIONS)
    for ablation_id in ids:
        if ablation_id not in ABLATIONS:
            print(f"unknown ablation {ablation_id!r}; known: "
                  f"{sorted(ABLATIONS)}")
            return 1
        print(ABLATIONS[ablation_id]())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
