"""One function per paper table/figure (the per-experiment index of
DESIGN.md).  Every function returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows mirror the
series the paper plots; the ``benchmarks/`` suite calls these and
asserts the paper's qualitative claims on the returned data.

Run from the command line::

    python -m repro.bench.experiments            # everything
    python -m repro.bench.experiments fig13 tbl5 # a subset
"""

from __future__ import annotations

import numpy as np

from repro.bench.accuracy import (
    correlated_2d_sample,
    model_accuracy_proxy,
    mse_elementwise,
    mse_vq,
)
from repro.bench.e2e import MODES, E2ELedger
from repro.bench.harness import ExperimentResult
from repro.bench.workloads import (
    attention_sample,
    llama_attention_shape,
    llama_gemm_shape,
    llama_gemv_shape,
    weight_sample,
)
from repro.core.codegen import VQLLMCodeGenerator
from repro.core.dataflow import axes_for
from repro.core.fusion import REQUIRED_LAYOUT, n_shuffles
from repro.core.heuristics import LEVELS
from repro.core.hotness import block_consistency, per_block_counts, \
    profile_hotness
from repro.core.slack import find_slack
from repro.core.template import BASE_RESOURCES
from repro.gpu.costmodel import CostModel
from repro.gpu.occupancy import occupancy_curve_regs, occupancy_curve_smem
from repro.gpu.spec import A40, RTX4090
from repro.kernels.attention import (
    FlashAttentionKernel,
    FlashDecodingKernel,
    PagedFlashAttentionKernel,
    PagedFlashDecodingKernel,
)
from repro.kernels.elementwise import (
    ElementwiseAttentionKernel,
    ElementwiseGemmKernel,
    ElementwiseGemvKernel,
)
from repro.kernels.gemm import FP16GemmKernel, FP16GemvKernel
from repro.llm.config import llama_7b, llama_65b
from repro.vq.algorithms import ALGORITHMS, make_config

WEIGHT_ALGOS = ("quip#-4", "aqlm-3", "gptvq-2")


# ----------------------------------------------------------------------
# Fig. 2 — VQ vs element-wise quantization accuracy
# ----------------------------------------------------------------------
def fig02_accuracy(seed: int = 0) -> ExperimentResult:
    """VQ beats element-wise reconstruction at equal bit width."""
    result = ExperimentResult(
        "fig2", "Fig. 2 proxy: reconstruction MSE on correlated data",
        columns=("bits", "elementwise_mse", "vq_mse", "vq_wins"),
    )
    data = correlated_2d_sample(seed=seed)
    for bits in (2, 3, 4):
        ew = mse_elementwise(data, bits)
        vq = mse_vq(data, bits, vector_size=2, seed=seed)
        result.add_row(bits, ew, vq, vq < ew)
    return result


# ----------------------------------------------------------------------
# Fig. 4 — motivation: GC/SC attention vs FP16, with counters
# ----------------------------------------------------------------------
def fig04_motivation() -> ExperimentResult:
    """Latency and profiler counters of naive VQ attention (CQ-2)."""
    spec = RTX4090
    gen = VQLLMCodeGenerator(spec)
    cost = CostModel(spec)
    shape = llama_attention_shape(llama_7b(), batch=1, seq_len=1024)
    qt_k, qt_v = attention_sample("cq-2")

    fp16 = FlashDecodingKernel(shape)
    fp16_counters = cost.resolve_occupancy(fp16.counters(spec))
    fp16_us = cost.latency(fp16.counters(spec)).total_us

    result = ExperimentResult(
        "fig4", "Fig. 4: VQ-attn GC/SC vs FP16 (CQ-2, Llama-7B, RTX 4090)",
        columns=("version", "latency_us", "rel_latency", "occupancy",
                 "smem_per_block", "bank_conflicts",
                 "global_to_shared_MB", "shared_to_reg_MB"),
    )
    result.add_row("FP16-attn", fp16_us, 1.0, fp16_counters.occupancy,
                   fp16_counters.smem_per_block, 0.0,
                   fp16_counters.global_to_shared_bytes / 1e6,
                   fp16_counters.shared_to_reg_bytes / 1e6)
    for level, label in (("GC", "VQ-attn-GC"), ("SC", "VQ-attn-SC")):
        k = gen.generate_attention(shape, qt_k, qt_v, level=level)
        c = cost.resolve_occupancy(k.counters())
        result.add_row(label, k.latency_us(), k.latency_us() / fp16_us,
                       c.occupancy, c.smem_per_block,
                       c.bank_conflict_transactions,
                       c.global_to_shared_bytes / 1e6,
                       c.shared_to_reg_bytes / 1e6)
    return result


# ----------------------------------------------------------------------
# Fig. 8 / Fig. 9 — codebook entry hotness
# ----------------------------------------------------------------------
def fig08_hotness() -> ExperimentResult:
    """Entry access-frequency skew for AQLM-3 (Fig. 8)."""
    qt = weight_sample("aqlm-3")
    profile = profile_hotness(qt)
    result = ExperimentResult(
        "fig8", "Fig. 8: codebook entry access frequency (AQLM-3)",
        columns=("metric", "value"),
    )
    result.add_row("n_entries", profile.n_entries)
    result.add_row("total_accesses", profile.total_accesses)
    result.add_row("mean_count", float(profile.counts.mean()))
    result.add_row("below_mean_fraction", profile.below_mean_fraction())
    result.add_row("hot_entries_mu_3sigma", profile.hot_entries(3.0))
    result.add_row("top32_coverage", profile.coverage(32))
    result.add_row("top256_coverage", profile.coverage(256))
    return result


def fig09_block_hotness() -> ExperimentResult:
    """Hot entries are consistent across tensor parts (Fig. 9)."""
    result = ExperimentResult(
        "fig9", "Fig. 9: hot-entry consistency across thread blocks",
        columns=("algorithm", "n_blocks", "consistency_top32"),
    )
    for algo in WEIGHT_ALGOS:
        qt = weight_sample(algo)
        counts = per_block_counts(qt, rows_per_block=64)
        result.add_row(algo, counts.shape[0],
                       block_consistency(counts, top_n=32))
    return result


# ----------------------------------------------------------------------
# Fig. 10 — occupancy curves and slack
# ----------------------------------------------------------------------
def fig10_slack() -> ExperimentResult:
    """Occupancy vs resource demand; slack per operation (Fig. 10)."""
    spec = RTX4090
    result = ExperimentResult(
        "fig10", "Fig. 10: resource slack per operation (RTX 4090)",
        columns=("operation", "base_regs", "base_smem",
                 "reg_slack", "smem_slack_bytes", "baseline_blocks"),
    )
    for op, base in BASE_RESOURCES.items():
        slack = find_slack(spec, base["threads"], base["regs"],
                           base["smem"])
        result.add_row(op, base["regs"], base["smem"],
                       slack.regs_per_thread, slack.smem_bytes,
                       slack.baseline_blocks_per_sm)
    # Attach the raw curves so plots/tests can check the step structure.
    base = BASE_RESOURCES["gemv"]
    result.notes.append("smem curve (gemv): " + str(occupancy_curve_smem(
        spec, base["threads"], base["regs"],
        [8192, 16384, 32768, 65536, 98304])))
    result.notes.append("reg curve (gemv): " + str(occupancy_curve_regs(
        spec, base["threads"], base["smem"], [32, 64, 96, 128, 192])))
    return result


# ----------------------------------------------------------------------
# Fig. 13 — overall latency reduction vs the unoptimized (GC) version
# ----------------------------------------------------------------------
def fig13_overall(model: str = "7b") -> ExperimentResult:
    """Best-level latency reduction vs GC for every kernel/config."""
    spec = RTX4090
    gen = VQLLMCodeGenerator(spec)
    config = llama_7b() if model == "7b" else llama_65b()
    result = ExperimentResult(
        "fig13", f"Fig. 13: latency reduction vs GC (Llama-{model.upper()})",
        columns=("kernel", "algorithm", "gc_us", "best_us", "best_level",
                 "reduction"),
    )

    def add(kernel_name, algo, latencies):
        best_level = min(latencies, key=latencies.get)
        red = 1.0 - latencies[best_level] / latencies["GC"]
        result.add_row(kernel_name, algo, latencies["GC"],
                       latencies[best_level], best_level, red)

    gemm_shape = llama_gemm_shape(config, seq_len=1024)
    for algo in WEIGHT_ALGOS:
        qt = weight_sample(algo)
        add("GeMM", algo, {
            lv: gen.generate_gemm(gemm_shape, qt, level=lv).latency_us()
            for lv in LEVELS})
    for batch in (1, 16):
        shape = llama_gemv_shape(config, batch=batch)
        for algo in WEIGHT_ALGOS:
            qt = weight_sample(algo)
            add(f"GeMV BS{batch}", algo, {
                lv: gen.generate_gemv(shape, qt, level=lv).latency_us()
                for lv in LEVELS})
    qt_k, qt_v = attention_sample("cq-2")
    for seq in (1024, 4096):
        for batch in (1, 8):
            shape = llama_attention_shape(config, batch=batch, seq_len=seq)
            add(f"Attn {seq // 1024}k BS{batch}", "cq-2", {
                lv: gen.generate_attention(shape, qt_k, qt_v,
                                           level=lv).latency_us()
                for lv in LEVELS})

    mean_red = float(np.mean(result.column("reduction")))
    max_red = float(np.max(result.column("reduction")))
    result.notes.append(f"mean reduction {mean_red:.1%}, "
                        f"max {max_red:.1%} "
                        "(paper: mean 46.13%, max 53.73%)")
    return result


# ----------------------------------------------------------------------
# Fig. 14 — GeMM / GeMV optimization breakdown
# ----------------------------------------------------------------------
def fig14_breakdown(operation: str = "gemm",
                    batch: int = 1) -> ExperimentResult:
    """Per-level latency of weight-quantized kernels (Fig. 14)."""
    spec = RTX4090
    gen = VQLLMCodeGenerator(spec)
    config = llama_7b()
    if operation == "gemm":
        shape = llama_gemm_shape(config, seq_len=1024)
        generate = gen.generate_gemm
    else:
        shape = llama_gemv_shape(config, batch=batch)
        generate = gen.generate_gemv
    result = ExperimentResult(
        "fig14", f"Fig. 14: {operation.upper()} breakdown (Llama-7B)",
        columns=("algorithm",) + LEVELS,
    )
    for algo in WEIGHT_ALGOS:
        qt = weight_sample(algo)
        row = [generate(shape, qt, level=lv).latency_us() for lv in LEVELS]
        result.add_row(algo, *row)
    return result


# ----------------------------------------------------------------------
# Fig. 15 — attention breakdown and CQ-4 vs CQ-2
# ----------------------------------------------------------------------
def fig15_attention_breakdown() -> ExperimentResult:
    """Per-level attention latency, CQ-2 and CQ-4 (Fig. 15)."""
    spec = RTX4090
    gen = VQLLMCodeGenerator(spec)
    config = llama_7b()
    result = ExperimentResult(
        "fig15", "Fig. 15: Attention (decode) breakdown (Llama-7B)",
        columns=("algorithm", "seq_len", "batch") + LEVELS,
    )
    for algo in ("cq-2", "cq-4"):
        qt_k, qt_v = attention_sample(algo)
        for seq in (1024, 4096):
            for batch in (1, 8):
                shape = llama_attention_shape(config, batch=batch,
                                              seq_len=seq)
                row = [gen.generate_attention(shape, qt_k, qt_v,
                                              level=lv).latency_us()
                       for lv in LEVELS]
                result.add_row(algo, seq, batch, *row)
    return result


# ----------------------------------------------------------------------
# Fig. 16 — comparison with FP16 and element-wise quantization
# ----------------------------------------------------------------------
def fig16_elementwise() -> ExperimentResult:
    """VQ-LLM vs AWQ/QoQ/FP16 at equivalent 4-bit (Fig. 16)."""
    spec = RTX4090
    gen = VQLLMCodeGenerator(spec)
    config = llama_7b()
    result = ExperimentResult(
        "fig16", "Fig. 16: latency vs element-wise quantization (4-bit)",
        columns=("kernel", "version", "latency_us", "relative_to_ew"),
    )

    gemm_shape = llama_gemm_shape(config, seq_len=1024)
    awq_gemm = ElementwiseGemmKernel(gemm_shape, bits=4).latency_us(spec)
    result.add_row("GeMM", "AWQ-4bit", awq_gemm, 1.0)
    result.add_row("GeMM", "cutlass-FP16",
                   FP16GemmKernel(gemm_shape).latency_us(spec),
                   FP16GemmKernel(gemm_shape).latency_us(spec) / awq_gemm)
    for algo in ("quip#-4", "gptvq-2"):
        qt = weight_sample(algo)
        us = gen.generate_gemm(gemm_shape, qt, level="O4").latency_us()
        result.add_row("GeMM", f"VQ-LLM {algo}", us, us / awq_gemm)
    gc_us = gen.generate_gemm(gemm_shape, weight_sample("quip#-4"),
                              level="GC").latency_us()
    result.add_row("GeMM", "open-source-style (GC) quip#-4", gc_us,
                   gc_us / awq_gemm)

    gemv_shape = llama_gemv_shape(config, batch=16)
    awq_gemv = ElementwiseGemvKernel(gemv_shape, bits=4).latency_us(spec)
    result.add_row("GeMV BS16", "AWQ-4bit", awq_gemv, 1.0)
    result.add_row("GeMV BS16", "cutlass-FP16",
                   FP16GemvKernel(gemv_shape).latency_us(spec),
                   FP16GemvKernel(gemv_shape).latency_us(spec) / awq_gemv)
    for algo in ("quip#-4", "gptvq-2"):
        qt = weight_sample(algo)
        us = gen.generate_gemv(gemv_shape, qt, level="O4").latency_us()
        result.add_row("GeMV BS16", f"VQ-LLM {algo}", us, us / awq_gemv)
    gc_us = gen.generate_gemv(gemv_shape, weight_sample("quip#-4"),
                              level="GC").latency_us()
    result.add_row("GeMV BS16", "open-source-style (GC) quip#-4", gc_us,
                   gc_us / awq_gemv)

    attn_shape = llama_attention_shape(config, batch=1, seq_len=1024)
    qoq = ElementwiseAttentionKernel(attn_shape, bits=4).latency_us(spec)
    result.add_row("Attention BS1 1k", "QoQ-4bit", qoq, 1.0)
    result.add_row("Attention BS1 1k", "Flash-FP16",
                   FlashDecodingKernel(attn_shape).latency_us(spec),
                   FlashDecodingKernel(attn_shape).latency_us(spec) / qoq)
    for algo in ("cq-4", "cq-2"):
        qt_k, qt_v = attention_sample(algo)
        us = gen.generate_attention(attn_shape, qt_k, qt_v,
                                    level="O4").latency_us()
        result.add_row("Attention BS1 1k", f"VQ-LLM {algo}", us, us / qoq)
    return result


# ----------------------------------------------------------------------
# Fig. 17 — end-to-end speedup and accuracy proxy
# ----------------------------------------------------------------------
def fig17_e2e(batch: int = 16, prompt_len: int = 1024,
              gen_tokens: int = 256) -> ExperimentResult:
    """E2E generation speedups over FP16 (Fig. 17 left)."""
    result = ExperimentResult(
        "fig17", "Fig. 17: E2E speedup over FP16 "
        f"(Llama-7B, BS{batch}, {prompt_len}+{gen_tokens} tokens)",
        columns=("gpu", "mode", "speedup"),
    )
    ledgers = [E2ELedger(spec, llama_7b()) for spec in (RTX4090, A40)]
    for ledger in ledgers:
        speedups = ledger.speedups(batch, prompt_len, gen_tokens)
        for mode in MODES:
            result.add_row(ledger.spec.name, mode, speedups[mode])
    # The element-wise note reads the RTX 4090 ledger, whose engine has
    # already costed these kernels.
    fp16_step = ledgers[0].decode_step(batch, prompt_len, "fp16")
    vq_step = ledgers[0].decode_step(batch, prompt_len, "vq4")
    result.notes.append(
        f"elementwise-op share: fp16 {fp16_step.elementwise_share:.1%}, "
        f"vq4 {vq_step.elementwise_share:.1%} (paper: ~10% / ~20%)")
    return result


def fig17_accuracy(seed: int = 0) -> ExperimentResult:
    """Accuracy proxy: VQ vs element-wise on a tiny model (Fig. 17 right)."""
    result = ExperimentResult(
        "fig17acc", "Fig. 17 (right) proxy: quantized-model quality",
        columns=("scheme", "weight_mse", "next_token_agreement",
                 "perplexity"),
    )
    for scheme, report in model_accuracy_proxy(seed=seed).items():
        result.add_row(scheme, report.weight_mse,
                       report.next_token_agreement, report.perplexity)
    return result


# ----------------------------------------------------------------------
# Fig. 18 — attention baseline comparison
# ----------------------------------------------------------------------
def fig18_attention_baselines() -> ExperimentResult:
    """CQ-4 fused attention vs the FP16 attention family (Fig. 18)."""
    spec = RTX4090
    gen = VQLLMCodeGenerator(spec)
    config = llama_7b()
    qt_k, qt_v = attention_sample("cq-4")
    baselines = (
        ("Flash Decoding", FlashDecodingKernel),
        ("Paged Flash Decoding", PagedFlashDecodingKernel),
        ("Flash Attention", FlashAttentionKernel),
        ("Paged Flash Attention", PagedFlashAttentionKernel),
    )
    result = ExperimentResult(
        "fig18", "Fig. 18: FP16 attention baselines relative to VQ-LLM CQ-4",
        columns=("seq_len", "batch", "vqllm_us") + tuple(
            name for name, _ in baselines),
    )
    for seq in (1024, 2048, 4096):
        for batch in (1, 8):
            shape = llama_attention_shape(config, batch=batch, seq_len=seq)
            ours = gen.generate_attention(shape, qt_k, qt_v,
                                          level="O4").latency_us()
            rel = [cls(shape).latency_us(spec) / ours
                   for _, cls in baselines]
            result.add_row(seq, batch, ours, *rel)
    return result


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def tbl02_configs() -> ExperimentResult:
    """Tbl. II: the published VQ algorithm configurations."""
    result = ExperimentResult(
        "tbl2", "Tbl. II: VQ algorithms and configurations",
        columns=("algorithm", "compression_vs_fp16", "vector_size",
                 "n_entries", "residuals", "scope"),
    )
    for key in ("quip#-4", "aqlm-3", "gptvq-2", "cq-4", "cq-2"):
        cfg = ALGORITHMS[key]
        result.add_row(cfg.name, cfg.compression_ratio, cfg.vector_size,
                       cfg.n_entries, cfg.residuals, cfg.scope)
    return result


def tbl03_axes() -> ExperimentResult:
    """Tbl. III: reduce and codebook-switch axes per computation."""
    result = ExperimentResult(
        "tbl3", "Tbl. III: reduce / codebook-switch axes",
        columns=("operation", "scope", "all_axes", "reduce_axes",
                 "switch_axes", "needs_global_reduction"),
    )
    cases = (
        ("gemm", "aqlm-3"), ("gemm", "gptvq-2"),
        ("gemv", "quip#-4"), ("gemv", "gptvq-2"),
        ("attention_k", "cq-2"), ("attention_v", "cq-2"),
    )
    for op, algo in cases:
        cfg = make_config(algo)
        spec = axes_for(op, cfg)
        result.add_row(op, cfg.scope, spec.all_axes, spec.reduce_axes,
                       spec.switch_axes, spec.needs_global_reduction)
    return result


def tbl05_factors() -> ExperimentResult:
    """Tbl. V: per-configuration optimization factors."""
    spec = RTX4090
    config = llama_7b()
    result = ExperimentResult(
        "tbl5", "Tbl. V: factors influencing the optimizations",
        columns=("algorithm", "codebook_per_block_KB", "hot_entries",
                 "output_per_block_KB", "shuffles_gemm_or_attn",
                 "shuffles_gemv"),
    )
    gen = VQLLMCodeGenerator(spec)
    for algo in WEIGHT_ALGOS:
        cfg = make_config(algo)
        qt = weight_sample(algo)
        profile = profile_hotness(qt)
        books = gen._resident_books("gemm", cfg, llama_gemm_shape(config),
                                    dataflow=False)
        cb_kb = books * cfg.codebook_bytes / 1024
        out_kb = 128 * 128 * 2 / 1024  # GEMM block output tile
        result.add_row(cfg.name, cb_kb, profile.hot_entries(3.0), out_kb,
                       n_shuffles(cfg.vector_size, REQUIRED_LAYOUT["gemm"]),
                       n_shuffles(cfg.vector_size, REQUIRED_LAYOUT["gemv"]))
    for algo in ("cq-2", "cq-4"):
        cfg = make_config(algo)
        qt_k, _ = attention_sample(algo)
        profile = profile_hotness(qt_k)
        shape = llama_attention_shape(config)
        books = gen._resident_books("attention", cfg, shape, dataflow=False)
        cb_kb = books * cfg.codebook_bytes / 1024
        out_kb = shape.head_dim * 2 * 8 / 1024  # per-block partials
        result.add_row(cfg.name, cb_kb, profile.hot_entries(3.0), out_kb,
                       n_shuffles(cfg.vector_size,
                                  REQUIRED_LAYOUT["attention_v"]),
                       n_shuffles(cfg.vector_size,
                                  REQUIRED_LAYOUT["attention_v"]))
    return result


#: Registry for the CLI and the benchmark suite.
EXPERIMENTS = {
    "fig2": fig02_accuracy,
    "fig4": fig04_motivation,
    "fig8": fig08_hotness,
    "fig9": fig09_block_hotness,
    "fig10": fig10_slack,
    "fig13": fig13_overall,
    "fig14": fig14_breakdown,
    "fig15": fig15_attention_breakdown,
    "fig16": fig16_elementwise,
    "fig17": fig17_e2e,
    "fig17acc": fig17_accuracy,
    "fig18": fig18_attention_baselines,
    "tbl2": tbl02_configs,
    "tbl3": tbl03_axes,
    "tbl5": tbl05_factors,
}


def main(argv=None) -> int:
    """CLI entry point: print requested experiments (default: all)."""
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    ids = args or list(EXPERIMENTS)
    for exp_id in ids:
        if exp_id not in EXPERIMENTS:
            print(f"unknown experiment {exp_id!r}; known: "
                  f"{sorted(EXPERIMENTS)}")
            return 1
        print(EXPERIMENTS[exp_id]())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
