"""End-to-end decode latency ledger (Fig. 17).

Sums modelled kernel latencies over every operator of a decode step
(enumerated by :func:`repro.llm.model.decode_operator_shapes`) under
four serving modes:

- ``fp16`` — FP16 weights and KV cache;
- ``qserve`` — AWQ-style INT4 weights + QoQ-style INT4 KV (the paper's
  qServe baseline);
- ``vq4`` — VQ-LLM with QuiP#-4 weights and CQ-4 KV (equivalent 4-bit);
- ``vq2`` — VQ-LLM with GPTVQ-2 weights and CQ-2 KV (equivalent 2-bit).

Generation latency integrates the decode step over the generated tokens
(the KV cache grows as it generates); element-wise operators (RMSNorm,
SiLU, RoPE) are costed as bandwidth-bound passes plus launch overhead,
which lands them at the paper's ~10% (FP16) / ~20% (4-bit) share.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.bench.harness import ExperimentResult
from repro.bench.workloads import attention_sample, weight_sample
from repro.core.engine import ComputeEngine
from repro.gpu.costmodel import LAUNCH_OVERHEAD_S
from repro.gpu.spec import GPUSpec, get_spec
from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GEMV_MAX_BATCH, GemmShape
from repro.llm.config import LlamaConfig
from repro.llm.model import decode_operator_shapes

#: Serving modes and the algorithms they map to.
MODES = ("fp16", "qserve", "vq4", "vq2")
_VQ_WEIGHT_ALGO = {"vq4": "quip#-4", "vq2": "gptvq-2"}
_VQ_KV_ALGO = {"vq4": "cq-4", "vq2": "cq-2"}

#: Kernel launches per layer of the element-wise operators (two norms,
#: RoPE on Q and K, SiLU, gate multiply, two residual adds).
ELEMENTWISE_LAUNCHES = 8


@dataclass
class DecodeStepBreakdown:
    """Latency of one decode step, by operator class (microseconds)."""

    gemv_us: float
    attention_us: float
    elementwise_us: float

    @property
    def total_us(self) -> float:
        return self.gemv_us + self.attention_us + self.elementwise_us

    @property
    def elementwise_share(self) -> float:
        return self.elementwise_us / self.total_us


class E2ELedger:
    """Costs decode steps for one (GPU, model) pair.

    Kernel latencies go through the engine's memoized
    :meth:`~repro.core.engine.ComputeEngine.batch_latency_us`, so
    repeated decode steps at the same (batch, seq_len) — the common case
    when integrating over a generation or stepping a serving simulation
    — cost one dict lookup after the first evaluation.
    """

    def __init__(self, spec: GPUSpec, config: LlamaConfig,
                 engine: Optional[ComputeEngine] = None):
        self.spec = spec
        self.config = config
        self.engine = engine or ComputeEngine(spec)
        self._step_memo: Dict[tuple, DecodeStepBreakdown] = {}

    def _gemv_us(self, shape: GemmShape, mode: str) -> float:
        # Past the GEMV kernels' batch cap a decode projection runs as
        # the same family's GEMM (as StepCostModel prices it).
        kind = "gemm" if shape.m > GEMV_MAX_BATCH else "gemv"
        if mode == "fp16":
            return self.engine.batch_latency_us(kind, shape)
        if mode == "qserve":
            return self.engine.batch_latency_us(kind, shape, bits=4)
        qt = weight_sample(_VQ_WEIGHT_ALGO[mode])
        return self.engine.batch_latency_us(kind, shape, qt=qt, level="O4")

    def _attention_us(self, shape: AttentionShape, mode: str) -> float:
        if mode == "fp16":
            return self.engine.batch_latency_us("attention", shape)
        if mode == "qserve":
            return self.engine.batch_latency_us("attention", shape, bits=4)
        qt_k, qt_v = attention_sample(_VQ_KV_ALGO[mode])
        return self.engine.batch_latency_us("attention", shape, qt=qt_k,
                                            qt_v=qt_v, level="O4")

    def _elementwise_us(self, elements: int, quantized: bool) -> float:
        # Bandwidth-bound read+write pass at FP16, plus launch overheads.
        bytes_moved = elements * 2 * 2
        bw = self.spec.dram_bytes_per_s * 0.75
        extra = 1.3 if quantized else 1.0  # dequant epilogues & scales
        return (bytes_moved * extra / bw
                + ELEMENTWISE_LAUNCHES * LAUNCH_OVERHEAD_S) * 1e6

    def decode_step(self, batch: int, seq_len: int,
                    mode: str) -> DecodeStepBreakdown:
        """Latency breakdown of one decode step (memoized)."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected {MODES}")
        key = (batch, seq_len, mode)
        if key in self._step_memo:
            return self._step_memo[key]
        gemv_us = attn_us = ew_us = 0.0
        for op in decode_operator_shapes(self.config, batch, seq_len):
            if op.kind == "gemv":
                shape = GemmShape(m=op.m, n=op.n, k=op.k)
                # The LM head stays FP16 in every serving mode.
                op_mode = "fp16" if op.name == "lm_head" else mode
                gemv_us += self._gemv_us(shape, op_mode) * op.count
            elif op.kind == "attention":
                shape = AttentionShape(batch=op.batch, heads=op.heads,
                                       seq_len=op.seq_len,
                                       head_dim=op.head_dim)
                attn_us += self._attention_us(shape, mode) * op.count
            else:
                ew_us += self._elementwise_us(op.elements,
                                              mode != "fp16") * op.count
        breakdown = DecodeStepBreakdown(gemv_us, attn_us, ew_us)
        self._step_memo[key] = breakdown
        return breakdown

    def generation_us(self, batch: int, prompt_len: int, gen_tokens: int,
                      mode: str, samples: int = 4) -> float:
        """Latency of generating ``gen_tokens`` after a prompt.

        Integrates the decode-step cost over the growing KV cache,
        sampling a few cache lengths and interpolating (the cost is
        piecewise-linear in sequence length).
        """
        if gen_tokens <= 0:
            return 0.0
        points = max(2, samples)
        total = 0.0
        step = gen_tokens / (points - 1)
        costs = []
        for i in range(points):
            seq = int(prompt_len + i * step)
            costs.append(self.decode_step(batch, seq, mode).total_us)
        # Trapezoidal integration over the token axis.
        for i in range(points - 1):
            total += (costs[i] + costs[i + 1]) / 2 * step
        return total

    def speedups(self, batch: int, prompt_len: int,
                 gen_tokens: int) -> Dict[str, float]:
        """E2E speedup of each mode over FP16 (Fig. 17 left)."""
        base = self.generation_us(batch, prompt_len, gen_tokens, "fp16")
        return {
            mode: base / self.generation_us(batch, prompt_len, gen_tokens,
                                            mode)
            for mode in MODES
        }


def run(argv: Optional[Sequence[str]] = None,
        reports: Optional[dict] = None) -> ExperimentResult:
    """Run the CLI experiment and return the structured result.

    Same call shape as :func:`repro.bench.serving.run` and
    :func:`repro.bench.cluster.run`: the caller gets the
    :class:`~repro.bench.harness.ExperimentResult` back (and, with a
    dict as ``reports``, each mode's per-step
    :class:`DecodeStepBreakdown`) instead of having to scrape stdout.
    The orchestrator and tests consume this; :func:`main` is the
    printing wrapper around it.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.e2e",
        description="End-to-end decode latency ledger (Fig. 17): FP16 "
                    "vs qServe vs VQ-LLM serving modes.")
    parser.add_argument("--gpu", default="rtx4090",
                        help="GPU preset name (rtx4090, a40, a100)")
    parser.add_argument("--model", default="7b", choices=["7b", "65b"],
                        help="Llama model size")
    parser.add_argument("--modes", nargs="+", default=list(MODES),
                        choices=list(MODES), metavar="MODE",
                        help=f"serving modes to compare {MODES}")
    parser.add_argument("--batch", type=int, default=16,
                        help="decode batch size")
    parser.add_argument("--prompt-len", type=int, default=1024,
                        help="prompt length, tokens")
    parser.add_argument("--gen-tokens", type=int, default=256,
                        help="tokens generated per request")
    args = parser.parse_args(argv)

    from repro.llm.config import llama_7b, llama_65b
    spec = get_spec(args.gpu)
    config = llama_7b() if args.model == "7b" else llama_65b()
    ledger = E2ELedger(spec, config)

    result = ExperimentResult(
        experiment_id="e2e",
        title=f"E2E decode latency, Llama-{args.model} on {spec.name} "
              f"(batch {args.batch}, prompt {args.prompt_len}, "
              f"+{args.gen_tokens} tokens)",
        columns=("mode", "step_us", "gemv_us", "attn_us", "elementwise_us",
                 "generation_ms", "speedup_vs_fp16"),
    )
    seq = args.prompt_len + args.gen_tokens // 2
    base_us = ledger.generation_us(args.batch, args.prompt_len,
                                   args.gen_tokens, "fp16")
    for mode in args.modes:
        step = ledger.decode_step(args.batch, seq, mode)
        gen_us = ledger.generation_us(args.batch, args.prompt_len,
                                      args.gen_tokens, mode)
        result.add_row(mode, step.total_us, step.gemv_us,
                       step.attention_us, step.elementwise_us,
                       gen_us / 1e3, base_us / gen_us)
        if reports is not None:
            reports[mode] = step
    result.notes.append("speedups integrate the decode step over the "
                        "growing KV cache (trapezoidal)")
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.bench.e2e``."""
    print(run(argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
