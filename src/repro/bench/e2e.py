"""End-to-end decode latency ledger (Fig. 17).

Prices decode steps under the four full-stack serving modes of
:data:`repro.bench.serving.MODES`:

- ``fp16`` — FP16 weights and KV cache;
- ``qserve`` — AWQ-style INT4 weights + QoQ-style INT4 KV (the paper's
  qServe baseline);
- ``vq4`` — VQ-LLM with QuiP#-4 weights and CQ-4 KV (equivalent 4-bit);
- ``vq2`` — VQ-LLM with GPTVQ-2 weights and CQ-2 KV (equivalent 2-bit).

Each step is one :meth:`~repro.serve.costs.StepCostModel.
decode_breakdown` of the mode's serving cost model, so the ledger and
the serving simulator walk the same operators with the same kernels.
Generation latency integrates the decode step over the generated tokens
(the KV cache grows as it generates).  Element-wise operators (RMSNorm,
SiLU, RoPE) are bandwidth-bound passes plus launch overhead; they come
to 3.0% (FP16) / 6.7% (vq4) of a step at batch 16 and 1k context on an
RTX 4090, against the paper's ~10% / ~20%, a known gap.
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional, Sequence

from repro.bench.harness import ExperimentResult
from repro.bench.serving import MODES, make_cost_model
from repro.core.engine import ComputeEngine
from repro.gpu.spec import GPUSpec, get_spec
from repro.llm.config import LlamaConfig
from repro.serve.costs import DecodeStepBreakdown, StepCostModel


class E2ELedger:
    """Costs decode steps for one (GPU, model) pair.

    Every mode gets one cost model over the shared engine, whose
    memoized :meth:`~repro.core.engine.ComputeEngine.batch_latency_us`
    makes a repeated (batch, seq_len) step a handful of dict lookups.
    """

    def __init__(self, spec: GPUSpec, config: LlamaConfig,
                 engine: Optional[ComputeEngine] = None):
        self.spec = spec
        self.config = config
        self.engine = engine or ComputeEngine(spec)
        self._models: Dict[str, StepCostModel] = {}

    def decode_step(self, batch: int, seq_len: int,
                    mode: str) -> DecodeStepBreakdown:
        """Latency breakdown of one decode step, priced exactly."""
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected {MODES}")
        if mode not in self._models:
            self._models[mode] = make_cost_model(self.engine, self.config,
                                                 mode)
        return self._models[mode].decode_breakdown(batch, seq_len)

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
