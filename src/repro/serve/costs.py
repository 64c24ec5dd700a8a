"""Iteration cost model for the serving simulator.

:class:`StepCostModel` prices one scheduler iteration
(:class:`~repro.serve.scheduler.BatchPlan`) in microseconds using the
same kernel models as the per-kernel experiments:

- decode tokens are costed as one decode step of
  :func:`repro.llm.model.decode_operator_shapes` at the batch size and
  (bucketed) mean context length, through the engine's memoized
  :meth:`~repro.core.engine.ComputeEngine.batch_latency_us`;
- prefill chunks are costed as GEMMs over the chunk's tokens plus FP16
  causal flash-prefill attention (prefill *writes* the cache; VQ
  encoding of new tokens is the < 1 us/token online step the paper
  measures as negligible);
- element-wise operators (norms, RoPE, activations) as bandwidth-bound
  passes, as in :mod:`repro.bench.e2e`.

Batch sizes and context lengths are bucketed (rounded up to a small
geometric grid) before keying the engine cache, so a simulation of
thousands of iterations evaluates only a few dozen distinct kernels —
everything else is a cache hit.  Bucketing rounds *up*, making the
model slightly conservative rather than optimistic.

On the simulator hot path even a cache *hit* used to be expensive:
one decode step re-built a dozen shape objects and walked the engine's
LRU per operator.  Each model instance therefore keeps precomputed
bucket tables — plain dicts keyed by the bucketed inputs, holding the
finished per-iteration totals for :meth:`~StepCostModel.decode_step_us`
(``(batch_bucket, seq_bucket)``), :meth:`~StepCostModel.prefill_us`
(chunk/total/context buckets) and :meth:`~StepCostModel.first_token_us`
(batch bucket).  The first evaluation of a bucket runs the full
operator walk; every later iteration in the same bucket is a single
dict lookup returning the *identical* float, so the tables are
invisible to the golden bit-identity tests.  Subclasses that reshape
operators (:class:`repro.cluster.costs.ShardedStepCostModel`) inherit
the tables per instance, with their collective terms memoized inside
the totals.

Prefix caching needs no special handling here: the scheduler credits
cached prompt tokens as already prefilled, so :meth:`~StepCostModel.
prefill_us` is only ever called for the uncached suffix — with
``context_tokens`` covering the cached prefix, which charges exactly
the suffix queries' attention over the full (cached + new) context and
no GEMM/attention work for the cached tokens themselves.  Cached
tokens still count toward decode context length, priced as usual by
:meth:`~StepCostModel.decode_step_us`.
"""

from __future__ import annotations

import bisect
import math
from typing import Optional, Sequence, Tuple

from repro.core.engine import ComputeEngine
from repro.gpu.costmodel import LAUNCH_OVERHEAD_S
from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GEMV_MAX_BATCH, GemmShape
from repro.llm.config import LlamaConfig
from repro.llm.model import decode_operator_shapes
from repro.vq.quantizer import QuantizedTensor

from repro.serve.scheduler import BatchPlan

#: Default batch-size buckets (rounded up; extended by doubling).
BATCH_BUCKETS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128)

#: Kernel launches per layer of the element-wise operators (as in
#: :mod:`repro.bench.e2e`).
ELEMENTWISE_LAUNCHES = 8


def bucket_up(value: int, buckets: Sequence[int]) -> int:
    """Round ``value`` up to the nearest bucket, doubling past the end."""
    if value <= 0:
        raise ValueError("value must be positive")
    i = bisect.bisect_left(buckets, value)
    if i < len(buckets):
        return buckets[i]
    b = buckets[-1]
    while b < value:
        b *= 2
    return b


class StepCostModel:
    """Prices scheduler iterations for one (GPU, model, mode) triple.

    Quantized operands are passed in directly (the bench layer maps
    serving-mode names to sample tensors, see
    :func:`repro.bench.serving.make_cost_model`):

    - ``weight_qt`` / ``weight_bits`` — fused-VQ or element-wise
      quantized weights (both ``None`` means FP16 weights);
    - ``kv_qt`` (a (K, V) pair) / ``kv_bits`` — the KV-cache scheme
      used by decode attention;
    - the LM head always stays FP16, as in the paper's E2E setup.
    """

    def __init__(
        self,
        engine: ComputeEngine,
        config: LlamaConfig,
        weight_qt: Optional[QuantizedTensor] = None,
        weight_bits: Optional[int] = None,
        kv_qt: Optional[Tuple[QuantizedTensor, QuantizedTensor]] = None,
        kv_bits: Optional[int] = None,
        level: str = "O4",
        seq_bucket: int = 256,
        batch_buckets: Sequence[int] = BATCH_BUCKETS,
    ):
        if weight_qt is not None and weight_bits is not None:
            raise ValueError("weight_qt and weight_bits are exclusive")
        if kv_qt is not None and kv_bits is not None:
            raise ValueError("kv_qt and kv_bits are exclusive")
        if seq_bucket < 1:
            raise ValueError("seq_bucket must be >= 1")
        self.engine = engine
        self.config = config
        self.weight_qt = weight_qt
        self.weight_bits = weight_bits
        self.kv_qt = kv_qt
        self.kv_bits = kv_bits
        self.level = level
        self.seq_bucket = seq_bucket
        self.batch_buckets = tuple(sorted(batch_buckets))
        #: Precomputed bucket tables (see module docstring): finished
        #: per-iteration totals keyed by bucketed inputs, so the hot
        #: path is one dict hit instead of an operator walk.
        self._decode_table: dict = {}
        self._prefill_table: dict = {}
        self._first_token_table: dict = {}
        self._table_hits = 0

    # -- bucketing -----------------------------------------------------
    def _bucket_batch(self, batch: int) -> int:
        return bucket_up(batch, self.batch_buckets)

    def _bucket_seq(self, tokens: float) -> int:
        # Ceil the fractional mean context *before* the ceil-div: the
        # module contract is that bucketing rounds up (conservative),
        # and truncating first would drop e.g. 256.4 into the 256
        # bucket instead of 512.
        b = self.seq_bucket
        t = math.ceil(max(1.0, tokens))
        return max(b, -(-t // b) * b)

    # -- operator pricing ----------------------------------------------
    def _gemv_us(self, shape: GemmShape, fp16: bool = False) -> float:
        if shape.m > GEMV_MAX_BATCH:
            # Past the GEMV kernels' batch cap a decode projection runs
            # as the same family's GEMM.
            return self._gemm_us(shape, fp16)
        if fp16 or (self.weight_qt is None and self.weight_bits is None):
            return self.engine.batch_latency_us("gemv", shape)
        if self.weight_bits is not None:
            return self.engine.batch_latency_us("gemv", shape,
                                                bits=self.weight_bits)
        return self.engine.batch_latency_us("gemv", shape,
                                            qt=self.weight_qt,
                                            level=self.level)

    def _gemm_us(self, shape: GemmShape, fp16: bool = False) -> float:
        if fp16 or (self.weight_qt is None and self.weight_bits is None):
            return self.engine.batch_latency_us("gemm", shape)
        if self.weight_bits is not None:
            return self.engine.batch_latency_us("gemm", shape,
                                                bits=self.weight_bits)
        return self.engine.batch_latency_us("gemm", shape,
                                            qt=self.weight_qt,
                                            level=self.level)

    def _attention_us(self, shape: AttentionShape) -> float:
        if self.kv_qt is not None:
            qt_k, qt_v = self.kv_qt
            return self.engine.batch_latency_us("attention", shape,
                                                qt=qt_k, qt_v=qt_v,
                                                level=self.level)
        if self.kv_bits is not None:
            return self.engine.batch_latency_us("attention", shape,
                                                bits=self.kv_bits)
        return self.engine.batch_latency_us("attention", shape)

    def _elementwise_us(self, elements: int) -> float:
        """Bandwidth-bound read+write pass plus launch overheads."""
        bytes_moved = elements * 2 * 2
        bw = self.engine.spec.dram_bytes_per_s * 0.75
        quantized = not (self.weight_qt is None and self.weight_bits is None)
        extra = 1.3 if quantized else 1.0
        return (bytes_moved * extra / bw
                + ELEMENTWISE_LAUNCHES * LAUNCH_OVERHEAD_S) * 1e6

    # -- sharding hooks (identity on one GPU) --------------------------
    # A tensor-parallel subclass (repro.cluster.costs) reshapes each
    # operator for one shard and adds collective time per iteration;
    # keeping the hooks here lets the pricing loops below stay the
    # single source of truth for *what* an iteration runs.
    def _shard_gemm(self, name: str, shape: GemmShape) -> GemmShape:
        return shape

    def _shard_attention(self, shape: AttentionShape) -> AttentionShape:
        return shape

    def _decode_collective_us(self, batch: int) -> float:
        return 0.0

    def _prefill_collective_us(self, tokens: int) -> float:
        return 0.0

    def _sample_collective_us(self, batch: int) -> float:
        return 0.0

    # -- iteration pricing ---------------------------------------------
    def decode_step_us(self, batch: int, context_tokens: float) -> float:
        """One decode iteration: ``batch`` sequences, mean context."""
        if batch < 1:
            return 0.0
        b = self._bucket_batch(batch)
        s = self._bucket_seq(context_tokens)
        cached = self._decode_table.get((b, s))
        if cached is not None:
            self._table_hits += 1
            return cached
        total = 0.0
        for op in decode_operator_shapes(self.config, b, s):
            if op.kind == "gemv":
                shape = self._shard_gemm(op.name,
                                         GemmShape(m=op.m, n=op.n, k=op.k))
                total += self._gemv_us(
                    shape, fp16=op.name == "lm_head") * op.count
            elif op.kind == "attention":
                shape = self._shard_attention(
                    AttentionShape(batch=op.batch, heads=op.heads,
                                   seq_len=op.seq_len,
                                   head_dim=op.head_dim))
                total += self._attention_us(shape) * op.count
            else:
                total += self._elementwise_us(op.elements) * op.count
        total += self._decode_collective_us(b)
        self._decode_table[(b, s)] = total
        return total

    def _prefill_attn_cum_us(self, tokens: float) -> float:
        """Cumulative causal-attention cost of prefilling ``tokens``.

        FP16 flash-prefill over the (bucketed) first ``tokens`` of the
        prompt; 0 for an empty prefix.  Chunk costs are differences of
        this cumulative curve, so they telescope: however a prompt is
        chunked, the attention charges sum to the whole-prompt cost.
        """
        if tokens < 1:
            return 0.0
        cfg = self.config
        shape = self._shard_attention(
            AttentionShape(batch=1, heads=cfg.n_heads,
                           seq_len=self._bucket_seq(tokens),
                           head_dim=cfg.head_dim))
        return self.engine.batch_latency_us("prefill_attention", shape)

    def prefill_us(self, new_tokens: int,
                   context_tokens: float = 0.0) -> float:
        """One prefill chunk of ``new_tokens`` prompt tokens.

        Projections and MLP run as GEMMs over the chunk; attention is
        charged *incrementally* — the cumulative causal cost through
        ``context + new`` tokens minus the part already billed to
        earlier chunks — so chunked and unchunked prefill of the same
        prompt cost the same (the chunk's queries are new, the cached
        keys were paid for when their own chunk ran).  The LM head is
        not applied during prefill — the first sampled token is costed
        with the iteration that completes the prompt.
        """
        if new_tokens < 1:
            return 0.0
        cfg = self.config
        t = self._bucket_seq(new_tokens)
        # The attention term depends only on the bucketed cumulative
        # token counts, so the finished total is memoizable on the
        # bucket triple (0 stands for "no context": the cumulative
        # curve is 0.0 below one token, before any bucketing).
        total_tokens = context_tokens + new_tokens
        key = (t,
               self._bucket_seq(total_tokens) if total_tokens >= 1 else 0,
               self._bucket_seq(context_tokens) if context_tokens >= 1
               else 0)
        cached = self._prefill_table.get(key)
        if cached is not None:
            self._table_hits += 1
            return cached
        h, inter = cfg.hidden, cfg.intermediate
        gemm_us = 0.0
        for name, n, k in (("qkv_proj", 3 * h, h),
                           ("o_proj", h, h),
                           ("gate_up_proj", 2 * inter, h),
                           ("down_proj", h, inter)):
            gemm_us += self._gemm_us(
                self._shard_gemm(name, GemmShape(m=t, n=n, k=k)))
        attn_us = (self._prefill_attn_cum_us(context_tokens + new_tokens)
                   - self._prefill_attn_cum_us(context_tokens))
        attn_us = max(0.0, attn_us)
        ew_us = self._elementwise_us(t * (4 * h + 2 * inter))
        total = ((gemm_us + attn_us + ew_us) * cfg.n_layers
                 + self._prefill_collective_us(t))
        self._prefill_table[key] = total
        return total

    def first_token_us(self, n_completing: int) -> float:
        """Sampling cost of the prompt-completing sequences.

        :meth:`prefill_us` deliberately excludes the LM head — the
        first sampled token is costed with the iteration that completes
        the prompt.  This is that charge: one FP16 LM-head GEMV over
        the completing sequences' final hidden states plus an
        element-wise sampler pass (final norm + a read of the logits).
        """
        if n_completing < 1:
            return 0.0
        cfg = self.config
        b = self._bucket_batch(n_completing)
        cached = self._first_token_table.get(b)
        if cached is not None:
            self._table_hits += 1
            return cached
        shape = self._shard_gemm("lm_head",
                                 GemmShape(m=b, n=cfg.vocab, k=cfg.hidden))
        total = (self._gemv_us(shape, fp16=True)
                 + self._elementwise_us(b * (cfg.hidden + cfg.vocab))
                 + self._sample_collective_us(b))
        self._first_token_table[b] = total
        return total

    def table_info(self) -> dict:
        """Occupancy and hit count of the bucket memo tables.

        These tables sit *in front of* the engine's latency memo: a hot
        serving loop mostly repeats a handful of bucketed (batch,
        context) shapes, so repeats resolve here and the engine memo
        only ever sees each distinct bucket combination once.
        """
        return {
            "hits": self._table_hits,
            "decode_entries": len(self._decode_table),
            "prefill_entries": len(self._prefill_table),
            "first_token_entries": len(self._first_token_table),
        }

    def repeat_room(self, plan: BatchPlan) -> int:
        """Further iterations of ``plan`` that :meth:`step_us` prices
        exactly as it prices this one (0 for a plan with prefill).

        A replayed decode-only iteration adds one token to every
        sequence, so the mean decode context grows by exactly 1: the
        context sums are integers, so ``ceil`` of the float mean does
        too.  The price repeats while the mean stays in its sequence
        bucket; the batch bucket is the plan's own.
        """
        if plan.prefill or not plan.decode:
            return 0
        mean = plan.mean_context()
        return self._bucket_seq(mean) - math.ceil(max(1.0, mean))

    def step_us(self, plan: BatchPlan) -> float:
        """Price one scheduler iteration (prefill chunks + decodes).

        Call *before* applying the plan
        (:meth:`~repro.serve.scheduler.ContinuousBatchScheduler.complete`
        mutates the per-sequence progress this pricing reads).
        """
        total = 0.0
        if plan.decode:
            total += self.decode_step_us(plan.decode_batch,
                                         plan.mean_context())
        for seq, chunk in plan.prefill:
            total += self.prefill_us(chunk, seq.prefilled)
        total += self.first_token_us(plan.prompt_completions)
        return total
