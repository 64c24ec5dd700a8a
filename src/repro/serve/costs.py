"""Iteration cost model for the serving simulator.

:class:`StepCostModel` prices one scheduler iteration
(:class:`~repro.serve.scheduler.BatchPlan`) in microseconds using the
same kernel models as the per-kernel experiments, from three operator
lists of :mod:`repro.llm.model`: a decode step at the batch size and
(bucketed) mean context length; one layer of each prefill chunk —
GEMMs over the chunk's tokens plus FP16 causal flash-prefill attention
(prefill *writes* the cache; VQ encoding of new tokens is the
< 1 us/token online step the paper measures as negligible) — times the
layer count; and the first-token sample of the sequences whose prompt
completes (the FP16 LM head and a sampler pass).  Element-wise
operators (norms, RoPE, activations) are bandwidth-bound passes plus
launch overheads.

One private walk prices every list in order through one per-operator
pricer, whose engine keywords for the weights and the KV cache are
fixed at construction.  Every model prices a tensor-parallel group
described by a :class:`~repro.cluster.sharding.TensorParallelPlan`
(one GPU by default): GEMM/GEMV and attention operators run at the
plan's per-shard shape, and the plan adds its two ring-collective
terms — every layer's all-reduces (decode steps, prefill chunks) and
the logits all-gather (decode steps, first-token samples).  A one-GPU
plan passes shapes through and both collectives cost exactly 0.0.
Element-wise operators stay unsharded: norms run replicated under
Megatron-style TP and the sharded passes they bracket are
bandwidth-bound either way, which errs conservative like the bucketing.

:meth:`StepCostModel.decode_breakdown` prices exactly the (batch,
context) it is given and splits the step into GEMV, attention,
element-wise and collective time; the serving simulator reaches it
through the bucketed :meth:`~StepCostModel.decode_step_us`, and the
Fig. 17 ledger (:class:`repro.bench.e2e.E2ELedger`) and the
TP-scaling table (:func:`repro.bench.cluster.tp_scaling`) call it
directly.
:meth:`~StepCostModel.prefill_us` and
:meth:`~StepCostModel.first_token_us` read the same walk, whose
per-kind sums they do not report yet.

Batch sizes (:data:`BATCH_BUCKETS`, doubling past its end) and context
lengths and prefill chunks (multiples of ``seq_bucket`` tokens, 512 by
default) are bucketed before keying the engine cache, so a simulation
of thousands of iterations evaluates only a few dozen distinct kernels
— everything else is a cache hit.  Bucketing rounds *up*, making the
model slightly conservative rather than optimistic.

On the simulator hot path even a cache *hit* used to be expensive:
one decode step re-built a dozen shape objects and walked the engine's
LRU per operator.  Each model instance therefore keeps precomputed
bucket tables — plain dicts keyed by the bucketed inputs, holding the
finished per-iteration totals for :meth:`~StepCostModel.decode_step_us`
(``(batch_bucket, seq_bucket)``), :meth:`~StepCostModel.prefill_us`
(chunk/total/context buckets) and :meth:`~StepCostModel.first_token_us`
(batch bucket).  The first evaluation of a bucket runs the walk; every
later iteration in the same bucket is a single dict lookup returning
the *identical* float, so the tables are invisible to the golden
bit-identity tests; the collective terms are memoized inside the
totals.

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
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.core.engine import ComputeEngine
from repro.gpu.costmodel import LAUNCH_OVERHEAD_S
from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GEMV_MAX_BATCH, GemmShape
from repro.llm.config import LlamaConfig
from repro.llm.model import (
    OperatorShape,
    decode_operator_shapes,
    first_token_operator_shapes,
    prefill_operator_shapes,
)
from repro.vq.quantizer import QuantizedTensor

from repro.serve.scheduler import BatchPlan

#: Batch-size buckets (rounded up; extended by doubling).
BATCH_BUCKETS = (1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 96, 128)

#: Kernel launches per layer of the element-wise operators (two norms,
#: RoPE on Q and K, SiLU, gate multiply, two residual adds).
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


@dataclass
class DecodeStepBreakdown:
    """Latency of one decode step, by operator class (microseconds).

    ``total_us`` is summed in walk order (each operator as
    :func:`~repro.llm.model.decode_operator_shapes` lists it, then the
    collective), so it is the exact float
    :meth:`StepCostModel.decode_step_us` serves; the class fields sum
    to it up to rounding.
    """

    gemv_us: float
    attention_us: float
    elementwise_us: float
    collective_us: float
    total_us: float

    @property
    def elementwise_share(self) -> float:
        return self.elementwise_us / self.total_us


class StepCostModel:
    """Prices scheduler iterations for one (GPU, model, mode, TP plan).

    Quantized operands are passed in directly (the bench layer maps
    serving-mode names to sample tensors, see
    :func:`repro.bench.serving.make_cost_model`):

    - ``weight_qt`` / ``weight_bits`` — fused-VQ or element-wise
      quantized weights (both ``None`` means FP16 weights);
    - ``kv_qt`` (a (K, V) pair) / ``kv_bits`` — the KV-cache scheme
      used by decode attention;
    - the LM head always stays FP16, as in the paper's E2E setup.

    ``plan`` shards every iteration across a tensor-parallel group
    (``None`` is one GPU); the engine's GPU spec describes one shard.
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
        seq_bucket: int = 512,
        plan=None,
    ):
        # repro.cluster imports repro.serve, so the plan comes in late.
        from repro.cluster.sharding import TensorParallelPlan

        if plan is None:
            plan = TensorParallelPlan(config, 1)
        elif plan.config is not config and plan.config != config:
            raise ValueError("plan was built for a different model config")
        if weight_qt is not None and weight_bits is not None:
            raise ValueError("weight_qt and weight_bits are exclusive")
        if kv_qt is not None and kv_bits is not None:
            raise ValueError("kv_qt and kv_bits are exclusive")
        if seq_bucket < 1:
            raise ValueError("seq_bucket must be >= 1")
        self.engine = engine
        self.config = config
        self.plan = plan
        self.seq_bucket = seq_bucket
        # Engine keywords of the weight and KV operands (none is FP16);
        # ``level`` only goes with a tensor, as the engine memo keys it.
        self._weight_kw: dict = {}
        if weight_qt is not None:
            self._weight_kw = {"qt": weight_qt, "level": level}
        elif weight_bits is not None:
            self._weight_kw = {"bits": weight_bits}
        self._kv_kw: dict = {}
        if kv_qt is not None:
            self._kv_kw = {"qt": kv_qt[0], "qt_v": kv_qt[1], "level": level}
        elif kv_bits is not None:
            self._kv_kw = {"bits": kv_bits}
        #: Precomputed bucket tables (see module docstring): finished
        #: per-iteration totals keyed by bucketed inputs, so the hot
        #: path is one dict hit instead of an operator walk.
        self._decode_table: dict = {}
        self._prefill_table: dict = {}
        self._first_token_table: dict = {}
        self._table_hits = 0

    # -- bucketing -----------------------------------------------------
    def _bucket_seq(self, tokens: float) -> int:
        # Ceil the fractional mean context *before* the ceil-div: the
        # module contract is that bucketing rounds up (conservative),
        # and truncating first would drop e.g. 256.4 into the 256
        # bucket instead of 512.
        b = self.seq_bucket
        t = math.ceil(max(1.0, tokens))
        return max(b, -(-t // b) * b)

    # -- the operator walk ---------------------------------------------
    def _op_us(self, op: OperatorShape) -> float:
        """One invocation of ``op`` on one GPU (of a TP group)."""
        kind = op.kind
        if kind == "elementwise":
            return self._elementwise_us(op.elements)
        if kind in ("gemv", "gemm"):
            shape = self.plan.shard_gemm(op.name,
                                         GemmShape(m=op.m, n=op.n, k=op.k))
            if shape.m > GEMV_MAX_BATCH:
                # Past the GEMV kernels' batch cap a decode projection
                # runs as the same family's GEMM.
                kind = "gemm"
            # The LM head stays FP16 in every serving mode.
            return self.engine.batch_latency_us(
                kind, shape, **({} if op.name == "lm_head"
                                else self._weight_kw))
        shape = self.plan.shard_attention(
            AttentionShape(batch=op.batch, heads=op.heads,
                           seq_len=op.seq_len, head_dim=op.head_dim))
        if kind == "attention":
            return self.engine.batch_latency_us("attention", shape,
                                                **self._kv_kw)
        # Causal prefill is FP16 flash attention, charged as the
        # increment of the cumulative curve over the chunk's span (0
        # below one token), so chunk charges telescope to the prompt's.
        cum_us = self.engine.batch_latency_us("prefill_attention", shape)
        if op.context >= 1:
            cum_us -= self.engine.batch_latency_us(
                "prefill_attention", replace(shape, seq_len=op.context))
        return max(0.0, cum_us)

    def _walk(self, ops: Sequence[OperatorShape]
              ) -> Tuple[float, Dict[str, float]]:
        """Price ``ops`` in order: the running total of ``us * count``
        and the same sum per operator kind."""
        total = 0.0
        by_kind: Dict[str, float] = {}
        for op in ops:
            us = self._op_us(op) * op.count
            by_kind[op.kind] = by_kind.get(op.kind, 0.0) + us
            total += us
        return total, by_kind

    def _elementwise_us(self, elements: int) -> float:
        """Bandwidth-bound read+write pass plus launch overheads."""
        bytes_moved = elements * 2 * 2
        bw = self.engine.spec.dram_bytes_per_s * 0.75
        extra = 1.3 if self._weight_kw else 1.0  # dequant epilogues & scales
        return (bytes_moved * extra / bw
                + ELEMENTWISE_LAUNCHES * LAUNCH_OVERHEAD_S) * 1e6

    # -- iteration pricing ---------------------------------------------
    def decode_breakdown(self, batch: int,
                         seq_len: int) -> DecodeStepBreakdown:
        """One decode step of ``batch`` sequences at context ``seq_len``,
        priced exactly as given (no bucketing, no table), by class."""
        total, by_kind = self._walk(
            decode_operator_shapes(self.config, batch, seq_len))
        # A decode step pays both collective terms: every layer's
        # all-reduces over its ``batch`` rows and the logits all-gather.
        collective_us = (self.plan.prefill_collective_us(batch)
                         + self.plan.sample_collective_us(batch))
        return DecodeStepBreakdown(by_kind["gemv"], by_kind["attention"],
                                   by_kind["elementwise"], collective_us,
                                   total + collective_us)

    def decode_step_us(self, batch: int, context_tokens: float) -> float:
        """One decode iteration: ``batch`` sequences, mean context."""
        if batch < 1:
            return 0.0
        b = bucket_up(batch, BATCH_BUCKETS)
        s = self._bucket_seq(context_tokens)
        cached = self._decode_table.get((b, s))
        if cached is not None:
            self._table_hits += 1
            return cached
        total = self.decode_breakdown(b, s).total_us
        self._decode_table[(b, s)] = total
        return total

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
        with the iteration that completes the prompt.  The walk prices
        one layer; the chunk is that times ``n_layers``, plus the
        layers' all-reduces.
        """
        if new_tokens < 1:
            return 0.0
        t = self._bucket_seq(new_tokens)
        # The attention term depends only on the bucketed ends of the
        # chunk's span, so the finished total is memoizable on the
        # bucket triple (0 stands for "no context": the cumulative
        # curve is 0.0 below one token, before any bucketing).
        total_tokens = context_tokens + new_tokens
        end = self._bucket_seq(total_tokens) if total_tokens >= 1 else 0
        start = (self._bucket_seq(context_tokens) if context_tokens >= 1
                 else 0)
        key = (t, end, start)
        cached = self._prefill_table.get(key)
        if cached is not None:
            self._table_hits += 1
            return cached
        layer_us, _ = self._walk(prefill_operator_shapes(
            self.config, t, context=start, seq_len=end))
        total = (layer_us * self.config.n_layers
                 + self.plan.prefill_collective_us(t))
        self._prefill_table[key] = total
        return total

    def first_token_us(self, n_completing: int) -> float:
        """Sampling cost of the prompt-completing sequences.

        :meth:`prefill_us` deliberately excludes the LM head — the
        first sampled token is costed with the iteration that completes
        the prompt.  This is that charge: one FP16 LM-head GEMV over
        the completing sequences' final hidden states plus an
        element-wise sampler pass (final norm + a read of the logits),
        and the logits all-gather.
        """
        if n_completing < 1:
            return 0.0
        b = bucket_up(n_completing, BATCH_BUCKETS)
        cached = self._first_token_table.get(b)
        if cached is not None:
            self._table_hits += 1
            return cached
        sample_us, _ = self._walk(
            first_token_operator_shapes(self.config, b))
        total = sample_us + self.plan.sample_collective_us(b)
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
