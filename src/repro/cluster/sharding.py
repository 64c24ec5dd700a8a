"""Tensor-parallel sharding plan for the Llama operator set.

Megatron-style tensor parallelism splits each transformer layer across
``tp_degree`` GPUs so that exactly two all-reduces per layer suffice:

- the QKV and gate/up projections are **column-parallel** (the output
  dimension is sharded; every GPU holds full activations going in and a
  head/channel slice coming out);
- attention runs on each GPU over its own slice of heads, which also
  shards the KV cache by heads;
- the output and down projections are **row-parallel** (the input
  dimension is sharded; partial sums are combined by one ring
  all-reduce over the full hidden activations);
- the LM head is column-parallel over the vocabulary with one ring
  all-gather of the logits.

The plan maps each operator of the :mod:`repro.llm.model` operator
lists to its per-shard shape — priced through the same memoized kernel
models as the single-GPU path — and prices two collective terms from
:mod:`repro.cluster.interconnect`: every layer's all-reduces
(:meth:`~TensorParallelPlan.prefill_collective_us`) and the logits
all-gather (:meth:`~TensorParallelPlan.sample_collective_us`).  A
decode step pays both, a prefill chunk the first and a first-token
sample the second.

Two VQ-specific notes the cluster layer must get right:

- **KV bytes shard, codebooks do not.**  Sharding by heads divides the
  per-token KV footprint by ``tp_degree``, but CQ's per-channel-group
  codebooks are *replicated* on every shard (each GPU must decode its
  own slice, and group boundaries do not align with shard boundaries in
  general), so the codebook-cache pressure stays per-GPU, as
  :func:`repro.serve.scheduler.hbm_walk` charges it.
- FLOPs are exactly conserved: every sharded GEMM divides one free
  dimension by ``tp_degree`` and attention divides heads, so per-shard
  work times ``tp_degree`` equals the unsharded work (tested).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GemmShape
from repro.llm.config import LlamaConfig

from repro.cluster.interconnect import (
    LinkSpec,
    NVLINK4,
    ring_all_gather_us,
    ring_all_reduce_us,
)

#: Decode-ledger GEMV/GEMM operators whose *output* dimension shards.
COLUMN_PARALLEL = frozenset({"qkv_proj", "gate_up_proj", "lm_head"})

#: Operators whose *input* dimension shards (followed by an all-reduce).
ROW_PARALLEL = frozenset({"o_proj", "down_proj"})

#: FP16 activation bytes per element.
_FP16 = 2


@dataclass(frozen=True)
class TensorParallelPlan:
    """How one model shards across a tensor-parallel group.

    ``tp_degree == 1`` degenerates to the single-GPU plan: shapes pass
    through unchanged and every collective costs zero.
    """

    config: LlamaConfig
    tp_degree: int
    link: LinkSpec = NVLINK4

    def __post_init__(self):
        cfg, tp = self.config, self.tp_degree
        if tp < 1:
            raise ValueError("tp_degree must be >= 1")
        for dim, label in ((cfg.n_heads, "n_heads"),
                           (cfg.intermediate, "intermediate"),
                           (cfg.vocab, "vocab")):
            if dim % tp:
                raise ValueError(
                    f"tp_degree={tp} does not divide {cfg.name} "
                    f"{label}={dim}")

    # -- shape sharding ------------------------------------------------
    def shard_gemm(self, name: str, shape: GemmShape) -> GemmShape:
        """Per-shard shape of one named projection GEMM/GEMV."""
        tp = self.tp_degree
        if tp == 1:
            return shape
        if name in COLUMN_PARALLEL:
            return replace(shape, n=shape.n // tp)
        if name in ROW_PARALLEL:
            return replace(shape, k=shape.k // tp)
        raise ValueError(f"unknown projection {name!r}; expected one of "
                         f"{sorted(COLUMN_PARALLEL | ROW_PARALLEL)}")

    def shard_attention(self, shape: AttentionShape) -> AttentionShape:
        """Per-shard attention: each GPU owns ``heads / tp_degree``."""
        if self.tp_degree == 1:
            return shape
        return replace(shape, heads=shape.heads // self.tp_degree)

    # -- collective costs ----------------------------------------------
    def allreduce_us(self, nbytes: float) -> float:
        """One ring all-reduce across the TP group."""
        return ring_all_reduce_us(nbytes, self.tp_degree, self.link)

    def allgather_us(self, nbytes: float) -> float:
        """One ring all-gather across the TP group."""
        return ring_all_gather_us(nbytes, self.tp_degree, self.link)

    def prefill_collective_us(self, tokens: int) -> float:
        """Every layer's all-reduces over ``tokens`` activation rows.

        Two per layer (post-attention, post-MLP) over the full hidden
        activations — row-parallel outputs are partial sums.  A prefill
        chunk pays this term alone (the LM head does not run during
        prefill); a decode step pays it at its batch plus
        :meth:`sample_collective_us`.
        """
        nbytes = tokens * self.config.hidden * _FP16
        return self.config.n_layers * (2.0 * self.allreduce_us(nbytes))

    def sample_collective_us(self, batch: int) -> float:
        """The column-parallel LM head's logits all-gather for ``batch``
        rows: paid by a decode step and by the first-token sample of
        prompt-completing prefills alike."""
        return self.allgather_us(batch * self.config.vocab * _FP16)
