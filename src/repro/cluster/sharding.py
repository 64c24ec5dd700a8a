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

The plan maps each operator of
:func:`repro.llm.model.decode_operator_shapes` to its per-shard shape —
priced through the same memoized kernel models as the single-GPU path —
plus the per-iteration collective cost from
:mod:`repro.cluster.interconnect`.

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

    def layer_collective_us(self, tokens: int) -> float:
        """Per-layer communication for ``tokens`` activation rows.

        Two all-reduces (post-attention, post-MLP) over the full hidden
        activations — row-parallel outputs are partial sums.
        """
        nbytes = tokens * self.config.hidden * _FP16
        return 2.0 * self.allreduce_us(nbytes)

    def decode_collective_us(self, batch: int) -> float:
        """All collectives of one decode iteration at ``batch`` tokens.

        Every layer pays :meth:`layer_collective_us`; the column-
        parallel LM head all-gathers the full logits once per step.
        """
        cfg = self.config
        per_layer = self.layer_collective_us(batch)
        logits = self.allgather_us(batch * cfg.vocab * _FP16)
        return cfg.n_layers * per_layer + logits

    def prefill_collective_us(self, new_tokens: int) -> float:
        """All collectives of prefilling a chunk of ``new_tokens``.

        The LM head does not run during prefill (matching
        :meth:`repro.serve.costs.StepCostModel.prefill_us`), so this is
        the per-layer term only — the prompt-completing iteration's
        logits all-gather is :meth:`sample_collective_us`.
        """
        return self.config.n_layers * self.layer_collective_us(new_tokens)

    def sample_collective_us(self, batch: int) -> float:
        """Logits all-gather for sampling ``batch`` first tokens.

        The column-parallel LM head of prompt-completing prefills needs
        the same full-vocab all-gather a decode step pays (matching
        :meth:`repro.serve.costs.StepCostModel.first_token_us`).
        """
        return self.allgather_us(batch * self.config.vocab * _FP16)
