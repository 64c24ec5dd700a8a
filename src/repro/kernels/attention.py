"""FP16 attention kernels: FlashAttention / FlashDecoding and paged variants.

Decode attention is a memory-bound scan of the KV cache.  FlashDecoding
additionally splits the token axis across thread blocks so small batches
still fill the GPU, at the cost of a global partial-softmax reduction —
which is why it beats FlashAttention at batch 1 and why the paper uses it
as the strongest FP16 baseline (Fig. 18).

Paged variants add page-table indirection: one table read per page and a
small coalescing penalty on the KV stream, modelling vLLM-style paged KV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpu.counters import PerfCounters
from repro.gpu.spec import GPUSpec
from repro.kernels.base import FP16, FP32, KernelBase
from repro.llm.attention import attention_decode, attention_prefill

#: Tokens per KV tile staged in shared memory.
BLOCK_TOKENS = 64
#: Threads per attention block.
ATTN_THREADS = 256
#: Registers per thread (accumulators + softmax state).
ATTN_REGS = 64
#: Paged-KV page size in tokens and per-page table entry bytes.
PAGE_TOKENS = 16
PAGE_ENTRY_BYTES = 8
#: Coalescing penalty of scattered pages on the KV stream.
PAGE_TRAFFIC_FACTOR = 1.05


@dataclass(frozen=True)
class AttentionShape:
    """Decode attention: (B, H, C) queries against a (B, H, T, C) cache."""

    batch: int
    heads: int
    seq_len: int
    head_dim: int

    @property
    def kv_bytes(self) -> float:
        """FP16 bytes of the K and V caches together."""
        return 2.0 * self.batch * self.heads * self.seq_len \
            * self.head_dim * FP16

    @property
    def flops(self) -> float:
        """QK dot products + PV accumulation."""
        return 4.0 * self.batch * self.heads * self.seq_len * self.head_dim

    @property
    def output_bytes(self) -> float:
        return float(self.batch * self.heads * self.head_dim * FP16)


class _DecodeAttentionBase(KernelBase):
    """Shared counter arithmetic of the FP16 decode-attention family."""

    #: Whether the token axis is split across blocks (FlashDecoding).
    split_tokens = True
    #: Whether the KV cache is paged.
    paged = False

    def __init__(self, shape: AttentionShape,
                 q: Optional[np.ndarray] = None,
                 k: Optional[np.ndarray] = None,
                 v: Optional[np.ndarray] = None):
        self.shape = shape
        self.q, self.k, self.v = q, k, v

    def _chunks(self, spec: GPUSpec) -> int:
        s = self.shape
        if not self.split_tokens:
            return 1
        max_chunks = max(1, s.seq_len // BLOCK_TOKENS)
        bh = s.batch * s.heads
        target = 2 * spec.sm_count
        if bh >= target:
            return 1
        return min(max_chunks, math.ceil(target / bh))

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s = self.shape
        chunks = self._chunks(spec)
        grid = s.batch * s.heads * chunks
        kv_bytes = s.kv_bytes
        table_bytes = 0.0
        if self.paged:
            kv_bytes *= PAGE_TRAFFIC_FACTOR
            table_bytes = (s.batch * s.heads * chunks
                           * math.ceil(s.seq_len / PAGE_TOKENS)
                           * PAGE_ENTRY_BYTES / max(chunks, 1))
        q_bytes = grid * s.head_dim * FP16
        reduction = (grid * (s.head_dim + 2) * FP32 * 2) if chunks > 1 else 0.0
        smem = 2 * BLOCK_TOKENS * s.head_dim * FP16  # K tile + V tile
        c = PerfCounters(
            dram_bytes=kv_bytes + q_bytes + table_bytes + s.output_bytes,
            global_to_shared_bytes=kv_bytes,
            shared_to_reg_bytes=kv_bytes,
            shared_transactions=2 * kv_bytes / 128,
            reduction_bytes=reduction,
            kernel_launches=1 + (1 if chunks > 1 else 0),
            flops=s.flops,
            smem_per_block=smem,
            regs_per_thread=ATTN_REGS,
            threads_per_block=ATTN_THREADS,
            grid_blocks=grid,
            notes={"token_chunks": chunks, "paged": self.paged},
        )
        return c

    def execute(self):
        if self.q is None or self.k is None or self.v is None:
            return None
        return attention_decode(self.q, self.k, self.v)


class FlashDecodingKernel(_DecodeAttentionBase):
    """FlashDecoding: token-split decode attention (the paper's baseline)."""

    name = "flash-decoding"
    split_tokens = True
    paged = False


class FlashAttentionKernel(_DecodeAttentionBase):
    """FlashAttention run in decode mode: one block per (batch, head)."""

    name = "flash-attention"
    split_tokens = False
    paged = False


class PagedFlashDecodingKernel(_DecodeAttentionBase):
    """FlashDecoding over a vLLM-style paged KV cache."""

    name = "paged-flash-decoding"
    split_tokens = True
    paged = True


class PagedFlashAttentionKernel(_DecodeAttentionBase):
    """FlashAttention (no token split) over a paged KV cache."""

    name = "paged-flash-attention"
    split_tokens = False
    paged = True


class FlashPrefillKernel(KernelBase):
    """FP16 causal prefill attention (serving prices prefill chunks
    with it, see :meth:`repro.serve.costs.StepCostModel.prefill_us`)."""

    name = "flash-prefill"

    def __init__(self, shape: AttentionShape,
                 q: Optional[np.ndarray] = None,
                 k: Optional[np.ndarray] = None,
                 v: Optional[np.ndarray] = None):
        self.shape = shape
        self.q, self.k, self.v = q, k, v

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s = self.shape
        t = s.seq_len
        q_tiles = math.ceil(t / 64)
        grid = s.batch * s.heads * q_tiles
        qkv_bytes = 3 * s.batch * s.heads * t * s.head_dim * FP16
        kv_reread = s.batch * s.heads * t * s.head_dim * FP16 * (q_tiles - 1)
        flops = 2.0 * s.batch * s.heads * t * t * s.head_dim * 2 / 2
        smem = (64 + 2 * BLOCK_TOKENS) * s.head_dim * FP16
        return PerfCounters(
            dram_bytes=qkv_bytes + kv_reread
            + s.batch * s.heads * t * s.head_dim * FP16,
            global_to_shared_bytes=qkv_bytes + kv_reread,
            shared_to_reg_bytes=qkv_bytes + kv_reread,
            shared_transactions=2 * (qkv_bytes + kv_reread) / 128,
            flops=flops,
            smem_per_block=smem,
            regs_per_thread=128,
            threads_per_block=ATTN_THREADS,
            grid_blocks=grid,
        )

    def execute(self):
        if self.q is None or self.k is None or self.v is None:
            return None
        return attention_prefill(self.q, self.k, self.v, causal=True)
