"""Element-wise quantization kernels (AWQ / QoQ style).

These are the paper's strongest competitors (Fig. 16/17): weights or KV
compressed to INT4/INT8 with per-group scales, dequantized inline with a
single multiply-add per element — no codebooks, no layout mismatch, no
bank-conflict exposure.  Traffic is the quantized payload plus the scale
metadata; compute adds one cheap dequant op per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpu.counters import PerfCounters
from repro.gpu.spec import GPUSpec
from repro.kernels.attention import (
    ATTN_REGS,
    ATTN_THREADS,
    BLOCK_TOKENS,
    AttentionShape,
    token_chunks,
)
from repro.kernels.base import FP16, FP32, KernelBase
from repro.kernels.gemm import GEMM_TILE, GEMV_TILE, GemmShape, gemv_split_k
from repro.vq.elementwise import ElementwiseQuantized


#: Elements per FP16 scale and zero: AWQ weights, QoQ KV cache.
WEIGHT_GROUP_SIZE = 128
KV_GROUP_SIZE = 64


def quant_payload_bytes(n_elements: float, bits: int,
                        group_size: int) -> float:
    """Codes + FP16 scale and zero per group: what the kernels read and
    what an element-wise KV cache or weight occupies."""
    return n_elements * bits / 8.0 + (n_elements / group_size) * 2 * FP16


@dataclass
class ElementwiseGemmKernel(KernelBase):
    """AWQ-style W4A16 GEMM (prefill projections)."""

    shape: GemmShape
    bits: int = 4
    a: Optional[np.ndarray] = None
    quantized: Optional[ElementwiseQuantized] = None

    name = "awq-gemm"

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s, t = self.shape, GEMM_TILE
        m_tiles = math.ceil(s.m / t.block_m)
        n_tiles = math.ceil(s.n / t.block_n)
        a_bytes = s.m * s.k * FP16 * n_tiles
        w_bytes = quant_payload_bytes(s.k * s.n, self.bits,
                                      WEIGHT_GROUP_SIZE) * m_tiles
        smem_reads = s.m * s.n * s.k * (1 / t.block_m + 1 / t.block_n) * FP16
        return PerfCounters(
            dram_bytes=a_bytes + w_bytes + s.output_bytes,
            global_to_shared_bytes=a_bytes + w_bytes,
            shared_to_reg_bytes=smem_reads,
            shared_transactions=(a_bytes + w_bytes + smem_reads) / 128,
            flops=s.flops,
            dequant_ops=float(s.k * s.n) * m_tiles,
            unpack_ops=float(s.k * s.n) * m_tiles,
            smem_per_block=t.smem_bytes,
            regs_per_thread=t.regs_per_thread,
            threads_per_block=t.threads,
            grid_blocks=m_tiles * n_tiles,
        )

    def execute(self):
        if self.a is None or self.quantized is None:
            return None
        return self.a @ self.quantized.dequantize()


@dataclass
class ElementwiseGemvKernel(KernelBase):
    """AWQ-style W4A16 GEMV (decode projections)."""

    shape: GemmShape
    bits: int = 4
    a: Optional[np.ndarray] = None
    quantized: Optional[ElementwiseQuantized] = None

    name = "awq-gemv"

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s, t = self.shape, GEMV_TILE
        split_k = gemv_split_k(s, spec, t)
        n_blocks = math.ceil(s.n / t.block_n)
        w_bytes = quant_payload_bytes(s.k * s.n, self.bits,
                                      WEIGHT_GROUP_SIZE)
        a_bytes = s.m * s.k * FP16 * n_blocks
        reduction = (split_k * s.m * s.n * FP32 * 2) if split_k > 1 else 0.0
        return PerfCounters(
            dram_bytes=w_bytes + a_bytes + s.output_bytes,
            global_to_shared_bytes=a_bytes,
            shared_to_reg_bytes=a_bytes,
            shared_transactions=2 * a_bytes / 128,
            reduction_bytes=reduction,
            kernel_launches=1 + (1 if split_k > 1 else 0),
            flops=s.flops,
            dequant_ops=float(s.k * s.n),
            unpack_ops=float(s.k * s.n),
            smem_per_block=t.smem_bytes,
            regs_per_thread=t.regs_per_thread,
            threads_per_block=t.threads,
            grid_blocks=n_blocks * split_k,
        )

    def execute(self):
        if self.a is None or self.quantized is None:
            return None
        return self.a @ self.quantized.dequantize()


@dataclass
class ElementwiseAttentionKernel(KernelBase):
    """QoQ-style KV4 decode attention (token-split like FlashDecoding)."""

    shape: AttentionShape
    bits: int = 4
    q: Optional[np.ndarray] = None
    k_quant: Optional[ElementwiseQuantized] = None
    v_quant: Optional[ElementwiseQuantized] = None

    name = "qoq-attention"

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s = self.shape
        chunks = token_chunks(s, spec)
        grid = s.batch * s.heads * chunks
        n_kv = 2.0 * s.batch * s.heads * s.seq_len * s.head_dim
        kv_bytes = quant_payload_bytes(n_kv, self.bits, KV_GROUP_SIZE)
        q_bytes = grid * s.head_dim * FP16
        reduction = (grid * (s.head_dim + 2) * FP32 * 2) if chunks > 1 else 0.0
        smem = 2 * BLOCK_TOKENS * s.head_dim * FP16
        return PerfCounters(
            dram_bytes=kv_bytes + q_bytes + s.output_bytes,
            global_to_shared_bytes=kv_bytes,
            shared_to_reg_bytes=kv_bytes,
            shared_transactions=2 * kv_bytes / 128,
            reduction_bytes=reduction,
            kernel_launches=1 + (1 if chunks > 1 else 0),
            flops=s.flops,
            dequant_ops=n_kv,
            unpack_ops=n_kv,
            smem_per_block=smem,
            regs_per_thread=ATTN_REGS,
            threads_per_block=ATTN_THREADS,
            grid_blocks=grid,
            notes={"token_chunks": chunks},
        )

    def execute(self):
        if self.q is None or self.k_quant is None or self.v_quant is None:
            return None
        from repro.llm.attention import attention_decode
        b, h, t, c = (self.shape.batch, self.shape.heads,
                      self.shape.seq_len, self.shape.head_dim)
        k = self.k_quant.dequantize().reshape(b, h, t, c)
        v = self.v_quant.dequantize().reshape(b, h, t, c)
        return attention_decode(self.q, k, v)
