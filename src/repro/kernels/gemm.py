"""FP16 GEMM / GEMV kernels (cutlass-like baselines).

The GEMM model follows the classic double-buffered tiled dataflow: each
block computes a (BM, BN) output tile, staging (BM, BK) activation and
(BK, BN) weight tiles through shared memory.  The GEMV model is the
memory-bound split-K variant used for decode-phase projections.

Counters follow from the tiling arithmetic:

- every activation tile is re-read once per weight-column block and vice
  versa, so DRAM traffic is ``M*K*ceil(N/BN) + K*N*ceil(M/BM)`` elements;
- shared->register traffic is ``M*N*K * (1/BM + 1/BN)`` elements (each
  multiply reads one element of A and one of W from shared memory,
  amortized across the tile);
- FLOPs are ``2*M*N*K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gpu.counters import PerfCounters
from repro.gpu.spec import GPUSpec
from repro.kernels.base import FP16, FP32, KernelBase, TileConfig

#: Default cutlass-style GEMM tiling on Ada/Ampere.
GEMM_TILE = TileConfig(
    block_m=128, block_n=128, block_k=32,
    threads=256, regs_per_thread=128,
    smem_bytes=2 * (128 + 128) * 32 * FP16,  # double-buffered A and W tiles
)

#: GEMV tiling: one block per slice of output columns, split along K.
GEMV_TILE = TileConfig(
    block_m=16, block_n=128, block_k=512,
    threads=256, regs_per_thread=64,
    smem_bytes=8 * 1024,
)

#: Largest batch (``m``) the GEMV kernels accept.
GEMV_MAX_BATCH = 64


@dataclass(frozen=True)
class GemmShape:
    """C[M, N] = A[M, K] @ W[K, N]."""

    m: int
    n: int
    k: int

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k

    @property
    def output_bytes(self) -> float:
        return float(self.m * self.n * FP16)


def gemv_split_k(shape: GemmShape, spec: GPUSpec,
                 tile: TileConfig = GEMV_TILE) -> int:
    """Split-K factor that fills the GPU for a skinny GEMV."""
    n_blocks = math.ceil(shape.n / tile.block_n)
    target = 2 * spec.sm_count
    if n_blocks >= target:
        return 1
    max_split = max(1, shape.k // tile.block_k)
    return min(max_split, math.ceil(target / n_blocks))


#: cutlass's threadblock swizzling keeps sibling tiles' operands in L2,
#: cutting the DRAM side of the tile re-reads; the fused VQ kernels and
#: AWQ kernels do not implement swizzling (the paper notes integrating
#: with cutlass's tiling is future work), so only this baseline gets it.
CUTLASS_L2_REUSE = 0.35


class FP16GemmKernel(KernelBase):
    """Compute-bound tiled FP16 GEMM (cutlass-like, with L2 reuse)."""

    name = "fp16-gemm"

    def __init__(self, shape: GemmShape, a: Optional[np.ndarray] = None,
                 w: Optional[np.ndarray] = None,
                 tile: TileConfig = GEMM_TILE):
        self.shape = shape
        self.tile = tile
        self.a = a
        self.w = w

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s, t = self.shape, self.tile
        m_tiles = math.ceil(s.m / t.block_m)
        n_tiles = math.ceil(s.n / t.block_n)
        a_bytes = s.m * s.k * FP16 * max(1.0, n_tiles * CUTLASS_L2_REUSE)
        w_bytes = s.k * s.n * FP16 * max(1.0, m_tiles * CUTLASS_L2_REUSE)
        smem_reads = s.m * s.n * s.k * (1 / t.block_m + 1 / t.block_n) * FP16
        c = PerfCounters(
            dram_bytes=a_bytes + w_bytes + s.output_bytes,
            global_to_shared_bytes=a_bytes + w_bytes,
            shared_to_reg_bytes=smem_reads,
            shared_transactions=(a_bytes + w_bytes + smem_reads) / 128,
            flops=s.flops,
            smem_per_block=t.smem_bytes,
            regs_per_thread=t.regs_per_thread,
            threads_per_block=t.threads,
            grid_blocks=m_tiles * n_tiles,
        )
        return c

    def execute(self):
        if self.a is None or self.w is None:
            return None
        return self.a @ self.w


class FP16GemvKernel(KernelBase):
    """Memory-bound split-K FP16 GEMV (decode-phase projection)."""

    name = "fp16-gemv"

    def __init__(self, shape: GemmShape, a: Optional[np.ndarray] = None,
                 w: Optional[np.ndarray] = None,
                 tile: TileConfig = GEMV_TILE):
        if shape.m > GEMV_MAX_BATCH:
            raise ValueError("GEMV kernel expects a small batch dimension")
        self.shape = shape
        self.tile = tile
        self.a = a
        self.w = w

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s, t = self.shape, self.tile
        split_k = gemv_split_k(s, spec, t)
        n_blocks = math.ceil(s.n / t.block_n)
        grid = n_blocks * split_k
        w_bytes = s.k * s.n * FP16
        a_bytes = s.m * s.k * FP16 * n_blocks  # broadcast per column block
        reduction = (split_k * s.m * s.n * FP32 * 2) if split_k > 1 else 0.0
        c = PerfCounters(
            dram_bytes=w_bytes + a_bytes + s.output_bytes,
            global_to_shared_bytes=a_bytes,
            shared_to_reg_bytes=a_bytes,
            shared_transactions=2 * a_bytes / 128,
            reduction_bytes=reduction,
            kernel_launches=1 + (1 if split_k > 1 else 0),
            flops=s.flops,
            smem_per_block=t.smem_bytes,
            regs_per_thread=t.regs_per_thread,
            threads_per_block=t.threads,
            grid_blocks=grid,
            notes={"split_k": split_k},
        )
        return c

    def execute(self):
        if self.a is None or self.w is None:
            return None
        return self.a @ self.w
