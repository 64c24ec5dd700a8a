"""Fused VQ dequantization + computation kernels.

One parametric model covers the paper's whole design space: the naive
GC/SC baselines (Sec. III) and every VQ-LLM optimization level (Tbl. IV)
are the same kernel with different :class:`~repro.core.heuristics.PlanKnobs`:

==== =============================================================
GC   codebooks in global memory, naive dataflow, shared fusion
SC   all entries in shared memory, naive dataflow, shared fusion
O1   hierarchical cache (shared level only)
O2   hierarchical cache (+ register level)
O3   + codebook-centric dataflow
O4   + codebook-centric hierarchical fusion (register level)
==== =============================================================

Counter derivations (all per launch):

- quantized payload, activations and outputs move once per tile pass,
  exactly like the FP16 counterparts;
- codebook staging traffic = (block loads under the dataflow) x (bytes
  staged per block), where the naive dataflow makes every block of the
  grid stage every codebook its tile touches (Fig. 5) and the
  codebook-centric dataflow loads each codebook once per owning block
  (Fig. 11);
- global-resident entries (GC, and the cold tail of the hierarchical
  cache) cost one 32 B sector per L1 miss, with the hit rate from
  :func:`repro.gpu.memory.l1_hit_rate`;
- bank-conflict replays are measured on the tensor's real index stream
  with :class:`repro.gpu.banks.BankConflictModel`, once per tensor and
  cache split (:class:`CodebookStats`);
- shared fusion pays the layout round trip of Fig. 6 (registers ->
  shared -> registers) on the mismatched fraction of dequantized data;
  register fusion replaces it with ``n_shuffles`` warp shuffles per
  sub-vector and releases the staging buffer's shared memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.fusion import decide_fusion
from repro.core.heuristics import PlanKnobs
from repro.core.template import BASE_RESOURCES
from repro.core.hotness import HotnessProfile, profile_hotness
from repro.gpu.banks import BankConflictModel
from repro.gpu.counters import PerfCounters
from repro.gpu.memory import l1_hit_rate
from repro.gpu.spec import GPUSpec
from repro.kernels.attention import (BLOCK_TOKENS, AttentionShape,
                                     token_chunks)
from repro.kernels.base import FP16, FP32, KernelBase
from repro.kernels.gemm import (
    GEMM_TILE,
    GEMV_MAX_BATCH,
    GEMV_TILE,
    GemmShape,
    gemv_split_k,
)
from repro.llm.attention import attention_decode
from repro.vq.config import VQConfig
from repro.vq.packing import unpack_cost_ops
from repro.vq.quantizer import QuantizedTensor

#: DRAM sector fetched per L1 miss, bytes.
SECTOR_BYTES = 32
#: Exposed stall cycles per dependent codebook lookup that hits /
#: misses the L1 (scattered loads cannot be prefetched or coalesced).
L1_HIT_STALL = 40
L1_MISS_STALL = 300
#: Cap on sampled lookup indices for conflict statistics.
STREAM_SAMPLE = 131072


@dataclass
class _CodebookEffects:
    """Placement-dependent counter deltas of the codebook cache."""

    smem_bytes: int = 0
    regs_per_thread: int = 0
    global_to_shared: float = 0.0
    dram_codebook: float = 0.0
    shared_to_reg: float = 0.0
    conflict_transactions: float = 0.0
    #: Intra-warp shuffles serving register-resident (warp-distributed)
    #: entries.
    shuffle_ops: float = 0.0
    #: Warp-serial stall cycles from dependent global codebook lookups.
    stall_cycles: float = 0.0
    #: Uncoalesced L1 transactions of global codebook lookups (each lane
    #: touches its own sector; they share the L1/shared-memory port).
    l1_transactions: float = 0.0


def _sample_stream(qt: QuantizedTensor,
                   profile: Optional[HotnessProfile]) -> np.ndarray:
    """Sampled lookup-index stream, frequency-reordered when profiled."""
    idx = qt.lookup_indices().ravel()
    if idx.size > STREAM_SAMPLE:
        stride = idx.size // STREAM_SAMPLE
        idx = idx[::stride][:STREAM_SAMPLE]
    if profile is None:
        return idx
    inverse = np.empty(profile.n_entries, dtype=np.int64)
    inverse[profile.order] = np.arange(profile.n_entries)
    return inverse[idx]


class CodebookStats:
    """Codebook statistics of quantized tensors that no kernel shape moves.

    A tensor's hotness profile, and the bank-conflict degree of its
    sampled lookup stream under one cache split, depend on the tensor
    and the bank geometry only: every GEMM, GEMV and attention shape,
    and every candidate placement with the same split, reads the same
    value.  :class:`~repro.core.codegen.VQLLMCodeGenerator` owns one
    instance and hands it to each kernel it builds, so each statistic
    is computed once per generator; a kernel built on its own gets a
    private instance.

    Entries are keyed on the :class:`QuantizedTensor` object itself
    (identity-hashed), so the memo pins every tensor it describes for
    as long as it lives.  Sampled index streams are neither keys nor
    values: one is rebuilt on each miss instead of being held.
    """

    def __init__(self):
        self._profiles: Dict[QuantizedTensor, HotnessProfile] = {}
        self._degrees: Dict[tuple, float] = {}
        #: Conflict degrees computed so far, i.e. memo misses.
        self.degree_evaluations = 0

    def profile(self, qt: QuantizedTensor) -> HotnessProfile:
        """Hotness profile of ``qt``, computed on first use."""
        profile = self._profiles.get(qt)
        if profile is None:
            profile = self._profiles[qt] = profile_hotness(qt)
        return profile

    def conflict_degree(self, spec: GPUSpec, entry_bytes: int,
                        qt: QuantizedTensor, reordered: bool, n_reg: int,
                        n_shared: Optional[int]) -> float:
        """Mean transactions per warp of ``qt``'s codebook lookups.

        ``reordered`` numbers entries hottest-first, as the
        hierarchical cache does; ``n_reg`` and ``n_shared`` are the
        register- and shared-resident bounds of
        :meth:`~repro.gpu.banks.BankConflictModel.average_degree`.
        """
        key = (qt, reordered, spec.warp_size, spec.smem_banks,
               spec.smem_bank_bytes, entry_bytes, n_reg, n_shared)
        degree = self._degrees.get(key)
        if degree is None:
            stream = _sample_stream(qt,
                                    self.profile(qt) if reordered else None)
            degree = BankConflictModel(spec, entry_bytes).average_degree(
                stream, n_reg, n_shared)
            self._degrees[key] = degree
            self.degree_evaluations += 1
        return degree


def _codebook_effects(
    spec: GPUSpec,
    knobs: PlanKnobs,
    config: VQConfig,
    stats: CodebookStats,
    qt: QuantizedTensor,
    lookups: float,
    n_books_per_block: int,
    loading_blocks: float,
) -> _CodebookEffects:
    """Counter deltas for one quantized operand's codebook accesses."""
    entry_bytes = config.entry_bytes
    entry_words = max(1, math.ceil(entry_bytes / 4))
    full_book = config.codebook_bytes
    eff = _CodebookEffects()
    warp_accesses = lookups / spec.warp_size
    profile = stats.profile(qt)

    if knobs.placement == "global":
        working_set = n_books_per_block * full_book
        skew = min(0.9, profile.coverage(max(1, profile.n_entries // 8)))
        hit = l1_hit_rate(working_set, spec.l1_bytes, entry_bytes,
                          spec.cacheline_bytes, skew=skew)
        eff.dram_codebook = lookups * (1.0 - hit) * SECTOR_BYTES
        eff.stall_cycles = lookups * (hit * L1_HIT_STALL
                                      + (1.0 - hit) * L1_MISS_STALL)
        eff.l1_transactions = lookups
        return eff

    if knobs.placement == "shared_all":
        eff.smem_bytes = n_books_per_block * full_book
        eff.global_to_shared = loading_blocks * n_books_per_block * full_book
        eff.shared_to_reg = lookups * entry_bytes
        degree = stats.conflict_degree(spec, entry_bytes, qt, False, 0, None)
        eff.conflict_transactions = warp_accesses * max(0.0,
                                                        degree - entry_words)
        return eff

    # Hierarchical codebook cache (O1/O2+).  Register-resident entries
    # are warp-distributed: the warp's lanes each hold a slice and serve
    # lookups via shuffle, so per-thread register cost is entry_bytes/32
    # per entry and each register hit costs entry_words shuffles.
    b = knobs.boundaries
    n_reg, n_shared = b.n_reg, b.n_shared
    cov_reg = profile.coverage(n_reg)
    cov_cached = profile.coverage(n_shared)
    cold = 1.0 - cov_cached
    eff.smem_bytes = (n_shared - n_reg) * entry_bytes * n_books_per_block
    eff.regs_per_thread = math.ceil(
        n_reg * entry_bytes / (4 * spec.warp_size))
    staged = n_shared * entry_bytes
    eff.global_to_shared = loading_blocks * n_books_per_block * staged
    # The cold tail that stays in global memory is itself a small
    # working set, so the hardware L1 backs those lookups.
    tail_entries = max(0, config.lookup_entries - n_shared)
    tail_bytes = tail_entries * entry_bytes * n_books_per_block
    tail_hit = l1_hit_rate(tail_bytes, spec.l1_bytes, entry_bytes,
                           spec.cacheline_bytes, skew=0.3) if cold else 1.0
    cold_lookups = lookups * cold
    eff.dram_codebook = cold_lookups * (1.0 - tail_hit) * SECTOR_BYTES
    eff.stall_cycles = cold_lookups * (tail_hit * L1_HIT_STALL
                                       + (1.0 - tail_hit) * L1_MISS_STALL)
    eff.l1_transactions = cold_lookups
    eff.shared_to_reg = lookups * (cov_cached - cov_reg) * entry_bytes
    eff.shuffle_ops = lookups * cov_reg * entry_words
    degree = stats.conflict_degree(spec, entry_bytes, qt, True, n_reg,
                                   n_shared)
    eff.conflict_transactions = warp_accesses * max(0.0,
                                                    degree - entry_words)
    return eff


class _VQFusedBase(KernelBase):
    """Counter plumbing shared by the three fused-kernel families."""

    def __init__(self, knobs: PlanKnobs, stats: Optional[CodebookStats]):
        self.knobs = knobs
        self.stats = stats if stats is not None else CodebookStats()

    def _assemble(
        self,
        spec: GPUSpec,
        *,
        dram_payload: float,
        global_to_shared: float,
        shared_to_reg: float,
        shared_transactions: float,
        flops: float,
        dequant_ops: float,
        unpack_ops: float,
        reduction_bytes: float,
        kernel_launches: int,
        grid_blocks: int,
        threads: int,
        base_regs: int,
        base_smem: int,
        effects: list,
        fusion_roundtrip_bytes: float,
        shuffle_ops: float,
        notes: dict,
    ) -> PerfCounters:
        smem = base_smem + sum(e.smem_bytes for e in effects)
        regs = base_regs + max((e.regs_per_thread for e in effects),
                               default=0)
        regs = min(regs, spec.max_regs_per_thread)
        g2s_cb = sum(e.global_to_shared for e in effects)
        dram_cb = sum(e.dram_codebook for e in effects)
        s2r_cb = sum(e.shared_to_reg for e in effects)
        conflicts = sum(e.conflict_transactions for e in effects)
        shuffle_ops += sum(e.shuffle_ops for e in effects)
        stall_cycles = sum(e.stall_cycles for e in effects)
        l1_tx = sum(e.l1_transactions for e in effects)
        total_s2r = shared_to_reg + s2r_cb + fusion_roundtrip_bytes
        total_g2s = global_to_shared + g2s_cb
        return PerfCounters(
            dram_bytes=dram_payload + g2s_cb + dram_cb,
            codebook_dram_bytes=g2s_cb + dram_cb,
            global_to_shared_bytes=total_g2s,
            shared_to_reg_bytes=total_s2r,
            reg_to_shared_bytes=fusion_roundtrip_bytes,
            shared_transactions=(total_g2s + total_s2r
                                 + fusion_roundtrip_bytes) / 128
            + shared_transactions + l1_tx,
            bank_conflict_transactions=conflicts,
            shuffle_ops=shuffle_ops,
            stall_cycles=stall_cycles,
            flops=flops,
            dequant_ops=dequant_ops,
            unpack_ops=unpack_ops,
            reduction_bytes=reduction_bytes,
            kernel_launches=kernel_launches,
            smem_per_block=int(smem),
            regs_per_thread=int(regs),
            threads_per_block=threads,
            grid_blocks=int(grid_blocks),
            notes=notes,
        )


class VQGemmKernel(_VQFusedBase):
    """Fused VQ-dequant + GEMM (weight-quantized prefill projection).

    The weight is quantized as (N, K) with sub-vectors along K (the
    reduction axis), which is how AQLM/QuiP#/GPTVQ lay it out.
    """

    name = "vq-gemm"
    op_key = "gemm"

    def __init__(self, shape: GemmShape, qt: QuantizedTensor,
                 knobs: PlanKnobs,
                 stats: Optional[CodebookStats] = None,
                 a: Optional[np.ndarray] = None):
        super().__init__(knobs, stats)
        self.shape = shape
        self.qt = qt
        self.a = a

    def _tiles(self):
        t = GEMM_TILE if self.op_key == "gemm" else GEMV_TILE
        s = self.shape
        return t, math.ceil(s.m / t.block_m), math.ceil(s.n / t.block_n)

    def _books_per_block(self, block_n: int) -> int:
        """Distinct codebooks one block's weight slice touches (naive)."""
        cfg = self.qt.config
        if cfg.scope == "tensor":
            return 1 if cfg.lattice else cfg.residuals
        if cfg.scope == "tile":
            tile_r, tile_c = cfg.tile_shape
            return (math.ceil(block_n / tile_r)
                    * math.ceil(self.shape.k / tile_c) * cfg.residuals)
        raise ValueError(
            f"scope {cfg.scope!r} does not quantize weights")

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s, cfg = self.shape, self.qt.config
        tile, m_tiles, n_tiles = self._tiles()
        grid = m_tiles * n_tiles
        w_passes = m_tiles if self.op_key == "gemm" else 1

        codes_bytes = cfg.quantized_bytes(s.n * s.k) * w_passes
        a_bytes = float(s.m * s.k * FP16 * n_tiles)
        lookups = (s.n * s.k / cfg.vector_size) * cfg.residuals * w_passes
        dequant_ops = float(s.n * s.k) * cfg.residuals * w_passes
        unpack_ops = lookups * unpack_cost_ops(cfg.index_bits)
        flops = s.flops
        reduction = 0.0
        launches = 1
        loading_blocks = float(grid)
        n_books = self._books_per_block(tile.block_n)
        grid_blocks = grid
        notes = {"level": self.knobs.label, "books_per_block": n_books}

        split_k = 1
        if self.op_key == "gemv":
            split_k = gemv_split_k(s, spec, tile)
            grid_blocks = grid * split_k
            loading_blocks = float(grid_blocks)
            if split_k > 1:
                reduction += split_k * s.m * s.n * FP32 * 2
                launches += 1
            notes["split_k"] = split_k

        if self.knobs.dataflow:
            if cfg.scope == "tensor" and cfg.residuals > 1:
                # Residual-parallel dataflow: each block owns one
                # residual's codebook; the non-quantized operand and the
                # multiply work are duplicated per residual and partial
                # outputs reduce globally (the paper's "redundant
                # computation" cost for QuiP#/AQLM GeMM).
                apply_split = True
                if self.knobs.dataflow_adaptive:
                    # Adaptive guard: splitting residuals only pays when
                    # the kernel is memory-bound and codebook staging is
                    # a meaningful share of its traffic.
                    intensity = flops / max(1.0, codes_bytes + a_bytes)
                    balance = spec.peak_flops / spec.dram_bytes_per_s
                    naive_cb = (loading_blocks * n_books
                                * cfg.codebook_bytes)
                    apply_split = (intensity < balance
                                   and naive_cb > 0.1 * (codes_bytes
                                                         + a_bytes))
                if apply_split:
                    grid_blocks *= cfg.residuals
                    loading_blocks = float(grid_blocks)
                    n_books = 1
                    flops *= cfg.residuals
                    a_bytes *= cfg.residuals
                    reduction += cfg.residuals * s.m * s.n * FP32 * 2
                    launches += 1
                    notes["dataflow"] = "residual_split"
                else:
                    notes["dataflow"] = "skipped(adaptive)"
            elif cfg.scope == "tile":
                # Align block columns to codebook tiles, removing the
                # tile_rows / block_n duplication of Fig. 5.
                tile_r, _ = cfg.tile_shape
                dup = max(1, tile_r // tile.block_n)
                loading_blocks /= dup
                notes["dataflow"] = f"tile_aligned(dup={dup})"

        effects = [_codebook_effects(
            spec, self.knobs, cfg, self.stats, self.qt, lookups,
            n_books, loading_blocks)]

        mismatch = 1.0
        fusion = decide_fusion(cfg.vector_size, self.op_key, mismatch,
                               self.knobs.shuffle_threshold,
                               enable_register=self.knobs.register_fusion)
        base = BASE_RESOURCES[self.op_key]
        staging_bytes = min(2 * tile.block_n * tile.block_k * FP16,
                            base["smem"] // 2)
        base_smem = base["smem"]
        roundtrip = 0.0
        shuffles = 0.0
        if fusion.uses_register_fusion:
            base_smem -= staging_bytes
            shuffles = ((s.n * s.k / cfg.vector_size) * w_passes
                        * fusion.n_shuffles * mismatch)
        else:
            roundtrip = float(s.n * s.k) * w_passes * FP16 * mismatch
        notes["fusion"] = fusion.level
        notes["n_shuffles"] = fusion.n_shuffles

        smem_compute_reads = (s.m * s.n * s.k
                              * (1 / tile.block_m + 1 / tile.block_n) * FP16)
        return self._assemble(
            spec,
            dram_payload=codes_bytes + a_bytes + s.output_bytes + reduction * 0,
            global_to_shared=a_bytes + codes_bytes,
            shared_to_reg=smem_compute_reads,
            shared_transactions=smem_compute_reads / 128,
            flops=flops,
            dequant_ops=dequant_ops,
            unpack_ops=unpack_ops,
            reduction_bytes=reduction,
            kernel_launches=launches,
            grid_blocks=grid_blocks,
            threads=base["threads"],
            base_regs=base["regs"],
            base_smem=base_smem,
            effects=effects,
            fusion_roundtrip_bytes=roundtrip,
            shuffle_ops=shuffles,
            notes=notes,
        )

    def execute(self):
        if self.a is None:
            return None
        return self.a @ self.qt.dequantize().T


class VQGemvKernel(VQGemmKernel):
    """Fused VQ-dequant + GEMV (weight-quantized decode projection)."""

    name = "vq-gemv"
    op_key = "gemv"

    def __init__(self, shape: GemmShape, qt: QuantizedTensor,
                 knobs: PlanKnobs,
                 stats: Optional[CodebookStats] = None,
                 a: Optional[np.ndarray] = None):
        if shape.m > GEMV_MAX_BATCH:
            raise ValueError("GEMV kernel expects a small batch dimension")
        super().__init__(shape, qt, knobs, stats, a)


class VQAttentionKernel(_VQFusedBase):
    """Fused VQ-dequant + decode attention (CQ-quantized KV cache).

    Follows the FlashDecoding dataflow when naive, and Fig. 11's
    per-codebook partitioning when the codebook-centric dataflow is on.
    The K cache's dequantization layout matches its row-wise reduction
    (no round trip); the V cache's column-wise accumulation mismatches
    (Fig. 6), so fusion costs apply to the V half.
    """

    name = "vq-attention"
    op_key = "attention"

    def __init__(self, shape: AttentionShape,
                 qt_k: QuantizedTensor, qt_v: QuantizedTensor,
                 knobs: PlanKnobs,
                 stats: Optional[CodebookStats] = None,
                 q: Optional[np.ndarray] = None,
                 k_cache: Optional[np.ndarray] = None,
                 v_cache: Optional[np.ndarray] = None):
        super().__init__(knobs, stats)
        self.shape = shape
        self.qt_k = qt_k
        self.qt_v = qt_v
        self.q, self.k_cache, self.v_cache = q, k_cache, v_cache

    def counters(self, spec: GPUSpec) -> PerfCounters:
        s, cfg = self.shape, self.qt_k.config
        bh = s.batch * s.heads
        books_per_head = s.head_dim // cfg.vector_size
        n_kv_elements = 2.0 * s.batch * s.heads * s.seq_len * s.head_dim

        codes_bytes = 2 * cfg.quantized_bytes(
            s.batch * s.heads * s.seq_len * s.head_dim)
        lookups_each = (s.batch * s.heads * s.seq_len * s.head_dim
                        / cfg.vector_size) * cfg.residuals
        dequant_ops = n_kv_elements * cfg.residuals
        unpack_ops = 2 * lookups_each * unpack_cost_ops(cfg.index_bits)
        flops = s.flops
        q_bytes = float(bh * s.head_dim * FP16)
        reduction = 0.0
        launches = 1
        notes = {"level": self.knobs.label,
                 "books_per_block": books_per_head}

        if self.knobs.dataflow:
            # Fig. 11: one block per (batch, head, channel group); the
            # K-part's partial inner products reduce globally, then a
            # second phase applies softmax weights to the V partials.
            grid_blocks = bh * books_per_head
            loading_blocks = float(grid_blocks)  # one book each, K then V
            n_books = 1
            score_bytes = bh * s.seq_len * FP32
            reduction = 3.0 * score_bytes  # write partials, reduce, re-read
            launches = 2
            base_smem = 4 * BLOCK_TOKENS * cfg.vector_size * FP16 + 4096
            notes["dataflow"] = "per_codebook"
        else:
            chunks = token_chunks(s, spec)
            grid_blocks = bh * chunks
            if chunks > 1:
                reduction = grid_blocks * (s.head_dim + 2) * FP32 * 2
                launches = 2
            loading_blocks = float(grid_blocks)
            n_books = books_per_head
            base_smem = 2 * BLOCK_TOKENS * s.head_dim * FP16
            notes["token_chunks"] = chunks

        effects = [
            _codebook_effects(spec, self.knobs, cfg, self.stats, qt,
                              lookups_each, n_books, loading_blocks)
            for qt in (self.qt_k, self.qt_v)
        ]
        # The QK and PV phases run sequentially within a block, so the K
        # and V codebooks reuse one staging buffer: shared memory is the
        # max of the two demands, not the sum (traffic still counts both).
        smem_k, smem_v = effects[0].smem_bytes, effects[1].smem_bytes
        effects[0].smem_bytes = max(smem_k, smem_v)
        effects[1].smem_bytes = 0
        regs_k, regs_v = (effects[0].regs_per_thread,
                          effects[1].regs_per_thread)
        effects[0].regs_per_thread = max(regs_k, regs_v)
        effects[1].regs_per_thread = 0

        # K half: dequant layout matches the reduction (Fig. 6) — no
        # fusion cost.  V half: full mismatch.
        fusion = decide_fusion(cfg.vector_size, "attention_v", 1.0,
                               self.knobs.shuffle_threshold,
                               enable_register=self.knobs.register_fusion)
        v_elements = n_kv_elements / 2.0
        roundtrip = 0.0
        shuffles = 0.0
        if fusion.uses_register_fusion:
            staging = BLOCK_TOKENS * s.head_dim * FP16
            base_smem = max(base_smem - staging, 2048)
            shuffles = (v_elements / cfg.vector_size) * fusion.n_shuffles
        else:
            roundtrip = v_elements * FP16
        notes["fusion"] = fusion.level
        notes["n_shuffles"] = fusion.n_shuffles

        return self._assemble(
            spec,
            dram_payload=codes_bytes + q_bytes + s.output_bytes,
            global_to_shared=codes_bytes,
            shared_to_reg=codes_bytes,
            shared_transactions=codes_bytes / 128,
            flops=flops,
            dequant_ops=dequant_ops,
            unpack_ops=unpack_ops,
            reduction_bytes=reduction,
            kernel_launches=launches,
            grid_blocks=grid_blocks,
            threads=BASE_RESOURCES["attention"]["threads"],
            base_regs=BASE_RESOURCES["attention"]["regs"],
            base_smem=int(base_smem),
            effects=effects,
            fusion_roundtrip_bytes=roundtrip,
            shuffle_ops=shuffles,
            notes=notes,
        )

    def execute(self):
        if self.q is None or self.k_cache is None or self.v_cache is None:
            return None
        return attention_decode(self.q, self.k_cache, self.v_cache)
