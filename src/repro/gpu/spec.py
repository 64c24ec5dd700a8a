"""GPU chip specifications.

Numbers are taken from the vendor whitepapers the paper cites: the Ada
(RTX 4090) and Ampere (A40, A100) architecture documents.  Only parameters
that the analysis depends on are modelled; everything is exposed as a
plain frozen dataclass so experiments can derive hypothetical chips (for
example a bandwidth-scaled 4090) with :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GPUSpec:
    """Parameters of one GPU chip used by the occupancy and cost models.

    Attributes mirror the CUDA occupancy-calculator inputs plus the
    bandwidth/throughput figures needed for a roofline latency estimate.
    """

    name: str
    sm_count: int
    #: Maximum resident threads per SM.
    max_threads_per_sm: int
    #: Maximum resident thread blocks per SM.
    max_blocks_per_sm: int
    #: Register file size per SM, in 32-bit registers.
    regs_per_sm: int
    #: Maximum registers addressable by a single thread.
    max_regs_per_thread: int
    #: Register allocation granularity (registers are allocated to warps
    #: in chunks of this many registers per warp).
    reg_alloc_unit: int
    #: Shared memory available per SM, bytes (configurable carve-out).
    smem_per_sm: int
    #: Maximum shared memory a single block may request, bytes.
    smem_per_block_max: int
    #: Shared-memory allocation granularity, bytes.
    smem_alloc_unit: int
    #: Number of shared-memory banks (32 on every NVIDIA chip modelled).
    smem_banks: int
    #: Width of one bank access, bytes (4 on every NVIDIA chip modelled).
    smem_bank_bytes: int
    warp_size: int
    #: Peak FP16 throughput with FP32 accumulate, in TFLOP/s (tensor cores).
    peak_fp16_tflops: float
    #: Peak DRAM bandwidth, GB/s.
    dram_bandwidth_gbps: float
    #: L1/texture cache size per SM, bytes (shared memory carve-out aside).
    l1_bytes: int
    #: L1/L2 cache line and DRAM transaction granularity, bytes.
    cacheline_bytes: int
    #: Boost clock, GHz.
    clock_ghz: float
    #: Aggregate shared-memory bandwidth per SM, bytes per cycle
    #: (banks * bank width).
    smem_bytes_per_cycle: int = 128
    #: Latency of one shfl.sync, cycles.
    shuffle_latency_cycles: int = 25
    #: Latency of a shared-memory load, cycles.
    smem_latency_cycles: int = 29
    #: Latency of a global-memory load (L2 miss), cycles.
    global_latency_cycles: int = 470
    #: DRAM (HBM/GDDR) capacity, bytes (decimal GB, matching the
    #: bandwidth convention).  0 means unknown — callers that size
    #: KV budgets from the spec must check.
    dram_bytes: float = 0.0

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps per SM."""
        return self.max_threads_per_sm // self.warp_size

    @property
    def peak_flops(self) -> float:
        """Peak FP16 throughput in FLOP/s."""
        return self.peak_fp16_tflops * 1e12

    @property
    def dram_bytes_per_s(self) -> float:
        """Peak DRAM bandwidth in bytes/s."""
        return self.dram_bandwidth_gbps * 1e9

    @property
    def smem_bytes_per_s(self) -> float:
        """Aggregate shared-memory bandwidth across the chip, bytes/s."""
        return self.smem_bytes_per_cycle * self.sm_count * self.clock_ghz * 1e9

    @property
    def dram_gb(self) -> float:
        """DRAM capacity in decimal GB."""
        return self.dram_bytes / 1e9

    def with_bandwidth(self, gbps: float) -> "GPUSpec":
        """Return a copy of this spec with a different DRAM bandwidth."""
        return replace(self, dram_bandwidth_gbps=gbps)


#: NVIDIA RTX 4090 (Ada, AD102).  128 SMs, 1008 GB/s GDDR6X.
RTX4090 = GPUSpec(
    name="RTX 4090",
    sm_count=128,
    max_threads_per_sm=1536,
    max_blocks_per_sm=24,
    regs_per_sm=65536,
    max_regs_per_thread=255,
    reg_alloc_unit=256,
    smem_per_sm=102400,
    smem_per_block_max=101376,
    smem_alloc_unit=128,
    smem_banks=32,
    smem_bank_bytes=4,
    warp_size=32,
    peak_fp16_tflops=165.2,
    dram_bandwidth_gbps=1008.0,
    l1_bytes=128 * 1024,
    cacheline_bytes=128,
    clock_ghz=2.52,
    dram_bytes=24e9,
)

#: NVIDIA Tesla A40 (Ampere, GA102).  84 SMs, 696 GB/s — the paper notes
#: this is ~67% of the RTX 4090's bandwidth.
A40 = GPUSpec(
    name="Tesla A40",
    sm_count=84,
    max_threads_per_sm=1536,
    max_blocks_per_sm=16,
    regs_per_sm=65536,
    max_regs_per_thread=255,
    reg_alloc_unit=256,
    smem_per_sm=102400,
    smem_per_block_max=101376,
    smem_alloc_unit=128,
    smem_banks=32,
    smem_bank_bytes=4,
    warp_size=32,
    peak_fp16_tflops=74.8,
    dram_bandwidth_gbps=696.0,
    l1_bytes=128 * 1024,
    cacheline_bytes=128,
    clock_ghz=1.74,
    dram_bytes=48e9,
)

#: NVIDIA A100-SXM4-80GB (Ampere, GA100).  Included for sensitivity studies.
A100 = GPUSpec(
    name="A100-80GB",
    sm_count=108,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    regs_per_sm=65536,
    max_regs_per_thread=255,
    reg_alloc_unit=256,
    smem_per_sm=167936,
    smem_per_block_max=166912,
    smem_alloc_unit=128,
    smem_banks=32,
    smem_bank_bytes=4,
    warp_size=32,
    peak_fp16_tflops=312.0,
    dram_bandwidth_gbps=2039.0,
    l1_bytes=192 * 1024,
    cacheline_bytes=128,
    clock_ghz=1.41,
    dram_bytes=80e9,
)

#: All presets by canonical lowercase key.
PRESETS = {
    "rtx4090": RTX4090,
    "a40": A40,
    "a100": A100,
}


def get_spec(name: str) -> GPUSpec:
    """Look up a GPU preset by name (case-insensitive, spaces ignored)."""
    key = name.lower().replace(" ", "").replace("-", "").replace("_", "")
    for canonical, spec in PRESETS.items():
        if canonical.replace("-", "") == key:
            return spec
    raise KeyError(f"unknown GPU preset: {name!r}; known: {sorted(PRESETS)}")
