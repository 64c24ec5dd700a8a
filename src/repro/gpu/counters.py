"""Performance counters.

Fig. 4 of the paper diagnoses the naive VQ kernels with five profiler
counters: SM utilization, shared-memory usage, shared-memory bank
conflicts, global→shared traffic and shared→register traffic.  Every
kernel model in this repository fills in a :class:`PerfCounters` record
with exactly those quantities (plus the compute-side work), and the cost
model in :mod:`repro.gpu.costmodel` converts the record into a latency.

Keeping the counters explicit means each optimization's claimed effect
("O3 removes duplicated global traffic", "O4 removes the shared-memory
round trip") is assertable in tests rather than buried in a latency
number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class PerfCounters:
    """Counters produced by one (modelled) kernel launch."""

    #: Bytes moved from DRAM through L2 into the chip (loads + stores).
    dram_bytes: float = 0.0
    #: Subset of :attr:`dram_bytes` that is codebook loads, for traffic
    #: attribution in the breakdown experiments.
    codebook_dram_bytes: float = 0.0
    #: Bytes staged from global memory into shared memory.
    global_to_shared_bytes: float = 0.0
    #: Bytes read from shared memory into registers.
    shared_to_reg_bytes: float = 0.0
    #: Bytes written from registers back to shared memory (layout
    #: round-trips; ideally zero for a well-fused kernel).
    reg_to_shared_bytes: float = 0.0
    #: Shared-memory transactions actually issued, including replays.
    shared_transactions: float = 0.0
    #: Excess transactions caused by bank conflicts (replays only).
    bank_conflict_transactions: float = 0.0
    #: Number of warp shuffle instructions executed.
    shuffle_ops: float = 0.0
    #: Warp-serial stall cycles from dependent scattered loads (global
    #: codebook lookups) summed over all lookups; the cost model divides
    #: by the latency-hiding capacity of the resident warps.
    stall_cycles: float = 0.0
    #: FP16 FLOPs of the mathematical computation (2*M*N*K for GEMM).
    flops: float = 0.0
    #: Scalar dequantization operations (codebook lookups + accumulate).
    dequant_ops: float = 0.0
    #: Index unpack/decode operations (bit extraction); expensive for
    #: misaligned widths such as AQLM's 12-bit format.
    unpack_ops: float = 0.0
    #: Bytes of partial results exchanged through global memory for a
    #: split-axis global reduction (zero when no split is used).
    reduction_bytes: float = 0.0
    #: Number of kernel launches the operation needs (reductions add one).
    kernel_launches: int = 1
    #: Shared memory requested per block, bytes.
    smem_per_block: int = 0
    #: Registers requested per thread.
    regs_per_thread: int = 0
    #: Threads per block of the launch.
    threads_per_block: int = 0
    #: Total thread blocks launched.
    grid_blocks: int = 0
    #: Achieved occupancy fraction, filled in by the cost model.
    occupancy: float = 0.0
    #: Fraction of SMs with at least one resident block (wave utilization).
    sm_utilization: float = 0.0
    #: Free-form notes from the kernel model (e.g. chosen parameters).
    notes: dict = field(default_factory=dict)

    def __add__(self, other: "PerfCounters") -> "PerfCounters":
        """Aggregate counters of two launches (for multi-kernel ops)."""
        if not isinstance(other, PerfCounters):
            return NotImplemented
        merged = PerfCounters()
        for f in fields(PerfCounters):
            if f.name == "notes":
                merged.notes = {**self.notes, **other.notes}
            elif f.name in ("smem_per_block", "regs_per_thread",
                            "threads_per_block"):
                setattr(merged, f.name,
                        max(getattr(self, f.name), getattr(other, f.name)))
            elif f.name in ("occupancy", "sm_utilization"):
                setattr(merged, f.name,
                        min_nonzero(getattr(self, f.name),
                                    getattr(other, f.name)))
            else:
                setattr(merged, f.name,
                        getattr(self, f.name) + getattr(other, f.name))
        return merged

    @property
    def shared_traffic_bytes(self) -> float:
        """Total bytes crossing the shared-memory port."""
        return (self.global_to_shared_bytes + self.shared_to_reg_bytes
                + self.reg_to_shared_bytes)

    def as_dict(self) -> dict:
        """Flat dictionary view (notes excluded) for harness tables."""
        out = {}
        for f in fields(PerfCounters):
            if f.name != "notes":
                out[f.name] = getattr(self, f.name)
        return out

    def relative_to(self, baseline: "PerfCounters") -> dict:
        """Counter ratios vs a baseline, as plotted in Fig. 4 (right).

        Ratios where the baseline counter is zero are reported as
        ``float('inf')`` when this counter is non-zero and ``1.0`` when
        both are zero, matching how profilers present such bars.
        """
        ratios = {}
        mine, theirs = self.as_dict(), baseline.as_dict()
        for key, value in mine.items():
            base = theirs[key]
            if base == 0:
                ratios[key] = 1.0 if value == 0 else float("inf")
            else:
                ratios[key] = value / base
        return ratios


def min_nonzero(a: float, b: float) -> float:
    """Minimum of two values ignoring zeros (unset occupancy fields)."""
    values = [v for v in (a, b) if v > 0]
    if not values:
        return 0.0
    return min(values)
