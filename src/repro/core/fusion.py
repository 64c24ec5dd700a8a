"""Codebook-centric hierarchical fusion (Sec. VI-B, Alg. 1, Fig. 12).

A thread dequantizes whole sub-vectors (``vector_size`` consecutive
elements), but the downstream compute instruction wants data in its own
layout — ``mma`` fragments hold 2 consecutive elements per thread, a
GeMV/attention reduction wants 1.  Shared-memory fusion resolves the
mismatch with a smem round trip; register fusion resolves it with
intra-warp ``shfl.xor`` exchanges, provided the exchange pattern is
confined to small *mini-warps* by remapping which thread dequantizes
which sub-vector (Alg. 1).

The number of shuffles equals ``vector_size / required_layout - 1``
(Tbl. V's #Shuffle row); profiling says one smem round trip costs about
as much as five shuffles, so fusion happens in registers iff the shuffle
count is at or below ``SHUFFLE_THRESHOLD = 5``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.gpu.shuffle import shfl_xor

#: Shared-memory round trip ~ 5x register shuffle cost (paper profiling).
SHUFFLE_THRESHOLD = 5

#: Elements per thread required by each computation's input layout.
REQUIRED_LAYOUT = {
    "gemm": 2,       # mma fragment: 2 consecutive fp16 per thread
    "gemv": 1,       # element-wise multiply-reduce
    "attention_k": 4,  # row-wise dot product consumes the dequantized row
    "attention_v": 1,  # column-wise weighted accumulation
}


def n_shuffles(vector_size: int, required_layout: int) -> int:
    """Shuffle instructions to convert dequant layout to compute layout.

    The exchange is an xor butterfly over a mini-warp of
    ``vector_size / required_layout`` threads, which takes mini-warp
    size - 1 selective shuffles (Fig. 12 shows 8/2 -> 4-thread mini-warps
    -> 3 shuffles).  A vector size at or below the required layout needs
    no exchange.
    """
    if vector_size <= 0 or required_layout <= 0:
        raise ValueError("sizes must be positive")
    if vector_size <= required_layout:
        return 0
    ratio = vector_size // required_layout
    if ratio * required_layout != vector_size:
        raise ValueError(
            f"vector_size {vector_size} must be a multiple of the "
            f"required layout {required_layout}"
        )
    if ratio & (ratio - 1):
        raise ValueError("layout ratio must be a power of two for xor exchange")
    return ratio - 1


@dataclass
class ThreadMapping:
    """Alg. 1's offline thread remapping.

    ``dequant_thread[w]`` is the thread assigned to dequantize the w-th
    sub-vector of the warp tile, chosen so all exchanges stay inside
    mini-warps of ``mini_warp_size`` threads.
    """

    dequant_thread: np.ndarray
    mini_warp_size: int
    mini_warps: List[List[int]]

    @property
    def n_shuffles(self) -> int:
        return self.mini_warp_size - 1 if self.mini_warp_size > 1 else 0


def thread_mapping(
    vector_size: int,
    required_layout: int,
    warp_size: int = 32,
    compute_tid: Optional[Callable[[int], int]] = None,
) -> ThreadMapping:
    """Compute the Alg. 1 thread mapping for one warp tile.

    The warp tile holds ``warp_size * vector_size`` elements; sub-vector
    ``w`` spans elements ``[w*vector_size, (w+1)*vector_size)``.  The
    computation consumes elements in chunks of ``required_layout``,
    with chunk ``ch`` owned by compute thread ``compute_tid(ch)``
    (default: ``ch % warp_size``, the round-robin fragment layout).

    Following Alg. 1: group dequant threads whose data feeds the same
    set of compute threads into mini-warps (lines 4-9), then remap
    member ``i`` of each mini-warp to dequantize the sub-vector owned by
    that mini-warp's ``i``-th compute-thread set (lines 10-11), which
    confines all exchanges to xor offsets within the mini-warp.
    """
    ratio = max(1, vector_size // max(required_layout, 1))
    if compute_tid is None:
        def compute_tid(ch: int) -> int:
            return ch % warp_size

    chunks_per_subvector = max(1, vector_size // required_layout)
    # Lines 2-6: which compute threads consume each sub-vector's data.
    consumer_sets = []
    for w in range(warp_size):
        first_chunk = w * chunks_per_subvector
        consumers = tuple(sorted({
            compute_tid(first_chunk + j) for j in range(chunks_per_subvector)
        }))
        consumer_sets.append(consumers)

    # Lines 7-9: group sub-vectors with identical consumer sets.
    mini_warp_of: dict = {}
    for w, consumers in enumerate(consumer_sets):
        mini_warp_of.setdefault(consumers, []).append(w)
    mini_warps = list(mini_warp_of.values())

    # Lines 10-11: the i-th member of each mini-warp dequantizes the
    # mini-warp's i-th sub-vector; members are the consumer threads
    # themselves so exchanges stay within the group.
    mapping = np.arange(warp_size)
    for consumers, members in mini_warp_of.items():
        # Threads available to this mini-warp: its consumer threads,
        # padded with the original holders if the group is larger.
        pool = list(consumers)
        for m in members:
            if m not in pool:
                pool.append(m)
        for i, w in enumerate(members):
            mapping[w] = pool[i % len(pool)]

    size = max(len(m) for m in mini_warps) if mini_warps else 1
    size = min(size, ratio) if ratio > 1 else 1
    return ThreadMapping(
        dequant_thread=mapping,
        mini_warp_size=ratio,
        mini_warps=mini_warps,
    )


def exchange_to_compute_layout(
    dequantized: np.ndarray, required_layout: int
) -> np.ndarray:
    """Functionally rearrange a warp's dequantized registers.

    Parameters
    ----------
    dequantized:
        Array (warp_size, vector_size): each lane's dequantized
        sub-vector, already produced under the Alg. 1 thread mapping so
        exchanges are confined to mini-warps of ``vector_size /
        required_layout`` lanes at xor offsets ``1..size-1``.
    required_layout:
        Elements per register chunk the computation expects.

    Returns
    -------
    numpy.ndarray
        Array (warp_size, vector_size) where lane ``l``'s row holds, in
        order, the chunks that compute thread ``l`` consumes — i.e. the
        transpose of the mini-warp's (lane, chunk) matrix, realised only
        with xor shuffles (verified against :func:`repro.gpu.shuffle.shfl_xor`).
    """
    warp_size, vector_size = dequantized.shape
    ratio = vector_size // required_layout
    if ratio <= 1:
        return dequantized.copy()
    if ratio & (ratio - 1):
        raise ValueError("layout ratio must be a power of two")

    chunks = dequantized.reshape(warp_size, ratio, required_layout)
    out = chunks.copy()
    # Selective butterfly: at offset ``off`` every lane exchanges chunk
    # slot ``(local_lane ^ off) % ratio`` with its partner, exactly the
    # reg[tid^off] = shfl(reg[tid^off], off) loop of Alg. 1.
    local = np.arange(warp_size) % ratio
    for off in range(1, ratio):
        slots = (local ^ off) % ratio
        lane_sel = np.arange(warp_size)
        contributed = out[lane_sel, slots]
        # shfl_xor within mini-warps: emulate per mini-warp group.
        received = contributed.copy()
        for base in range(0, warp_size, ratio):
            seg = slice(base, base + ratio)
            received[seg] = shfl_xor(contributed[seg], off, width=ratio)
        out[lane_sel, slots] = received
    return out.reshape(warp_size, vector_size)


@dataclass(frozen=True)
class FusionDecision:
    """Where fusion happens for one tensor, and its modelled costs."""

    #: ``register`` or ``shared``.
    level: str
    n_shuffles: int
    #: Fraction of dequantized data whose layout mismatches the compute
    #: layout (the K cache matches, the V cache does not — Fig. 6).
    mismatch_fraction: float

    @property
    def uses_register_fusion(self) -> bool:
        return self.level == "register"


def decide_fusion(
    vector_size: int,
    operation: str,
    mismatch_fraction: float = 1.0,
    threshold: int = SHUFFLE_THRESHOLD,
    enable_register: bool = True,
) -> FusionDecision:
    """Pick the fusion level for one operation (Alg. 2 lines 6-8).

    Register fusion is used when the required shuffle count is at or
    below the profiled threshold (5) and the caller has not disabled it
    (ablation levels O1-O3 use shared fusion).
    """
    required = REQUIRED_LAYOUT[operation]
    shuffles = n_shuffles(vector_size, required)
    if enable_register and shuffles <= threshold:
        return FusionDecision("register", shuffles, mismatch_fraction)
    return FusionDecision("shared", shuffles, mismatch_fraction)
