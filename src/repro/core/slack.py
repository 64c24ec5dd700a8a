"""Resource-slack detection (Fig. 10).

GPU occupancy is a step function of per-block resource demand, because
resources are partitioned in fixed allocation units across a discrete
number of resident blocks.  Between steps there is *slack*: extra
registers and shared memory a kernel can claim for free.  The codebook
cache sizes its register- and shared-resident entry counts by dividing
that slack by the entry size (Sec. V-B, "Adaptivity").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.occupancy import occupancy
from repro.gpu.spec import GPUSpec


#: Occupancy below which memory-bound LLM kernels stop hiding latency.
#: The slack search will not let resident blocks fall below this
#: occupancy fraction (or below the baseline occupancy, whichever is
#: lower).  This is the plateau structure of Fig. 10: a kernel sitting
#: above the knee can donate resources down to the knee "for free".
MIN_OCCUPANCY = 0.25


@dataclass(frozen=True)
class ResourceSlack:
    """Free resources available without hurting effective concurrency."""

    #: Extra registers per thread usable for free.
    regs_per_thread: int
    #: Extra shared memory per block usable for free, bytes.
    smem_bytes: int
    #: Resident blocks per SM of the baseline configuration.
    baseline_blocks_per_sm: int
    #: Resident blocks per SM the slack search is allowed to fall to.
    floor_blocks_per_sm: int = 0


def find_slack(
    spec: GPUSpec,
    threads_per_block: int,
    regs_per_thread: int,
    smem_per_block: int,
    min_occupancy: float = MIN_OCCUPANCY,
) -> ResourceSlack:
    """Compute register and shared-memory slack for a kernel shape.

    Slack for each resource is measured with the other held at its
    baseline demand, which is how the cache consumes it (registers for
    hot entries, shared memory for medium entries are sized separately,
    then re-validated jointly by the heuristics).

    The search tolerates occupancy dropping to ``min_occupancy`` (but
    never below one resident block, and never below the baseline if the
    baseline is already under the floor) — memory-bound kernels on the
    flat part of the bandwidth-vs-occupancy curve do not pay for that
    drop, which is exactly the "slack" of Fig. 10.
    """
    base = occupancy(spec, threads_per_block, regs_per_thread, smem_per_block)
    if base.blocks_per_sm == 0:
        # Kernel cannot launch as configured; no slack to speak of.
        return ResourceSlack(0, 0, 0, 0)

    # Rounded up, as the occupancy rule counts a partial warp.
    warps_per_block = base.warps_per_sm // base.blocks_per_sm
    target = min(min_occupancy, base.occupancy)
    floor_blocks = 1
    for blocks in range(base.blocks_per_sm, 0, -1):
        occ = blocks * warps_per_block / spec.max_warps_per_sm
        if occ >= target:
            floor_blocks = blocks
        else:
            break

    reg_slack = _binary_search_slack(
        lambda extra: occupancy(
            spec, threads_per_block,
            min(regs_per_thread + extra, spec.max_regs_per_thread),
            smem_per_block).blocks_per_sm >= floor_blocks,
        upper=spec.max_regs_per_thread - regs_per_thread,
    )
    smem_slack = _binary_search_slack(
        lambda extra: occupancy(
            spec, threads_per_block, regs_per_thread,
            smem_per_block + extra).blocks_per_sm >= floor_blocks
        if smem_per_block + extra <= spec.smem_per_block_max else False,
        upper=spec.smem_per_block_max - smem_per_block,
    )
    return ResourceSlack(
        regs_per_thread=reg_slack,
        smem_bytes=smem_slack,
        baseline_blocks_per_sm=base.blocks_per_sm,
        floor_blocks_per_sm=floor_blocks,
    )


def _binary_search_slack(fits, upper: int) -> int:
    """Largest extra demand in [0, upper] for which ``fits`` holds.

    Occupancy is monotonically non-increasing in resource demand, so
    binary search applies.
    """
    if upper <= 0 or not fits(0):
        return 0
    lo, hi = 0, upper
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo
