"""Resource-slack tests (Fig. 10 mechanics)."""

import pytest

from repro.core.slack import MIN_OCCUPANCY, ResourceSlack, find_slack
from repro.gpu.occupancy import occupancy
from repro.gpu.spec import RTX4090


class TestFindSlack:
    def test_slack_respects_floor(self):
        slack = find_slack(RTX4090, 256, 52, 8192)
        # Consuming the smem slack must keep blocks at/above the floor.
        occ = occupancy(RTX4090, 256, 52, 8192 + slack.smem_bytes)
        assert occ.blocks_per_sm >= slack.floor_blocks_per_sm

    def test_one_more_byte_drops_blocks(self):
        slack = find_slack(RTX4090, 256, 52, 8192)
        if slack.smem_bytes > 0:
            beyond = occupancy(RTX4090, 256, 52,
                               8192 + slack.smem_bytes + 256)
            at = occupancy(RTX4090, 256, 52, 8192 + slack.smem_bytes)
            assert beyond.blocks_per_sm <= at.blocks_per_sm

    def test_register_slack_respects_floor(self):
        slack = find_slack(RTX4090, 256, 52, 8192)
        occ = occupancy(RTX4090, 256,
                        min(52 + slack.regs_per_thread, 255), 8192)
        assert occ.blocks_per_sm >= slack.floor_blocks_per_sm

    def test_unlaunchable_kernel_has_no_slack(self):
        slack = find_slack(RTX4090, 256, 52,
                           RTX4090.smem_per_block_max + 4096)
        assert slack == ResourceSlack(0, 0, 0, 0)

    def test_floor_honours_min_occupancy(self):
        slack = find_slack(RTX4090, 256, 52, 8192)
        warps_per_block = 8
        floor_occ = (slack.floor_blocks_per_sm * warps_per_block
                     / RTX4090.max_warps_per_sm)
        base_occ = (slack.baseline_blocks_per_sm * warps_per_block
                    / RTX4090.max_warps_per_sm)
        assert floor_occ >= min(MIN_OCCUPANCY, base_occ) - 1e-9

    def test_low_occupancy_baseline_keeps_one_block(self):
        # A kernel already below the floor keeps its single block.
        slack = find_slack(RTX4090, 256, 52, 90 * 1024)
        assert slack.floor_blocks_per_sm >= 1

    def test_memory_bound_shape_has_substantial_smem_slack(self):
        # The GEMV shape of the paper: small base smem leaves a lot of
        # slack for the codebook cache.
        slack = find_slack(RTX4090, 256, 52, 8192)
        assert slack.smem_bytes >= 16 * 1024

    def test_stricter_floor_means_less_slack(self):
        loose = find_slack(RTX4090, 256, 52, 8192, min_occupancy=0.2)
        tight = find_slack(RTX4090, 256, 52, 8192, min_occupancy=0.8)
        assert tight.smem_bytes <= loose.smem_bytes

    @pytest.mark.parametrize("threads,floor", [(48, 6), (80, 4), (256, 2)])
    def test_floor_counts_a_partial_warp(self, threads, floor):
        # The occupancy rule rounds a partial warp up: 48 threads are
        # two warps and 80 are three.  The floor is the fewest resident
        # blocks that still hold MIN_OCCUPANCY of the SM's warps.
        slack = find_slack(RTX4090, threads, 40, 4096)
        assert slack.floor_blocks_per_sm == floor
        warps = -(-threads // RTX4090.warp_size)
        needed = MIN_OCCUPANCY * RTX4090.max_warps_per_sm
        assert floor * warps >= needed > (floor - 1) * warps
