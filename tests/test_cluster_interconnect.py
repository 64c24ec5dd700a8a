"""Interconnect link and ring-collective model tests."""

import pytest

from repro.cluster.interconnect import (
    IDEAL_LINK,
    LinkSpec,
    NVLINK3,
    NVLINK4,
    PCIE4,
    ring_all_gather_us,
    ring_all_reduce_us,
)


class TestLinkSpec:
    def test_presets_are_consistent(self):
        assert NVLINK4.bandwidth_gbps > NVLINK3.bandwidth_gbps
        assert NVLINK3.bandwidth_gbps > PCIE4.bandwidth_gbps
        assert PCIE4.latency_us >= NVLINK3.latency_us

    def test_bytes_per_s(self):
        assert PCIE4.bytes_per_s == pytest.approx(25e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(name="bad", bandwidth_gbps=0.0, latency_us=1.0)
        with pytest.raises(ValueError):
            LinkSpec(name="bad", bandwidth_gbps=10.0, latency_us=-1.0)


class TestRingCollectives:
    def test_single_rank_is_free(self):
        assert ring_all_reduce_us(1e6, 1, NVLINK3) == 0.0
        assert ring_all_gather_us(1e6, 1, NVLINK3) == 0.0

    def test_empty_message_is_free(self):
        assert ring_all_reduce_us(0, 4, NVLINK3) == 0.0
        assert ring_all_gather_us(0, 4, NVLINK3) == 0.0

    def test_monotone_in_message_size(self):
        sizes = [1e3, 1e4, 1e5, 1e6, 1e7]
        for fn in (ring_all_reduce_us, ring_all_gather_us):
            costs = [fn(s, 4, NVLINK3) for s in sizes]
            assert costs == sorted(costs)
            assert costs[0] < costs[-1]

    def test_monotone_in_degree(self):
        """More ranks never makes a collective cheaper (ring model)."""
        for nbytes in (1e3, 1e6):
            for fn in (ring_all_reduce_us, ring_all_gather_us):
                costs = [fn(nbytes, p, NVLINK3) for p in (2, 4, 8, 16)]
                assert costs == sorted(costs)
                assert costs[0] < costs[-1]

    def test_all_gather_cheaper_than_all_reduce(self):
        """All-gather is the second half of the all-reduce ring."""
        for p in (2, 4, 8):
            ar = ring_all_reduce_us(1e6, p, NVLINK3)
            ag = ring_all_gather_us(1e6, p, NVLINK3)
            assert ag == pytest.approx(ar / 2)

    def test_bandwidth_asymptote(self):
        """Huge messages approach 2 (p-1)/p * n / bw (latency vanishes)."""
        n, p = 1e12, 4
        expected = 2 * (p - 1) / p * n / NVLINK3.bytes_per_s * 1e6
        assert ring_all_reduce_us(n, p, NVLINK3) == pytest.approx(
            expected, rel=1e-3)

    def test_latency_floor_for_small_messages(self):
        """Tiny messages cost ~2 (p-1) hop latencies."""
        p = 8
        floor = 2 * (p - 1) * PCIE4.latency_us
        cost = ring_all_reduce_us(16, p, PCIE4)
        assert cost == pytest.approx(floor, rel=1e-3)

    def test_nvlink_beats_pcie(self):
        assert (ring_all_reduce_us(1e6, 4, NVLINK3)
                < ring_all_reduce_us(1e6, 4, PCIE4))

    def test_ideal_link_is_nearly_free(self):
        assert ring_all_reduce_us(1e9, 8, IDEAL_LINK) < 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ring_all_reduce_us(-1.0, 2, NVLINK3)
        with pytest.raises(ValueError):
            ring_all_gather_us(1e3, 0, NVLINK3)
