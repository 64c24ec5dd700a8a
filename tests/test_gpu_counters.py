"""PerfCounters container tests."""

import pytest

from repro.gpu.counters import PerfCounters


class TestPerfCounters:
    def test_defaults_are_zero(self):
        c = PerfCounters()
        assert c.dram_bytes == 0.0
        assert c.kernel_launches == 1
        assert c.bank_conflict_transactions == 0.0

    def test_shared_traffic_sums_components(self):
        c = PerfCounters(global_to_shared_bytes=10.0,
                         shared_to_reg_bytes=20.0,
                         reg_to_shared_bytes=5.0)
        assert c.shared_traffic_bytes == 35.0

    def test_addition_sums_traffic(self):
        a = PerfCounters(dram_bytes=100.0, flops=10.0, kernel_launches=1)
        b = PerfCounters(dram_bytes=50.0, flops=5.0, kernel_launches=1)
        merged = a + b
        assert merged.dram_bytes == 150.0
        assert merged.flops == 15.0
        assert merged.kernel_launches == 2

    def test_addition_maxes_per_block_resources(self):
        a = PerfCounters(smem_per_block=1024, regs_per_thread=32,
                         threads_per_block=128)
        b = PerfCounters(smem_per_block=4096, regs_per_thread=16,
                         threads_per_block=256)
        merged = a + b
        assert merged.smem_per_block == 4096
        assert merged.regs_per_thread == 32
        assert merged.threads_per_block == 256

    def test_addition_merges_notes(self):
        a = PerfCounters(notes={"x": 1})
        b = PerfCounters(notes={"y": 2})
        assert (a + b).notes == {"x": 1, "y": 2}

    def test_addition_keeps_min_nonzero_occupancy(self):
        a = PerfCounters(occupancy=0.5)
        b = PerfCounters(occupancy=0.0)
        assert (a + b).occupancy == 0.5
        c = PerfCounters(occupancy=0.25)
        assert (a + c).occupancy == 0.25

    def test_add_non_counters_not_implemented(self):
        with pytest.raises(TypeError):
            PerfCounters() + 3

    def test_as_dict_excludes_notes(self):
        d = PerfCounters(notes={"k": "v"}).as_dict()
        assert "notes" not in d
        assert "dram_bytes" in d

    def test_relative_to(self):
        base = PerfCounters(dram_bytes=100.0, flops=10.0)
        mine = PerfCounters(dram_bytes=200.0, flops=10.0)
        ratios = mine.relative_to(base)
        assert ratios["dram_bytes"] == pytest.approx(2.0)
        assert ratios["flops"] == pytest.approx(1.0)

    def test_relative_to_zero_baseline(self):
        base = PerfCounters()
        mine = PerfCounters(shuffle_ops=5.0)
        ratios = mine.relative_to(base)
        assert ratios["shuffle_ops"] == float("inf")
        assert ratios["dram_bytes"] == 1.0  # both zero
