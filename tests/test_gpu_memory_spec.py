"""GPU spec and memory-helper tests."""

import dataclasses

import pytest

from repro.gpu.memory import (
    duplicated_codebook_bytes,
    l1_hit_rate,
    line_transactions,
)
from repro.gpu.spec import A40, A100, PRESETS, RTX4090, get_spec


class TestSpecs:
    def test_presets_expose_paper_gpus(self):
        assert "rtx4090" in PRESETS and "a40" in PRESETS

    def test_a40_bandwidth_fraction_matches_paper(self):
        # Paper: the A40 provides ~67% of the RTX 4090's bandwidth.
        ratio = A40.dram_bandwidth_gbps / RTX4090.dram_bandwidth_gbps
        assert 0.6 < ratio < 0.75

    def test_get_spec_is_case_insensitive(self):
        assert get_spec("RTX 4090") is RTX4090
        assert get_spec("a100") is A100

    def test_get_spec_unknown_raises(self):
        with pytest.raises(KeyError):
            get_spec("h100")

    def test_presets_carry_dram_capacity(self):
        assert RTX4090.dram_bytes == pytest.approx(24e9)
        assert A40.dram_bytes == pytest.approx(48e9)
        assert A100.dram_bytes == pytest.approx(80e9)
        assert A100.dram_gb == pytest.approx(80.0)

    def test_with_bandwidth_returns_new_spec(self):
        slow = RTX4090.with_bandwidth(500.0)
        assert slow.dram_bandwidth_gbps == 500.0
        assert RTX4090.dram_bandwidth_gbps == 1008.0

    def test_derived_quantities(self):
        assert RTX4090.max_warps_per_sm == 48
        assert RTX4090.peak_flops == pytest.approx(165.2e12)
        assert RTX4090.dram_bytes_per_s == pytest.approx(1008e9)

    def test_spec_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RTX4090.sm_count = 1


class TestLineTransactions:
    def test_contiguous_packs_lines(self):
        assert line_transactions(64, 2, line_bytes=128) == 1
        assert line_transactions(65, 2, line_bytes=128) == 2

    def test_scattered_pays_per_element(self):
        assert line_transactions(64, 2, contiguous=False) == 64

    def test_zero_elements(self):
        assert line_transactions(0, 2) == 0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            line_transactions(-1, 2)
        with pytest.raises(ValueError):
            line_transactions(1, 0)


class TestL1HitRate:
    def test_fits_entirely(self):
        assert l1_hit_rate(0, 128 * 1024, 8) == 1.0

    def test_no_cache_means_no_hits(self):
        assert l1_hit_rate(64 * 1024, 0, 8) == 0.0

    def test_line_underutilization_hurts(self):
        # Small entries waste line capacity: lower hit rate than
        # line-sized entries for the same working set.
        small = l1_hit_rate(64 * 1024, 128 * 1024, 8)
        big = l1_hit_rate(64 * 1024, 128 * 1024, 128)
        assert small < big

    def test_skew_helps(self):
        flat = l1_hit_rate(512 * 1024, 128 * 1024, 8, skew=0.0)
        skewed = l1_hit_rate(512 * 1024, 128 * 1024, 8, skew=0.8)
        assert skewed > flat

    def test_paper_motivation_case_is_low(self):
        # CQ's 64 KB codebook with 8 B entries: the paper measured a
        # 12.45% hit rate; the model should land in that regime.
        hit = l1_hit_rate(64 * 1024, 128 * 1024, 8, skew=0.5)
        assert hit < 0.35

    def test_rejects_bad_skew(self):
        with pytest.raises(ValueError):
            l1_hit_rate(1024, 1024, 8, skew=1.0)

    def test_bounds(self):
        for ws in (1024, 64 * 1024, 4 * 1024 * 1024):
            rate = l1_hit_rate(ws, 128 * 1024, 8)
            assert 0.0 <= rate <= 1.0


class TestDuplicatedCodebookBytes:
    def test_scales_with_blocks(self):
        assert duplicated_codebook_bytes(2048, 10) == 20480

    def test_zero_blocks(self):
        assert duplicated_codebook_bytes(2048, 0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            duplicated_codebook_bytes(-1, 2)
