"""Hotness profiling tests (Fig. 8 / Fig. 9 mechanics)."""

import numpy as np
import pytest

from repro.core.hotness import (
    HotnessProfile,
    block_consistency,
    per_block_counts,
    profile_hotness,
)


class TestProfile:
    def test_counts_cover_all_lookups(self, qt_gptvq):
        profile = profile_hotness(qt_gptvq)
        assert profile.total_accesses == qt_gptvq.lookup_indices().size
        assert profile.n_entries == 256

    def test_order_sorts_descending(self, qt_gptvq):
        profile = profile_hotness(qt_gptvq)
        sorted_counts = profile.sorted_counts
        assert np.all(sorted_counts[:-1] >= sorted_counts[1:])

    def test_coverage_monotone(self, qt_aqlm):
        profile = profile_hotness(qt_aqlm)
        values = [profile.coverage(n) for n in (0, 1, 16, 256, 4096)]
        assert values[0] == 0.0
        assert values[-1] == pytest.approx(1.0)
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_coverage_beyond_entries_is_full(self, qt_gptvq):
        profile = profile_hotness(qt_gptvq)
        assert profile.coverage(10_000) == pytest.approx(1.0)

    def test_structured_weights_are_skewed(self, qt_aqlm):
        # The paper's Fig. 8 observation: over half the entries sit
        # below the mean access count.
        profile = profile_hotness(qt_aqlm)
        assert profile.below_mean_fraction() > 0.5

    def test_hot_entries_nonnegative(self, qt_cq2_kv):
        profile = profile_hotness(qt_cq2_kv)
        assert profile.hot_entries(3.0) >= 0

    def test_lattice_profile_over_base_table(self, qt_quip):
        profile = profile_hotness(qt_quip)
        assert profile.n_entries == 256  # base table, not 65536

    def test_synthetic_uniform_has_no_hot_entries(self):
        counts = np.full(64, 100)
        profile = HotnessProfile(counts, np.arange(64))
        assert profile.hot_entries() == 0
        assert profile.below_mean_fraction() == 0.0


def _direct_coverage(counts, order, top_n):
    """``HotnessProfile.coverage`` as a fresh numpy reduction."""
    if top_n <= 0:
        return 0.0
    total = int(counts.sum())
    if total == 0:
        return 0.0
    return float(counts[order][:min(top_n, counts.size)].sum()) / total


def _direct_hot_entries(counts, n_sigma):
    """``HotnessProfile.hot_entries`` as a fresh numpy reduction."""
    return int(np.sum(counts > counts.mean() + n_sigma * counts.std()))


class TestStatisticsComputedOnce:
    """``coverage`` and ``hot_entries`` answer from statistics computed
    once per profile; every answer must equal the direct formula bit
    for bit, on every call."""

    @pytest.mark.parametrize("seed", range(12))
    def test_match_direct_formulas_on_random_counts(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        high = (0, 1, 7, 1000, 100_000)[seed % 5]      # 0: zero total
        counts = rng.integers(0, high + 1, n) ** int(rng.integers(1, 4))
        order = np.argsort(-counts, kind="stable")
        profile = HotnessProfile(counts, order)
        for _ in range(2):                             # cached answers too
            for top_n in (-3, 0, 1, 2, n // 3, n - 1, n, n + 1, 50 * n):
                assert (profile.coverage(top_n)
                        == _direct_coverage(counts, order, top_n))
            for n_sigma in (-1.0, 0.0, 0.5, 1.0, 3.0, 10.0):
                assert (profile.hot_entries(n_sigma)
                        == _direct_hot_entries(counts, n_sigma))

    def test_zero_total(self):
        profile = HotnessProfile(np.zeros(16, dtype=np.int64),
                                 np.arange(16))
        assert profile.coverage(4) == profile.coverage(100) == 0.0
        assert profile.hot_entries() == 0

    def test_match_direct_formulas_on_a_real_profile(self, qt_aqlm):
        profile = profile_hotness(qt_aqlm)
        counts, order = profile.counts, profile.order
        for top_n in (1, 16, 32, 256, 4096):
            assert (profile.coverage(top_n)
                    == _direct_coverage(counts, order, top_n))
        assert profile.hot_entries(3.0) == _direct_hot_entries(counts, 3.0)


class TestPerBlock:
    def test_shape(self, qt_gptvq):
        counts = per_block_counts(qt_gptvq, rows_per_block=32)
        assert counts.shape == (qt_gptvq.rows // 32, 256)

    def test_block_counts_sum_to_total(self, qt_gptvq):
        counts = per_block_counts(qt_gptvq, rows_per_block=32)
        assert counts.sum() == qt_gptvq.lookup_indices().size

    def test_ragged_last_block(self, qt_gptvq):
        counts = per_block_counts(qt_gptvq, rows_per_block=100)
        assert counts.shape[0] == 2
        assert counts.sum() == qt_gptvq.lookup_indices().size

    def test_rejects_bad_block_size(self, qt_gptvq):
        with pytest.raises(ValueError):
            per_block_counts(qt_gptvq, rows_per_block=0)


class TestConsistency:
    def test_identical_blocks_fully_consistent(self):
        counts = np.tile(np.arange(64), (8, 1))
        assert block_consistency(counts, top_n=8) == pytest.approx(1.0)

    def test_disjoint_blocks_inconsistent(self):
        counts = np.zeros((2, 64))
        counts[0, :8] = 100
        counts[1, 32:40] = 100
        assert block_consistency(counts, top_n=8) <= 0.5

    def test_structured_weights_consistent(self, qt_quip):
        # Fig. 9: tensor-level reorder is justified because hot entries
        # repeat across blocks.
        counts = per_block_counts(qt_quip, rows_per_block=32)
        assert block_consistency(counts, top_n=32) > 0.5

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            block_consistency(np.arange(10))
