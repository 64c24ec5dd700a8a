"""Bank-conflict model tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.banks import BankConflictModel, warp_conflict_degree
from repro.gpu.spec import RTX4090


class TestWarpConflictDegree:
    def test_broadcast_is_free(self):
        # All lanes read the same entry: one transaction.
        assert warp_conflict_degree([5] * 32, entry_bytes=4) == 1

    def test_perfectly_strided_single_word(self):
        # 32 lanes reading entries 0..31 of 4-byte entries: one word per
        # bank, conflict-free.
        assert warp_conflict_degree(list(range(32)), entry_bytes=4) == 1

    def test_stride_collision(self):
        # Entries 0, 32, 64, ... of 4-byte entries all map to bank 0.
        indices = [i * 32 for i in range(32)]
        assert warp_conflict_degree(indices, entry_bytes=4) == 32

    def test_multiword_entries_raise_degree(self):
        # 8-byte entries: each access touches 2 banks; 32 lanes reading
        # 32 distinct consecutive entries need 2 words per bank.
        assert warp_conflict_degree(list(range(32)), entry_bytes=8) == 2

    def test_sixteen_byte_entries(self):
        assert warp_conflict_degree(list(range(32)), entry_bytes=16) == 4

    def test_empty_warp(self):
        assert warp_conflict_degree([], entry_bytes=8) == 0

    def test_rejects_nonpositive_entry_bytes(self):
        with pytest.raises(ValueError):
            warp_conflict_degree([0], entry_bytes=0)

    def test_worst_case_exceeds_ideal(self):
        # Random skewed indices over many entries conflict more than
        # the ideal multi-word floor.
        rng = np.random.default_rng(0)
        indices = (rng.integers(0, 256, size=32) * 8) % 256
        degree = warp_conflict_degree(indices.tolist(), entry_bytes=16)
        assert degree >= 4


class TestBankConflictModel:
    def test_register_resident_entries_bypass_shared(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        stream = np.zeros(32 * 64, dtype=np.int64)  # all index 0
        # With index 0 register-resident, no shared access remains.
        assert model.average_degree(stream, register_resident=1) == 0.0

    def test_global_resident_entries_bypass_shared(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        stream = np.full(32 * 16, 100, dtype=np.int64)
        assert model.average_degree(stream, shared_resident=50) == 0.0

    def test_degree_at_least_one_for_shared_accesses(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        rng = np.random.default_rng(1)
        stream = rng.integers(0, 256, size=32 * 128)
        assert model.average_degree(stream) >= 1.0

    def test_register_caching_hot_entries_reduces_degree(self):
        # A Zipf-like stream: entry 0 is extremely hot and collides.
        model = BankConflictModel(RTX4090, entry_bytes=8)
        rng = np.random.default_rng(2)
        zipf = np.minimum(rng.zipf(1.3, size=32 * 256) - 1, 255)
        base = model.average_degree(zipf, register_resident=0)
        cached = model.average_degree(zipf, register_resident=8)
        assert cached <= base

    def test_sampling_is_deterministic(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        rng = np.random.default_rng(3)
        stream = rng.integers(0, 256, size=32 * 5000)
        a = model.average_degree(stream, max_warps=128)
        b = model.average_degree(stream, max_warps=128)
        assert a == b

    def test_short_stream_single_partial_warp(self):
        model = BankConflictModel(RTX4090, entry_bytes=4)
        assert model.average_degree(np.array([1, 2, 3])) == 1.0

    def test_empty_stream(self):
        model = BankConflictModel(RTX4090, entry_bytes=8)
        assert model.average_degree(np.array([], dtype=np.int64)) == 0.0

    def test_rejects_bad_entry_bytes(self):
        with pytest.raises(ValueError):
            BankConflictModel(RTX4090, entry_bytes=-2)


def _scalar_average_degree(model, stream, register_resident,
                           shared_resident, max_warps, seed=0):
    """Per-warp loop over :func:`warp_conflict_degree`: the reference
    the vectorized :meth:`BankConflictModel.average_degree` replicates,
    with the same deterministic warp sampling."""
    warp = model.spec.warp_size
    n_warps = stream.size // warp
    if n_warps > max_warps:
        chosen = np.random.default_rng(seed).choice(
            n_warps, size=max_warps, replace=False)
    else:
        chosen = range(n_warps)
    degrees = []
    for w in chosen:
        lanes = [int(i) for i in stream[w * warp:(w + 1) * warp]
                 if i >= register_resident
                 and (shared_resident is None or i < shared_resident)]
        if lanes:
            degrees.append(warp_conflict_degree(
                lanes, model.entry_bytes, model.spec.smem_banks,
                model.spec.smem_bank_bytes))
    return sum(degrees) / len(degrees) if degrees else 0.0


class TestVectorizedMatchesScalar:
    @settings(max_examples=150, deadline=None)
    @given(
        stream=st.lists(st.integers(0, 511), min_size=32,
                        max_size=32 * 20),
        entry_bytes=st.integers(1, 40),
        register_resident=st.integers(0, 64),
        shared_resident=st.one_of(st.none(), st.integers(0, 600)),
        max_warps=st.integers(1, 24),
    )
    def test_average_degree_equals_scalar_loop(
            self, stream, entry_bytes, register_resident, shared_resident,
            max_warps):
        model = BankConflictModel(RTX4090, entry_bytes=entry_bytes)
        stream = np.array(stream, dtype=np.int64)
        got = model.average_degree(stream, register_resident,
                                   shared_resident, max_warps=max_warps)
        assert got == _scalar_average_degree(
            model, stream, register_resident, shared_resident, max_warps)


class TestRealScaleMatchesScalar:
    """The sampling scale the generator uses: a 131,072-lane skewed
    stream (4,096 warps) sampled down to 1,024 warps.  Twelve-byte
    entries are three words, which do not divide the 32 banks, so an
    entry's words wrap around the bank array at varying offsets."""

    STREAM = np.minimum(
        np.random.default_rng(17).zipf(1.3, size=131_072) - 1, 255)

    @pytest.mark.parametrize("entry_bytes", [4, 8, 12, 16])
    @pytest.mark.parametrize("register_resident,shared_resident",
                             [(0, None), (1, 256), (6, 130), (5, 21)])
    def test_average_degree_equals_scalar_loop(
            self, entry_bytes, register_resident, shared_resident):
        model = BankConflictModel(RTX4090, entry_bytes=entry_bytes)
        got = model.average_degree(self.STREAM, register_resident,
                                   shared_resident, max_warps=1024)
        assert got == _scalar_average_degree(
            model, self.STREAM, register_resident, shared_resident,
            max_warps=1024)
