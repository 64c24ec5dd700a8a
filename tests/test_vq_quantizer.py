"""Vector quantizer tests: round-trips, scoping, residuals, remapping."""

import numpy as np
import pytest

from repro.vq.algorithms import make_quantizer
from repro.vq.config import VQConfig
from repro.vq.quantizer import VectorQuantizer


def _quantizer(vector=4, bits=6, residuals=1, scope="tensor", **kw):
    cfg = VQConfig("t", vector_size=vector, index_bits=bits,
                   residuals=residuals, scope=scope, **kw)
    return VectorQuantizer(cfg, seed=0, kmeans_iters=8)


class TestQuantizeRoundtrip:
    def test_shapes(self, weight):
        qt = _quantizer().quantize(weight)
        assert qt.shape == weight.shape
        assert qt.codes.shape == (weight.shape[0], weight.shape[1] // 4, 1)
        assert qt.dequantize().shape == weight.shape

    def test_reconstruction_error_reasonable(self, weight):
        qt = _quantizer(bits=8).quantize(weight)
        rel = qt.reconstruction_error(weight) / np.var(weight)
        assert rel < 0.5

    def test_more_entries_reduce_error(self, weight):
        small = _quantizer(bits=4).quantize(weight)
        large = _quantizer(bits=8).quantize(weight)
        assert (large.reconstruction_error(weight)
                < small.reconstruction_error(weight))

    def test_residuals_reduce_error(self, weight):
        one = _quantizer(bits=6, residuals=1).quantize(weight)
        two = _quantizer(bits=6, residuals=2).quantize(weight)
        assert (two.reconstruction_error(weight)
                < one.reconstruction_error(weight))

    def test_codes_in_range(self, weight):
        qt = _quantizer(bits=6).quantize(weight)
        assert qt.codes.min() >= 0
        assert qt.codes.max() < 64

    def test_rejects_indivisible_columns(self):
        with pytest.raises(ValueError):
            _quantizer(vector=4).quantize(np.zeros((8, 10)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            _quantizer().quantize(np.zeros(16))

    def test_quantized_bytes_accounting(self, weight):
        qt = _quantizer(bits=8).quantize(weight)
        n = weight.size
        assert qt.quantized_bytes == pytest.approx(n / 4 * 1.0)
        assert qt.codebooks.nbytes > 0  # codebooks add to the codes


class TestScoping:
    def test_tensor_scope_single_group(self, weight):
        qt = _quantizer(scope="tensor").quantize(weight)
        assert qt.n_groups == 1

    def test_channel_group_scope(self, weight):
        qt = _quantizer(scope="channel_group", bits=5).quantize(weight)
        assert qt.n_groups == weight.shape[1] // 4
        # Each column of codes belongs to its own group.
        assert np.array_equal(qt.group_map[0], np.arange(qt.n_groups))

    def test_tile_scope_group_count(self, weight):
        q = _quantizer(scope="tile", tile_shape=(64, 64))
        qt = q.quantize(weight)
        rows, cols = weight.shape
        assert qt.n_groups == (rows // 64) * (cols // 64)

    def test_tile_scope_group_layout(self):
        q = _quantizer(scope="tile", tile_shape=(64, 64))
        gm = q.group_map(128, 32)  # 128 rows, 32 subvectors (128 cols)
        assert gm[0, 0] == 0
        assert gm[0, 16] == 1      # second column tile
        assert gm[64, 0] == 2      # second row tile
        assert gm[127, 31] == 3

    def test_tile_width_must_divide_vector(self):
        q = _quantizer(scope="tile", tile_shape=(64, 30))
        with pytest.raises(ValueError):
            q.group_map(64, 16)


class TestLattice:
    def test_lattice_requires_matching_bits(self):
        cfg = VQConfig("l", vector_size=8, index_bits=12, residuals=1,
                       lattice=True)
        with pytest.raises(ValueError):
            VectorQuantizer(cfg)

    def test_lattice_roundtrip(self, weight):
        q = make_quantizer("quip#-4", kmeans_iters=4, train_sample=4096)
        qt = q.quantize(weight)
        rel = qt.reconstruction_error(weight) / np.var(weight)
        assert rel < 0.5

    def test_lattice_lookup_indices_are_base_table(self, qt_quip):
        lookup = qt_quip.lookup_indices()
        assert lookup.max() < 256
        # Raw codes carry the sign mask in the high bits.
        assert qt_quip.codes.max() >= 256

    def test_lattice_signs_recovered(self, weight, qt_quip):
        # Dequantized signs must match the original signs wherever the
        # magnitude is non-negligible.
        deq = qt_quip.dequantize()
        mask = np.abs(weight) > np.abs(weight).mean()
        agreement = np.mean(np.sign(deq[mask]) == np.sign(weight[mask]))
        assert agreement > 0.95


class TestRemap:
    def test_remap_preserves_dequantization(self, qt_gptvq):
        perm = np.random.default_rng(0).permutation(256)
        remapped = qt_gptvq.remap(perm)
        assert np.allclose(remapped.dequantize(), qt_gptvq.dequantize())

    def test_remap_lattice_preserves_dequantization(self, qt_quip):
        perm = np.random.default_rng(1).permutation(256)
        remapped = qt_quip.remap(perm)
        assert np.allclose(remapped.dequantize(), qt_quip.dequantize())

    def test_remap_rejects_non_permutation(self, qt_gptvq):
        with pytest.raises(ValueError):
            qt_gptvq.remap(np.zeros(256, dtype=int))

    def test_remap_moves_codes(self, qt_gptvq):
        perm = np.roll(np.arange(256), 1)
        remapped = qt_gptvq.remap(perm)
        assert not np.array_equal(remapped.codes, qt_gptvq.codes)


class TestKVQuantization:
    def test_cq_groups_per_channel(self, qt_cq2_kv, kv_data):
        assert qt_cq2_kv.n_groups == kv_data.shape[1] // 4

    def test_cq_reconstruction(self, qt_cq2_kv, kv_data):
        rel = qt_cq2_kv.reconstruction_error(kv_data) / np.var(kv_data)
        assert rel < 0.6

    def test_cq4_smaller_vectors_better_reconstruction(
            self, qt_cq2_kv, qt_cq4_kv, kv_data):
        # CQ-4 spends 4 bits/element vs CQ-2's 2: lower error.
        assert (qt_cq4_kv.reconstruction_error(kv_data)
                < qt_cq2_kv.reconstruction_error(kv_data))
