"""KV-cache tests (FP16 and VQ-compressed)."""

import numpy as np
import pytest

from repro.llm.kvcache import KVCache, QuantizedKVCache
from repro.llm.model import structured_matrix
from repro.vq.algorithms import make_config


@pytest.fixture(scope="module")
def calibration():
    rng = np.random.default_rng(42)
    tokens, heads, dim = 192, 2, 16
    k = structured_matrix(rng, tokens, heads * dim).reshape(
        tokens, heads, dim)
    v = structured_matrix(rng, tokens, heads * dim).reshape(
        tokens, heads, dim)
    return k, v


class TestKVCache:
    def test_append_and_views(self):
        cache = KVCache(batch=2, n_heads=3, head_dim=8, max_tokens=4)
        k = np.ones((2, 3, 8))
        cache.append(k, 2 * k)
        cache.append(3 * k, 4 * k)
        assert cache.length == 2
        assert cache.keys.shape == (2, 3, 2, 8)
        assert np.allclose(cache.values[:, :, 1], 4.0)

    def test_extend_prompt(self):
        cache = KVCache(1, 2, 8, max_tokens=16)
        k = np.random.default_rng(0).standard_normal((1, 2, 5, 8))
        cache.extend(k, k)
        assert cache.length == 5
        assert np.allclose(cache.keys, k)

    def test_overflow_rejected(self):
        cache = KVCache(1, 1, 4, max_tokens=1)
        cache.append(np.zeros((1, 1, 4)), np.zeros((1, 1, 4)))
        with pytest.raises(RuntimeError):
            cache.append(np.zeros((1, 1, 4)), np.zeros((1, 1, 4)))

    def test_nbytes(self):
        cache = KVCache(2, 4, 16, max_tokens=8)
        cache.append(np.zeros((2, 4, 16)), np.zeros((2, 4, 16)))
        assert cache.nbytes == 2 * 2 * 2 * 4 * 1 * 16


class TestQuantizedKVCache:
    def _make(self, calibration, algo="cq-4", max_tokens=8):
        k, v = calibration
        return QuantizedKVCache(
            make_config(algo), batch=1, n_heads=2, head_dim=16,
            max_tokens=max_tokens, calibration_k=k, calibration_v=v)

    def test_online_append_roundtrip(self, calibration):
        cache = self._make(calibration)
        k_cal, v_cal = calibration
        for t in range(4):
            cache.append(k_cal[t][None], v_cal[t][None])
        assert cache.length == 4
        keys = cache.keys
        assert keys.shape == (1, 2, 4, 16)
        # Reconstruction close to the appended values.
        rel = (np.mean((keys[0].transpose(1, 0, 2) - k_cal[:4]) ** 2)
               / np.var(k_cal[:4]))
        assert rel < 0.5

    def test_compression_ratio(self, calibration):
        cache = self._make(calibration, algo="cq-4")
        k_cal, v_cal = calibration
        cache.append(k_cal[0][None], v_cal[0][None])
        fp16_bytes = 2 * 2 * 2 * 16  # k+v, fp16
        assert cache.nbytes == pytest.approx(fp16_bytes * 0.25)

    def test_requires_channel_group_scope(self, calibration):
        k, v = calibration
        with pytest.raises(ValueError):
            QuantizedKVCache(make_config("gptvq-2"), 1, 2, 16, 8, k, v)

    def test_full_cache_rejected(self, calibration):
        cache = self._make(calibration, max_tokens=1)
        k_cal, v_cal = calibration
        cache.append(k_cal[0][None], v_cal[0][None])
        with pytest.raises(RuntimeError):
            cache.append(k_cal[1][None], v_cal[1][None])
