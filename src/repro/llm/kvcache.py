"""KV caches: FP16 and VQ-compressed.

The decode phase appends one key/value row per token per head; CQ-style
VQ compression quantizes each new row online against codebooks trained on
calibration data (the paper measures this online step at < 1 us per
token, i.e. negligible — we count its cost separately in the harness).

:class:`QuantizedKVCache` keeps only the codes, at their index width
(:attr:`~repro.vq.config.VQConfig.code_dtype`), plus the codebooks;
reads dequantize on the fly, which is what the fused attention kernels
model.
"""

from __future__ import annotations

import numpy as np

from repro.vq.codebook import CodebookSet
from repro.vq.config import VQConfig
from repro.vq.quantizer import VectorQuantizer, _assign_nearest


class KVCache:
    """Plain FP16-equivalent KV cache, laid out (B, H, T, C)."""

    def __init__(self, batch: int, n_heads: int, head_dim: int,
                 max_tokens: int):
        self.batch = batch
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.max_tokens = max_tokens
        self.length = 0
        self._k = np.zeros((batch, n_heads, max_tokens, head_dim))
        self._v = np.zeros((batch, n_heads, max_tokens, head_dim))

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append one token's keys/values, shape (B, H, C)."""
        if self.length >= self.max_tokens:
            raise RuntimeError("KV cache is full")
        self._k[:, :, self.length] = k
        self._v[:, :, self.length] = v
        self.length += 1

    def extend(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append a prompt's keys/values, shape (B, H, T, C)."""
        t = k.shape[2]
        if self.length + t > self.max_tokens:
            raise RuntimeError("KV cache overflow")
        self._k[:, :, self.length:self.length + t] = k
        self._v[:, :, self.length:self.length + t] = v
        self.length += t

    @property
    def keys(self) -> np.ndarray:
        """Valid keys, shape (B, H, length, C)."""
        return self._k[:, :, :self.length]

    @property
    def values(self) -> np.ndarray:
        """Valid values, shape (B, H, length, C)."""
        return self._v[:, :, :self.length]

    @property
    def nbytes(self) -> int:
        """FP16 storage of the valid region."""
        return 2 * 2 * self.batch * self.n_heads * self.length * self.head_dim


class QuantizedKVCache:
    """CQ-style VQ-compressed KV cache.

    Codebooks are trained once on calibration keys/values (per channel
    group, as CQ does), then each appended token is *encoded only* —
    the online path the paper measures as negligible.  Keys and values
    get independent codebooks.
    """

    def __init__(
        self,
        config: VQConfig,
        batch: int,
        n_heads: int,
        head_dim: int,
        max_tokens: int,
        calibration_k: np.ndarray,
        calibration_v: np.ndarray,
        seed: int = 0,
    ):
        if config.scope != "channel_group":
            raise ValueError("KV-cache VQ uses channel_group scope (CQ)")
        if head_dim % config.vector_size:
            raise ValueError("head_dim must be divisible by vector_size")
        self.config = config
        self.batch = batch
        self.n_heads = n_heads
        self.head_dim = head_dim
        self.max_tokens = max_tokens
        self.length = 0
        self.n_sub = head_dim // config.vector_size

        quantizer = VectorQuantizer(config, seed=seed)
        # Calibration arrays are (tokens, H, C); train per head by
        # flattening heads into the channel axis so each head's channel
        # groups get their own codebooks, like CQ.
        self._k_books = self._train_books(quantizer, calibration_k)
        self._v_books = self._train_books(quantizer, calibration_v)
        shape = (batch, n_heads, max_tokens, self.n_sub, config.residuals)
        self._k_codes = np.zeros(shape, dtype=config.code_dtype)
        self._v_codes = np.zeros(shape, dtype=config.code_dtype)

    def _train_books(self, quantizer: VectorQuantizer,
                     calibration: np.ndarray) -> CodebookSet:
        """Train per-(head, channel-group) codebooks on calibration data."""
        calibration = np.asarray(calibration, dtype=np.float64)
        if calibration.ndim != 3 or calibration.shape[1] != self.n_heads \
                or calibration.shape[2] != self.head_dim:
            raise ValueError("calibration must be (tokens, H, C)")
        flat = calibration.reshape(calibration.shape[0],
                                   self.n_heads * self.head_dim)
        qt = quantizer.quantize(flat)
        return qt.codebooks

    def _encode(self, row: np.ndarray, books: CodebookSet,
                head: int) -> np.ndarray:
        """Encode one head's (C,) row -> (n_sub, residuals) codes."""
        cfg = self.config
        sub = row.reshape(self.n_sub, cfg.vector_size).astype(np.float64)
        codes = np.zeros((self.n_sub, cfg.residuals), dtype=cfg.code_dtype)
        for j in range(self.n_sub):
            group = head * self.n_sub + j
            target = sub[j:j + 1].copy()
            for r in range(cfg.residuals):
                book = books.get(group, r)
                idx = _assign_nearest(target, book.entries.astype(np.float64))
                codes[j, r] = idx[0]
                target = target - book.entries[idx].astype(np.float64)
        return codes

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Quantize and append one token's (B, H, C) keys/values."""
        if self.length >= self.max_tokens:
            raise RuntimeError("KV cache is full")
        for b in range(self.batch):
            for h in range(self.n_heads):
                self._k_codes[b, h, self.length] = self._encode(
                    k[b, h], self._k_books, h)
                self._v_codes[b, h, self.length] = self._encode(
                    v[b, h], self._v_books, h)
        self.length += 1

    def _decode(self, codes: np.ndarray, books: CodebookSet) -> np.ndarray:
        """Dequantize codes (B, H, T, n_sub, R) -> (B, H, T, C)."""
        cfg = self.config
        b, h, t = codes.shape[:3]
        groups = (np.arange(h)[:, None] * self.n_sub
                  + np.arange(self.n_sub)[None, :])
        out = np.zeros((b, h, t, self.n_sub, cfg.vector_size))
        for r in range(cfg.residuals):
            stacked = books.stacked_entries(r)
            idx = codes[:, :, :, :, r]
            out += stacked[groups[None, :, None, :], idx]
        return out.reshape(b, h, t, self.head_dim)

    @property
    def keys(self) -> np.ndarray:
        """Dequantized keys, shape (B, H, length, C)."""
        return self._decode(self._k_codes[:, :, :self.length], self._k_books)

    @property
    def values(self) -> np.ndarray:
        """Dequantized values, shape (B, H, length, C)."""
        return self._decode(self._v_codes[:, :, :self.length], self._v_books)

    @property
    def nbytes(self) -> float:
        """Compressed storage (codes only) of the valid region."""
        n_elem = (2 * self.batch * self.n_heads * self.length
                  * self.head_dim)
        return self.config.quantized_bytes(n_elem)
