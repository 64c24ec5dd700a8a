"""Vector quantizer: the typical VQ pipeline of Fig. 1.

Splits a 2-D tensor into ``vector_size`` sub-vectors along the last axis,
trains one codebook per scope group per residual level with k-means,
encodes each sub-vector as the index of its nearest centroid, and
iterates on the residual.  Lattice codebooks (QuiP#) are emulated with a
sign-magnitude decomposition: 256 stored magnitude entries x ``2**v``
sign masks give ``2**(8+v)`` nominal entries while lookups touch only the
256-entry base table — the property Tbl. II footnotes.

The result, :class:`QuantizedTensor`, is what kernels consume: codes at
their index width (:attr:`~repro.vq.config.VQConfig.code_dtype`) + a
:class:`~repro.vq.codebook.CodebookSet`, with helpers for
dequantization, effective-lookup index streams (for hotness profiling)
and code remapping (for the codebook cache's frequency reorder).  Which
codebook a code position reads is not stored: :func:`scope_group_map`
derives it from the scope and the shape.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.vq.codebook import Codebook, CodebookSet
from repro.vq.config import VQConfig
from repro.vq.kmeans import kmeans


def _assign_nearest(data: np.ndarray, centroids: np.ndarray,
                    chunk: int = 65536) -> np.ndarray:
    """Nearest-centroid index for each row of ``data`` (chunked)."""
    out = np.empty(data.shape[0], dtype=np.int64)
    c_sq = np.einsum("kd,kd->k", centroids, centroids)
    for start in range(0, data.shape[0], chunk):
        block = data[start:start + chunk]
        scores = block @ centroids.T
        scores *= -2.0
        scores += c_sq[None, :]
        out[start:start + chunk] = np.argmin(scores, axis=1)
    return out


def scope_group_map(config: VQConfig, rows: int, n_sub: int) -> np.ndarray:
    """Scope group of each (row, sub-vector) code position, read-only.

    The ``tensor`` and ``channel_group`` scopes give a broadcast view
    (no storage); the ``tile`` scope gives an array of the narrowest
    unsigned type that numbers its tiles.
    """
    if config.scope == "tensor":
        return np.broadcast_to(np.intp(0), (rows, n_sub))
    if config.scope == "channel_group":
        # One codebook per group of vector_size channels (CQ).
        return np.broadcast_to(np.arange(n_sub), (rows, n_sub))
    # tile scope (GPTVQ): one codebook per (tile_r, tile_c) weight tile.
    tile_r, tile_c = config.tile_shape
    if tile_c % config.vector_size:
        raise ValueError("tile width must be a multiple of vector_size")
    subs_per_tile = tile_c // config.vector_size
    tiles_per_row = -(-n_sub // subs_per_tile)
    n_groups = -(-rows // tile_r) * tiles_per_row
    groups = ((np.arange(rows) // tile_r)[:, None] * tiles_per_row
              + (np.arange(n_sub) // subs_per_tile)[None, :])
    groups = groups.astype(np.min_scalar_type(max(n_groups - 1, 0)))
    groups.flags.writeable = False
    return groups


class QuantizedTensor:
    """A VQ-compressed 2-D tensor: codes at index width and codebooks."""

    def __init__(
        self,
        config: VQConfig,
        shape: tuple,
        codes: np.ndarray,
        codebooks: CodebookSet,
    ):
        rows, cols = shape
        n_sub = cols // config.vector_size
        codes = np.asarray(codes)
        if codes.shape != (rows, n_sub, config.residuals):
            raise ValueError(
                f"codes shape {codes.shape} does not match tensor shape "
                f"{shape} under {config.spec_string()}"
            )
        # A bare cast would wrap out-of-range codes (256 -> 0 in uint8).
        if not np.issubdtype(codes.dtype, np.integer):
            raise ValueError(f"codes must be integers, got {codes.dtype}")
        if codes.size and (int(codes.min()) < 0
                           or int(codes.max()) >= config.n_entries):
            raise ValueError(
                f"codes must lie in [0, {config.n_entries}) for "
                f"{config.index_bits}-bit indices"
            )
        self.config = config
        self.shape = tuple(shape)
        self.codes = codes.astype(config.code_dtype, copy=False)
        self.codebooks = codebooks

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def n_subvectors(self) -> int:
        return self.codes.shape[1]

    @property
    def n_groups(self) -> int:
        return self.codebooks.n_groups

    @property
    def group_map(self) -> np.ndarray:
        """Scope group of each (row, sub-vector) code position."""
        return scope_group_map(self.config, self.rows, self.n_subvectors)

    @property
    def quantized_bytes(self) -> float:
        """Storage of the packed codes."""
        return self.config.quantized_bytes(self.rows * self.cols)

    def lookup_indices(self) -> np.ndarray:
        """Effective codebook-lookup index per code.

        For lattice configs this strips the sign mask and returns the
        base-table index actually used for the shared-memory lookup; for
        plain configs it is the code itself.  Shape matches :attr:`codes`.
        """
        if self.config.lattice:
            return self.codes & (self.config.lattice_lookup_entries - 1)
        return self.codes

    def _decode_codes(self, residual: int) -> np.ndarray:
        """Dequantize one residual level, shape (rows, n_sub, vector)."""
        stacked = self.codebooks.stacked_entries(residual)
        codes_r = self.codes[:, :, residual]
        groups = self.group_map
        if self.config.lattice:
            base = codes_r & (self.config.lattice_lookup_entries - 1)
            masks = codes_r >> 8
            vecs = stacked[groups, base].astype(np.float64)
            v = self.config.vector_size
            bits = (masks[..., None] >> np.arange(v)) & 1
            signs = np.where(bits > 0, 1.0, -1.0)
            return vecs * signs
        return stacked[groups, codes_r].astype(np.float64)

    def dequantize(self) -> np.ndarray:
        """Reconstruct the full tensor (residual levels accumulated)."""
        total = np.zeros(
            (self.rows, self.n_subvectors, self.config.vector_size))
        for r in range(self.config.residuals):
            total += self._decode_codes(r)
        return total.reshape(self.rows, self.cols)

    def remap(self, permutations: np.ndarray) -> "QuantizedTensor":
        """Apply a frequency reorder: new codebooks + remapped codes.

        Parameters
        ----------
        permutations:
            ``perm[new_index] = old_index`` over *effective lookup*
            indices; applied identically to every group and residual
            (the paper reorders at tensor level).

        Returns
        -------
        QuantizedTensor
            Equivalent tensor whose effective lookup index 0 is the most
            frequently accessed entry.
        """
        perm = np.asarray(permutations)
        n_lookup = self.config.lookup_entries
        if sorted(perm.tolist()) != list(range(n_lookup)):
            raise ValueError("permutations must permute all lookup entries")
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(n_lookup)

        new_books = [
            [book.reordered(perm) for book in group]
            for group in self.codebooks.books
        ]
        if self.config.lattice:
            base = self.codes & (n_lookup - 1)
            # The sign-mask bits are the code less its base index (a
            # negative mask constant does not fit an unsigned dtype).
            new_codes = (self.codes - base) | inverse[base]
        else:
            new_codes = inverse[self.codes]
        return QuantizedTensor(self.config, self.shape, new_codes,
                               CodebookSet(new_books))

    def reconstruction_error(self, original: np.ndarray) -> float:
        """Mean squared reconstruction error against ``original``."""
        original = np.asarray(original, dtype=np.float64)
        if original.shape != self.shape:
            raise ValueError("original shape mismatch")
        diff = self.dequantize() - original
        return float(np.mean(diff * diff))


class VectorQuantizer:
    """Trains codebooks and encodes tensors for one :class:`VQConfig`."""

    def __init__(
        self,
        config: VQConfig,
        seed: int = 0,
        kmeans_iters: int = 15,
        train_sample: Optional[int] = 65536,
    ):
        self.config = config
        self.seed = seed
        self.kmeans_iters = kmeans_iters
        self.train_sample = train_sample
        if config.lattice and config.index_bits != 8 + config.vector_size:
            raise ValueError(
                "lattice emulation stores an 8-bit base index plus one sign "
                f"bit per element, so index_bits must be "
                f"{8 + config.vector_size} for vector_size="
                f"{config.vector_size}"
            )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def quantize(self, tensor: np.ndarray) -> QuantizedTensor:
        """Quantize a 2-D tensor, training codebooks per group."""
        tensor = np.asarray(tensor, dtype=np.float64)
        if tensor.ndim != 2:
            raise ValueError(f"expected a 2-D tensor, got shape {tensor.shape}")
        cfg = self.config
        rows, cols = tensor.shape
        if cols % cfg.vector_size:
            raise ValueError(
                f"columns ({cols}) must be divisible by vector_size "
                f"({cfg.vector_size})"
            )
        n_sub = cols // cfg.vector_size
        sub = tensor.reshape(rows, n_sub, cfg.vector_size)
        groups = scope_group_map(cfg, rows, n_sub)
        n_groups = int(groups.max()) + 1

        codes = np.zeros((rows, n_sub, cfg.residuals), dtype=np.int64)
        books = [[None] * cfg.residuals for _ in range(n_groups)]
        for g in range(n_groups):
            mask = groups == g
            data = sub[mask]
            if data.size == 0:
                raise ValueError(f"scope group {g} has no sub-vectors")
            for r in range(cfg.residuals):
                book, idx = self._encode_level(data, level_seed=g * 131 + r)
                books[g][r] = book
                codes[mask, r] = idx
                data = data - self._decode_level(book, idx)
        return QuantizedTensor(cfg, tensor.shape, codes, CodebookSet(books))

    def _encode_level(self, data: np.ndarray, level_seed: int):
        """Train one codebook level and encode ``data`` against it."""
        cfg = self.config
        if cfg.lattice:
            return self._encode_lattice(data, level_seed)
        km = kmeans(
            data,
            cfg.n_entries,
            max_iters=self.kmeans_iters,
            seed=self.seed + level_seed,
            sample=self.train_sample,
        )
        book = Codebook(km.centroids, cfg.entry_element_bytes)
        return book, km.assignments

    def _encode_lattice(self, data: np.ndarray, level_seed: int):
        """Sign-magnitude lattice emulation (QuiP#-style).

        The base table holds 256 magnitude patterns; the code's high bits
        are the per-element sign mask.  Lookups at dequantization time
        touch only the base table.
        """
        cfg = self.config
        mags = np.abs(data)
        km = kmeans(
            mags,
            cfg.lattice_lookup_entries,
            max_iters=self.kmeans_iters,
            seed=self.seed + level_seed,
            sample=self.train_sample,
        )
        base_idx = km.assignments
        sign_bits = (data >= 0).astype(np.int64)
        weights = (1 << np.arange(cfg.vector_size, dtype=np.int64))
        masks = sign_bits @ weights
        codes = (masks << 8) | base_idx
        book = Codebook(km.centroids, cfg.entry_element_bytes)
        return book, codes

    def _decode_level(self, book: Codebook, codes: np.ndarray) -> np.ndarray:
        """Dequantize one level's codes against one codebook."""
        cfg = self.config
        if not cfg.lattice:
            return book.entries[codes].astype(np.float64)
        base = codes & (cfg.lattice_lookup_entries - 1)
        masks = codes >> 8
        bits = (masks[..., None] >> np.arange(cfg.vector_size)) & 1
        signs = np.where(bits > 0, 1.0, -1.0)
        return book.entries[base].astype(np.float64) * signs
