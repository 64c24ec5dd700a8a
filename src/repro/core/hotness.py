"""Codebook-entry access-frequency profiling (offline phase).

The codebook cache rests on the observation (Fig. 8) that entry access
frequency is highly skewed: over half the entries are accessed less than
the mean, while a handful exceed mu + 3 sigma.  Frequencies follow
directly from the quantized data — the k-means cluster sizes — so the
profile is computed from the tensor's effective lookup-index stream, the
same stream the dequantization kernel will issue.

Fig. 9's observation (the same entries are hot across different tensor
parts / thread blocks) is exposed by :meth:`HotnessProfile.per_block_counts`
and quantified by :meth:`HotnessProfile.block_consistency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.vq.quantizer import QuantizedTensor


@dataclass
class HotnessProfile:
    """Access-frequency statistics of one quantized tensor's codebooks.

    The cumulative sorted counts, the mean and the standard deviation
    are computed once, on first use; :meth:`coverage` and
    :meth:`hot_entries` answer every later call from them.  ``counts``
    and ``order`` must not change after that.
    """

    #: Access count per effective lookup index (original numbering).
    counts: np.ndarray
    #: Permutation sorting entries by descending frequency:
    #: ``order[new_index] = old_index``.
    order: np.ndarray

    @property
    def n_entries(self) -> int:
        return self.counts.size

    @property
    def total_accesses(self) -> int:
        return int(self.counts.sum())

    @property
    def sorted_counts(self) -> np.ndarray:
        """Counts in descending order (the codebook-cache numbering)."""
        return self.counts[self.order]

    @cached_property
    def _cumulative(self) -> np.ndarray:
        """``_cumulative[n]``: accesses served by the ``n`` hottest
        entries (``[0]`` is 0, ``[-1]`` the total).  Counts are
        integers, so every prefix sum is exact."""
        return np.concatenate(([0], np.cumsum(self.sorted_counts)))

    @cached_property
    def _moments(self) -> tuple:
        """``(mean, std)`` of the counts, as numpy computes them."""
        return self.counts.mean(), self.counts.std()

    def coverage(self, top_n: int) -> float:
        """Fraction of all accesses served by the ``top_n`` hottest entries."""
        if top_n <= 0:
            return 0.0
        cumulative = self._cumulative
        total = int(cumulative[-1])
        if total == 0:
            return 0.0
        return float(cumulative[min(top_n, self.n_entries)]) / total

    def hot_entries(self, n_sigma: float = 3.0) -> int:
        """Entries above mean + ``n_sigma`` * std (the paper's mu+3sigma)."""
        mu, sigma = self._moments
        return int(np.sum(self.counts > mu + n_sigma * sigma))

    def below_mean_fraction(self) -> float:
        """Fraction of entries accessed less than the mean (Fig. 8 text)."""
        return float(np.mean(self.counts < self.counts.mean()))


def profile_hotness(qt: QuantizedTensor) -> HotnessProfile:
    """Profile entry access frequency over a whole quantized tensor.

    Counts are aggregated across all scope groups and residual levels —
    the paper's "tensor level" reordering choice, justified by Fig. 9.
    """
    indices = qt.lookup_indices().ravel()
    counts = np.bincount(indices, minlength=qt.config.lookup_entries)
    order = np.argsort(-counts, kind="stable")
    return HotnessProfile(counts=counts, order=order)


def per_block_counts(
    qt: QuantizedTensor, rows_per_block: int
) -> np.ndarray:
    """Per-thread-block access counts (Fig. 9's heatmap rows).

    Splits the tensor's rows into blocks of ``rows_per_block`` (the way a
    GeMM/attention grid would) and counts lookups per entry per block.

    Returns an array of shape (n_blocks, lookup_entries).
    """
    if rows_per_block <= 0:
        raise ValueError("rows_per_block must be positive")
    indices = qt.lookup_indices()
    n_entries = qt.config.lookup_entries
    n_blocks = (qt.rows + rows_per_block - 1) // rows_per_block
    out = np.zeros((n_blocks, n_entries), dtype=np.int64)
    for b in range(n_blocks):
        block = indices[b * rows_per_block:(b + 1) * rows_per_block]
        out[b] = np.bincount(block.ravel(), minlength=n_entries)
    return out


def block_consistency(block_counts: np.ndarray, top_n: int = 32) -> float:
    """How consistently the same entries are hot across blocks.

    For each block, take its ``top_n`` hottest entries; return the mean
    Jaccard similarity between each block's hot set and the global hot
    set.  Values near 1 support the paper's tensor-level reordering
    (Fig. 9's vertical white lines).
    """
    if block_counts.ndim != 2:
        raise ValueError("block_counts must be (n_blocks, n_entries)")
    top_n = min(top_n, block_counts.shape[1])
    global_top = set(np.argsort(-block_counts.sum(axis=0))[:top_n].tolist())
    sims = []
    for row in block_counts:
        block_top = set(np.argsort(-row)[:top_n].tolist())
        union = len(global_top | block_top)
        if union == 0:
            continue
        sims.append(len(global_top & block_top) / union)
    return float(np.mean(sims)) if sims else 0.0
