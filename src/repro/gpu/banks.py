"""Shared-memory bank-conflict model.

The paper observes (Sec. III) that codebook dequantization produces
random accesses into a table whose entry count (e.g. 256) far exceeds the
32 shared-memory banks, and whose entries each span several banks, so a
warp's 32 simultaneous lookups collide heavily and serialize.

We model this mechanically: a warp issues one lookup per lane; the entry
with index ``i`` occupies ``ceil(entry_bytes / 4)`` consecutive 4-byte
words starting at word ``i * words_per_entry``; a bank services one
distinct word per cycle, with same-word accesses broadcast for free.  The
number of *replays* for the warp is ``max over banks of distinct words
requested in that bank`` minus one.

Because the index stream comes from real quantized data (k-means cluster
assignments, which are naturally skewed), the model reproduces the
observation that register-caching the few hottest entries removes most of
the conflicts (optimization O2).

:func:`warp_conflict_degree` counts word by word and is the reference.
:meth:`BankConflictModel.average_degree` counts at the entry level:
distinct entries own disjoint words, so it deduplicates each sampled
warp's ``warp_size`` lanes with one sort, counts distinct entries per
start bank with ``np.bincount``, and spreads each count over the
entry's ``words_per_entry`` banks.  All counts are integers, so the two
agree exactly.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.gpu.spec import GPUSpec


def warp_conflict_degree(
    lane_indices: Sequence[int],
    entry_bytes: int,
    banks: int = 32,
    bank_bytes: int = 4,
) -> int:
    """Transactions needed to service one warp's codebook lookups.

    Parameters
    ----------
    lane_indices:
        Entry index requested by each lane of the warp (length <= 32).
    entry_bytes:
        Size of one codebook entry in bytes.
    banks, bank_bytes:
        Bank geometry (32 x 4 B on all modelled chips).

    Returns
    -------
    int
        Number of shared-memory transactions the warp's access is split
        into (1 = conflict-free).  Lanes requesting the same word are
        broadcast and do not conflict.
    """
    if entry_bytes <= 0:
        raise ValueError("entry_bytes must be positive")
    words_per_entry = max(1, math.ceil(entry_bytes / bank_bytes))
    words_per_bank: dict = {}
    for index in lane_indices:
        base = int(index) * words_per_entry
        for w in range(words_per_entry):
            word = base + w
            bank = word % banks
            words_per_bank.setdefault(bank, set()).add(word)
    if not words_per_bank:
        return 0
    return max(len(words) for words in words_per_bank.values())


class BankConflictModel:
    """Estimates average conflict degree for a stream of entry indices.

    The estimate samples warps from the index stream exactly as the
    dequantization loop would group them: 32 consecutive lookups form one
    warp access.  ``None`` entries mark lanes whose lookup was served from
    the register cache (optimization O2) and therefore do not touch
    shared memory.
    """

    def __init__(self, spec: GPUSpec, entry_bytes: int):
        if entry_bytes <= 0:
            raise ValueError("entry_bytes must be positive")
        self.spec = spec
        self.entry_bytes = entry_bytes

    def average_degree(
        self,
        index_stream: np.ndarray,
        register_resident: int = 0,
        shared_resident: Optional[int] = None,
        max_warps: int = 1024,
        seed: int = 0,
    ) -> float:
        """Average transactions per warp-access over the stream.

        Parameters
        ----------
        index_stream:
            1-D array of codebook entry indices in dequantization order.
            Indices are assumed *frequency-reordered* (hottest = 0), as
            produced by :class:`repro.core.cache.CodebookCache`.
        register_resident:
            Entries with index below this bound live in registers and do
            not generate shared-memory traffic.
        shared_resident:
            Entries with index at or above this bound live in global
            memory and likewise bypass shared memory.  ``None`` means all
            remaining entries are shared-resident.
        max_warps:
            Cap on sampled warps, for speed; sampling is deterministic.

        Returns
        -------
        float
            Mean transactions per warp among warps that touched shared
            memory at all; 0.0 if none did.
        """
        stream = np.asarray(index_stream).ravel()
        if stream.size == 0:
            return 0.0
        warp = self.spec.warp_size
        n_warps = stream.size // warp
        if n_warps == 0:
            lanes = self._shared_lanes(stream, register_resident,
                                       shared_resident)
            if not lanes:
                return 0.0
            return float(warp_conflict_degree(
                lanes, self.entry_bytes, self.spec.smem_banks,
                self.spec.smem_bank_bytes))

        if n_warps > max_warps:
            rng = np.random.default_rng(seed)
            chosen = rng.choice(n_warps, size=max_warps, replace=False)
        else:
            chosen = np.arange(n_warps)

        # Vectorized replica of the per-warp
        # :func:`warp_conflict_degree` loop: all arithmetic is integer
        # (entry ids, bank ids, distinct counts), so the result is
        # bit-identical to the scalar path — which remains the
        # reference the property tests compare against.
        banks = self.spec.smem_banks
        wpe = max(1, math.ceil(self.entry_bytes
                               / self.spec.smem_bank_bytes))
        entries = stream[:n_warps * warp].reshape(n_warps, warp)[
            chosen].astype(np.int64, copy=False)
        mask = entries >= register_resident
        if shared_resident is not None:
            mask &= entries < shared_resident
        touched = mask.any(axis=1)
        if not touched.any():
            return 0.0
        # Distinct entries own disjoint words, so a warp's distinct
        # words are the words of its distinct entries.  Deduplicate the
        # lanes: masked ones collapse to sentinel -1 (``entries`` is a
        # gathered copy, not a view of the stream), and a row sort makes
        # duplicates adjacent.
        entries[~mask] = -1
        entries.sort(axis=1)
        uniq = entries >= 0
        uniq[:, 1:] &= entries[:, 1:] != entries[:, :-1]
        # Entry ``i``'s words fill ``wpe`` consecutive banks from bank
        # ``i * wpe % banks``, wrapping around.  Count distinct entries
        # per start bank (duplicates land in a spare last column), then
        # sum the ``wpe`` rotations to get distinct words per bank.
        n_chosen = entries.shape[0]
        start = np.where(uniq, entries * wpe % banks, banks)
        start += np.arange(0, n_chosen * (banks + 1), banks + 1)[:, None]
        per_start = np.bincount(
            start.ravel(), minlength=n_chosen * (banks + 1)).reshape(
                n_chosen, banks + 1)[:, :banks]
        counts = per_start.copy()
        for shift in range(1, wpe):
            counts += np.roll(per_start, shift, axis=1)
        return float(np.mean(counts.max(axis=1)[touched]))

    def _shared_lanes(
        self,
        warp_indices: np.ndarray,
        register_resident: int,
        shared_resident: Optional[int],
    ) -> list:
        """Indices in one warp that are served from shared memory."""
        lanes = []
        for index in warp_indices:
            i = int(index)
            if i < register_resident:
                continue
            if shared_resident is not None and i >= shared_resident:
                continue
            lanes.append(i)
        return lanes
