"""Codebook containers.

A :class:`Codebook` is one table of entries (one residual level of one
scope group).  A :class:`CodebookSet` holds all codebooks of a quantized
tensor organised as ``[group][residual]`` and knows how many bytes a
kernel must stage per group — the quantity Tbl. V calls "Codebook/block".
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np


class Codebook:
    """One table of quantization points (cluster centroids)."""

    def __init__(self, entries: np.ndarray, element_bytes: int = 2):
        entries = np.asarray(entries, dtype=np.float32)
        if entries.ndim != 2:
            raise ValueError(
                f"entries must be (n_entries, vector_size), got {entries.shape}"
            )
        self.entries = entries
        self.element_bytes = element_bytes

    @property
    def n_entries(self) -> int:
        return self.entries.shape[0]

    @property
    def vector_size(self) -> int:
        return self.entries.shape[1]

    @property
    def entry_bytes(self) -> int:
        """Storage of one entry, bytes."""
        return self.vector_size * self.element_bytes

    @property
    def nbytes(self) -> int:
        """Storage of the whole codebook, bytes."""
        return self.n_entries * self.entry_bytes

    def lookup(self, indices: np.ndarray) -> np.ndarray:
        """Gather entries: result shape = indices.shape + (vector_size,)."""
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.n_entries):
            raise IndexError(
                f"index out of range for codebook with {self.n_entries} entries"
            )
        return self.entries[indices]

    def reordered(self, permutation: np.ndarray) -> "Codebook":
        """Return a codebook with rows permuted (old index -> new row).

        ``permutation[new_index] = old_index``; used by the codebook
        cache's frequency reordering.
        """
        permutation = np.asarray(permutation)
        if sorted(permutation.tolist()) != list(range(self.n_entries)):
            raise ValueError("permutation must be a permutation of all entries")
        return Codebook(self.entries[permutation], self.element_bytes)


class CodebookSet:
    """All codebooks of one quantized tensor: ``books[group][residual]``."""

    def __init__(self, books: Sequence[Sequence[Codebook]]):
        if not books or not books[0]:
            raise ValueError("CodebookSet needs at least one codebook")
        residuals = len(books[0])
        for group in books:
            if len(group) != residuals:
                raise ValueError("all groups must have the same residual count")
        self.books: List[List[Codebook]] = [list(g) for g in books]

    @property
    def n_groups(self) -> int:
        return len(self.books)

    @property
    def residuals(self) -> int:
        return len(self.books[0])

    @property
    def vector_size(self) -> int:
        return self.books[0][0].vector_size

    @property
    def n_entries(self) -> int:
        return self.books[0][0].n_entries

    def get(self, group: int, residual: int) -> Codebook:
        return self.books[group][residual]

    @property
    def nbytes(self) -> int:
        """Total codebook storage across all groups and residuals."""
        return sum(book.nbytes for group in self.books for book in group)

    def stacked_entries(self, residual: int = 0) -> np.ndarray:
        """Entries of one residual level stacked as (groups, entries, dim)."""
        return np.stack([g[residual].entries for g in self.books])
