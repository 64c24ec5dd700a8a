"""Codebook container tests."""

import numpy as np
import pytest

from repro.vq.codebook import Codebook, CodebookSet


def _book(n=8, v=4, element_bytes=2, seed=0):
    rng = np.random.default_rng(seed)
    return Codebook(rng.standard_normal((n, v)), element_bytes)


class TestCodebook:
    def test_shape_properties(self):
        book = _book(n=16, v=4)
        assert book.n_entries == 16
        assert book.vector_size == 4
        assert book.entry_bytes == 8
        assert book.nbytes == 128

    def test_lattice_element_bytes(self):
        book = _book(n=256, v=8, element_bytes=1)
        assert book.entry_bytes == 8
        assert book.nbytes == 2048

    def test_lookup_shape(self):
        book = _book()
        out = book.lookup(np.array([[0, 1], [2, 3]]))
        assert out.shape == (2, 2, 4)
        assert np.allclose(out[0, 1], book.entries[1])

    def test_lookup_out_of_range(self):
        book = _book(n=8)
        with pytest.raises(IndexError):
            book.lookup(np.array([8]))
        with pytest.raises(IndexError):
            book.lookup(np.array([-1]))

    def test_reorder_permutes_rows(self):
        book = _book(n=4)
        perm = np.array([2, 0, 3, 1])
        new = book.reordered(perm)
        assert np.allclose(new.entries[0], book.entries[2])
        assert np.allclose(new.entries[3], book.entries[1])

    def test_reorder_rejects_non_permutation(self):
        book = _book(n=4)
        with pytest.raises(ValueError):
            book.reordered(np.array([0, 0, 1, 2]))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Codebook(np.zeros(8))


class TestCodebookSet:
    def _set(self, groups=3, residuals=2):
        return CodebookSet([[_book(seed=g * 10 + r) for r in range(residuals)]
                            for g in range(groups)])

    def test_shape_properties(self):
        books = self._set()
        assert books.n_groups == 3
        assert books.residuals == 2
        assert books.vector_size == 4
        assert books.n_entries == 8

    def test_total_bytes(self):
        books = self._set()
        assert books.nbytes == 3 * 2 * 8 * 8  # groups * residuals * n * entry

    def test_stacked_entries(self):
        books = self._set()
        stacked = books.stacked_entries(residual=1)
        assert stacked.shape == (3, 8, 4)
        assert np.allclose(stacked[2], books.get(2, 1).entries)

    def test_ragged_residuals_rejected(self):
        with pytest.raises(ValueError):
            CodebookSet([[_book()], [_book(), _book()]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CodebookSet([])
