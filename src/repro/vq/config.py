"""VQ algorithm configuration.

The paper parameterises every VQ algorithm with three numbers (Tbl. I),
written ``VQ<vector_size, index_bits, residuals>``:

- *vector size*: elements quantized together into one code;
- *#Entry* = ``2 ** index_bits`` quantization points per codebook;
- *Residual*: how many rounds of residual quantization are applied.

On top of those, real algorithms differ in *scope* — which slice of a
tensor is quantized against which codebook (Sec. III-C):

- QuiP# and AQLM train one codebook (per residual) for the whole tensor;
- GPTVQ trains one codebook per (256, 256) weight tile;
- CQ trains one codebook per channel group (every ``vector_size``
  channels of every head share a codebook across all tokens).

QuiP# additionally uses a lattice codebook: 2^16 nominal entries, but
each lookup touches only 256 stored entries plus bit manipulation, and
entries are stored compactly (1 byte per element), giving the 2 KB
codebook of Tbl. V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: FP16 element size, bytes.
FP16_BYTES = 2

#: Valid codebook scopes (see module docstring).
SCOPES = ("tensor", "tile", "channel_group")


@dataclass(frozen=True)
class VQConfig:
    """One vector-quantization configuration, VQ<vector, bits, residual>."""

    name: str
    vector_size: int
    #: Bits per stored index (log2 of the nominal entry count).
    index_bits: int
    residuals: int
    #: Codebook scoping rule: ``tensor``, ``tile`` or ``channel_group``.
    scope: str = "tensor"
    #: Tile shape for ``tile`` scope (rows, cols) of a 2-D weight.
    tile_shape: tuple = (256, 256)
    #: Lattice codebook: lookups touch only ``lattice_lookup_entries``
    #: stored entries (bit tricks cover the rest), stored at 1 B/element.
    lattice: bool = False
    lattice_lookup_entries: int = 256

    def __post_init__(self):
        if self.vector_size <= 0:
            raise ValueError("vector_size must be positive")
        if not 1 <= self.index_bits <= 16:
            raise ValueError("index_bits must be in [1, 16]")
        if self.residuals < 1:
            raise ValueError("residuals must be >= 1")
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {self.scope}")

    @property
    def n_entries(self) -> int:
        """Nominal number of entries per codebook (#Entry in Tbl. I)."""
        return 1 << self.index_bits

    @property
    def code_dtype(self) -> np.dtype:
        """Storage type of one code: the narrowest unsigned integer that
        holds ``index_bits`` (``uint8`` up to 8 bits, else ``uint16``)."""
        return np.dtype(np.uint8 if self.index_bits <= 8 else np.uint16)

    @property
    def lookup_entries(self) -> int:
        """Entries actually materialised for lookup.

        Equal to :attr:`n_entries` except for lattice codebooks (QuiP#),
        which store only a small base table.
        """
        if self.lattice:
            return min(self.n_entries, self.lattice_lookup_entries)
        return self.n_entries

    @property
    def entry_element_bytes(self) -> int:
        """Bytes per stored codebook element (1 for lattice, 2 for FP16)."""
        return 1 if self.lattice else FP16_BYTES

    @property
    def entry_bytes(self) -> int:
        """Bytes of one stored codebook entry."""
        return self.vector_size * self.entry_element_bytes

    @property
    def codebook_bytes(self) -> int:
        """Bytes of one materialised codebook (one residual level)."""
        return self.lookup_entries * self.entry_bytes

    @property
    def bits_per_element(self) -> float:
        """Equivalent bits per original FP16 element."""
        return self.index_bits * self.residuals / self.vector_size

    @property
    def compression_ratio(self) -> float:
        """Compressed size as a fraction of FP16 (Tbl. II column 2)."""
        return self.bits_per_element / 16.0

    def codes_per_row(self, row_elements: int) -> int:
        """Number of sub-vector codes covering one row of the tensor."""
        if row_elements % self.vector_size:
            raise ValueError(
                f"row of {row_elements} elements is not divisible by "
                f"vector_size={self.vector_size}"
            )
        return row_elements // self.vector_size

    def quantized_bytes(self, n_elements: int) -> float:
        """Storage for the codes of ``n_elements`` original elements."""
        n_codes = n_elements / self.vector_size
        return n_codes * self.residuals * self.index_bits / 8.0

    def codebook_storage_bytes(self, rows: int, cols: int) -> int:
        """Storage for the codebooks of one ``(rows, cols)`` tensor: one
        per residual level per scope group of
        :func:`repro.vq.quantizer.scope_group_map`."""
        tile_r, tile_c = self.tile_shape
        groups = 1
        if self.scope == "channel_group":
            groups = self.codes_per_row(cols)
        elif self.scope == "tile":
            groups = -(-rows // tile_r) * -(-cols // tile_c)
        return groups * self.residuals * self.codebook_bytes

    def spec_string(self) -> str:
        """Render as the paper's VQ<x,y,z> notation."""
        return f"VQ<{self.vector_size},{self.index_bits},{self.residuals}>"

    def __str__(self) -> str:
        return f"{self.name} {self.spec_string()}"
