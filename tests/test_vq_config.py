"""VQConfig and Tbl. II preset tests."""

import pytest

from repro.vq.algorithms import ALGORITHMS, canonical_name, make_config
from repro.vq.config import VQConfig


class TestVQConfig:
    def test_spec_string(self):
        cfg = VQConfig("x", vector_size=4, index_bits=8, residuals=2)
        assert cfg.spec_string() == "VQ<4,8,2>"

    def test_entries_from_bits(self):
        cfg = VQConfig("x", vector_size=4, index_bits=8, residuals=1)
        assert cfg.n_entries == 256

    def test_bits_per_element(self):
        cfg = VQConfig("x", vector_size=4, index_bits=8, residuals=2)
        assert cfg.bits_per_element == pytest.approx(4.0)

    def test_codebook_bytes_fp16(self):
        cfg = VQConfig("x", vector_size=4, index_bits=8, residuals=1)
        assert cfg.entry_bytes == 8
        assert cfg.codebook_bytes == 256 * 8

    def test_lattice_lookup_entries(self):
        cfg = VQConfig("q", vector_size=8, index_bits=16, residuals=2,
                       lattice=True)
        assert cfg.n_entries == 65536
        assert cfg.lookup_entries == 256
        assert cfg.entry_element_bytes == 1
        assert cfg.codebook_bytes == 2048  # the paper's 2 KB

    @pytest.mark.parametrize("bits,dtype", [(1, "uint8"), (8, "uint8"),
                                            (9, "uint16"), (16, "uint16")])
    def test_code_dtype_is_index_width(self, bits, dtype):
        cfg = VQConfig("x", vector_size=4, index_bits=bits, residuals=1)
        assert cfg.code_dtype == dtype

    def test_quantized_bytes(self):
        cfg = VQConfig("x", vector_size=4, index_bits=8, residuals=1)
        # 1024 elements -> 256 codes x 1 byte.
        assert cfg.quantized_bytes(1024) == 256

    def test_codes_per_row(self):
        cfg = VQConfig("x", vector_size=4, index_bits=8, residuals=1)
        assert cfg.codes_per_row(128) == 32
        with pytest.raises(ValueError):
            cfg.codes_per_row(130)

    @pytest.mark.parametrize("bad", [
        dict(vector_size=0, index_bits=8, residuals=1),
        dict(vector_size=4, index_bits=0, residuals=1),
        dict(vector_size=4, index_bits=17, residuals=1),
        dict(vector_size=4, index_bits=8, residuals=0),
        dict(vector_size=4, index_bits=8, residuals=1, scope="bogus"),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            VQConfig("bad", **bad)


class TestTable2Presets:
    """The exact rows of Tbl. II."""

    @pytest.mark.parametrize("name,ratio,vector,entries,residuals", [
        ("quip#-4", 0.25, 8, 65536, 2),
        ("aqlm-3", 0.1875, 8, 4096, 2),
        ("gptvq-2", 0.125, 4, 256, 1),
        ("cq-4", 0.25, 2, 256, 1),
        ("cq-2", 0.125, 4, 256, 1),
    ])
    def test_config_matches_paper(self, name, ratio, vector, entries,
                                  residuals):
        cfg = ALGORITHMS[name]
        assert cfg.compression_ratio == pytest.approx(ratio)
        assert cfg.vector_size == vector
        assert cfg.n_entries == entries
        assert cfg.residuals == residuals

    def test_scopes(self):
        assert ALGORITHMS["quip#-4"].scope == "tensor"
        assert ALGORITHMS["aqlm-3"].scope == "tensor"
        assert ALGORITHMS["gptvq-2"].scope == "tile"
        assert ALGORITHMS["cq-2"].scope == "channel_group"

    def test_gptvq_tile_shape(self):
        assert ALGORITHMS["gptvq-2"].tile_shape == (256, 256)

    def test_only_quip_is_lattice(self):
        assert ALGORITHMS["quip#-4"].lattice
        assert not any(ALGORITHMS[k].lattice for k in ALGORITHMS
                       if k != "quip#-4")

    def test_aqlm_misaligned_12bit(self):
        assert ALGORITHMS["aqlm-3"].index_bits == 12

    def test_canonical_name_aliases(self):
        assert canonical_name("QuiP#-4") == "quip#-4"
        assert canonical_name("CQ2") == "cq-2"
        assert canonical_name("aqlm_3") == "aqlm-3"
        with pytest.raises(KeyError):
            canonical_name("nonexistent-vq")

    def test_make_config_returns_preset(self):
        assert make_config("gptvq-2") is ALGORITHMS["gptvq-2"]
