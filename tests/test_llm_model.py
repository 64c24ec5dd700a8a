"""Transformer model tests (tiny config)."""

import numpy as np
import pytest

from repro.llm.config import LlamaConfig, llama_7b, llama_65b, tiny_llama
from repro.llm.kvcache import KVCache
from repro.llm.model import (
    LlamaModel,
    decode_operator_shapes,
    first_token_operator_shapes,
    prefill_operator_shapes,
    structured_matrix,
)


@pytest.fixture(scope="module")
def model():
    return LlamaModel(tiny_llama(), seed=0)


class TestConfig:
    def test_presets_shapes(self):
        assert llama_7b().hidden == 4096
        assert llama_7b().n_heads == 32
        assert llama_65b().hidden == 8192
        assert llama_65b().n_layers == 80

    def test_param_counts(self):
        assert 6e9 < llama_7b().param_count < 8e9
        assert 60e9 < llama_65b().param_count < 70e9

    def test_hidden_consistency_enforced(self):
        with pytest.raises(ValueError):
            LlamaConfig("bad", hidden=100, n_layers=1, n_heads=3,
                        head_dim=32, intermediate=64, vocab=100)


class TestStructuredMatrix:
    def test_heavy_tails(self):
        rng = np.random.default_rng(0)
        w = structured_matrix(rng, 256, 256)
        flat = w.ravel()
        kurtosis = np.mean((flat - flat.mean()) ** 4) / flat.var() ** 2
        assert kurtosis > 4.0  # leptokurtic, unlike a Gaussian's 3

    def test_low_rank_structure(self):
        rng = np.random.default_rng(1)
        w = structured_matrix(rng, 128, 128)
        s = np.linalg.svd(w, compute_uv=False)
        # Leading singular values dominate.
        assert s[:16].sum() / s.sum() > 0.4


class TestModel:
    def test_materialise_guard(self):
        with pytest.raises(ValueError):
            LlamaModel(llama_7b())

    def test_forward_shape(self, model):
        tokens = np.arange(12).reshape(2, 6)
        logits = model.forward(tokens)
        assert logits.shape == (2, 6, model.config.vocab)
        assert np.all(np.isfinite(logits))

    def test_forward_deterministic(self, model):
        tokens = np.arange(8).reshape(1, 8)
        assert np.allclose(model.forward(tokens), model.forward(tokens))

    def test_decode_matches_prefill(self, model):
        """Incremental decode reproduces the full forward pass."""
        rng = np.random.default_rng(3)
        tokens = rng.integers(0, model.config.vocab, size=(1, 6))
        full_logits = model.forward(tokens)

        cfg = model.config
        caches = [KVCache(1, cfg.n_heads, cfg.head_dim, 16)
                  for _ in range(cfg.n_layers)]
        model.forward(tokens[:, :-1], caches=caches)
        step_logits = model.decode_step(tokens[:, -1], caches)
        assert np.allclose(step_logits, full_logits[:, -1], atol=1e-8)

    def test_weight_override_changes_output(self, model):
        tokens = np.arange(6).reshape(1, 6)
        base = model.forward(tokens)
        override = {(0, "wq"): np.zeros_like(model.layers[0].wq)}
        changed = model.forward(tokens, weight_override=override)
        assert not np.allclose(base, changed)

    def test_perplexity_positive(self, model):
        tokens = np.arange(10).reshape(1, 10)
        ppl = model.perplexity(tokens)
        assert ppl > 1.0
        assert np.isfinite(ppl)


class TestOperatorShapes:
    def test_decode_ledger_covers_all_projections(self):
        shapes = decode_operator_shapes(llama_7b(), batch=16, seq_len=1024)
        names = {s.name for s in shapes}
        assert {"qkv_proj", "o_proj", "gate_up_proj", "down_proj",
                "lm_head", "decode_attention"} <= names

    def test_gemv_weight_volume_matches_params(self):
        cfg = llama_7b()
        shapes = decode_operator_shapes(cfg, batch=1, seq_len=128)
        weight_elems = sum(s.n * s.k * s.count for s in shapes
                           if s.kind == "gemv" and s.name != "lm_head")
        per_layer = 4 * cfg.hidden ** 2 + 3 * cfg.hidden * cfg.intermediate
        assert weight_elems == cfg.n_layers * per_layer

    def test_attention_shape_fields(self):
        shapes = decode_operator_shapes(llama_7b(), batch=4, seq_len=2048)
        attn = [s for s in shapes if s.kind == "attention"][0]
        assert attn.batch == 4
        assert attn.seq_len == 2048
        assert attn.heads == 32
        assert attn.count == 32

    def test_prefill_layer_runs_the_decode_projections_as_gemms(self):
        cfg = llama_7b()
        decode = {s.name: (s.n, s.k)
                  for s in decode_operator_shapes(cfg, batch=4, seq_len=128)
                  if s.kind == "gemv" and s.name != "lm_head"}
        shapes = prefill_operator_shapes(cfg, 256, context=512, seq_len=768)
        assert {s.name: (s.n, s.k) for s in shapes
                if s.kind == "gemm"} == decode
        assert {s.m for s in shapes if s.kind == "gemm"} == {256}
        attn, = [s for s in shapes if s.kind == "prefill_attention"]
        assert (attn.context, attn.seq_len, attn.heads) == (512, 768, 32)
        # One layer, and no LM head: prefill samples nothing.
        assert all(s.count == 1 for s in shapes)
        assert "lm_head" not in {s.name for s in shapes}

    def test_first_token_samples_through_the_lm_head(self):
        cfg = llama_7b()
        head, sampler = first_token_operator_shapes(cfg, batch=8)
        assert (head.kind, head.name, head.m, head.n, head.k) == (
            "gemv", "lm_head", 8, cfg.vocab, cfg.hidden)
        assert sampler.elements == 8 * (cfg.hidden + cfg.vocab)
