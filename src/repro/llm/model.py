"""Runnable Llama-architecture model and operator-shape enumeration.

Two uses:

1. *Numerics* — :class:`LlamaModel` materialises structured random
   weights (guarded to small configs; a 7B-parameter numpy model would
   need tens of GB) and runs prefill/decode exactly, optionally with VQ-
   or element-wise-quantized weights and a VQ KV cache.  The accuracy
   proxy experiments (Fig. 17 right) compare its outputs across
   quantization schemes.

2. *Latency ledger* — :func:`decode_operator_shapes`,
   :func:`prefill_operator_shapes` and
   :func:`first_token_operator_shapes` enumerate every operator of a
   decode step, a prefill chunk and a first-token sample at any model
   scale (7B/65B); this module is the one place the Llama operator set
   is spelled.  :class:`repro.serve.costs.StepCostModel` costs all
   three lists with one walk through the kernel models, for the
   serving simulator and the E2E experiments (Fig. 17 left) alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.llm.attention import attention_decode, attention_prefill
from repro.llm.config import LlamaConfig
from repro.llm.layers import apply_rope, rms_norm, rope_tables, softmax, swiglu

#: Refuse to materialise models above this parameter count.
MATERIALISE_LIMIT = 50_000_000


def structured_matrix(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    rank_fraction: float = 0.125,
    outlier_fraction: float = 0.001,
    outlier_scale: float = 8.0,
) -> np.ndarray:
    """Random matrix with LLM-weight-like structure.

    Real LLM weights are approximately low-rank with a sparse set of
    large-magnitude outliers and heavy-tailed (leptokurtic) marginals —
    exactly the structure Fig. 2 credits VQ with capturing (correlated
    dimensions) and element-wise grids with missing (outliers), and the
    structure that makes codebook-entry access frequency skewed
    (Fig. 8: near-zero centroids serve most lookups).  A pure i.i.d.
    Gaussian would erase both effects, so all model weights use this
    generator.
    """
    rank = max(1, int(min(rows, cols) * rank_fraction))
    left = rng.standard_normal((rows, rank))
    right = rng.standard_normal((rank, cols))
    base = left @ right / math.sqrt(rank)
    noise = 0.1 * rng.standard_normal((rows, cols))
    w = (base + noise) * 0.02
    # Per-row scale mixture: rows (output channels) have lognormal
    # magnitudes, giving the heavy-tailed marginal of trained weights.
    row_scale = rng.lognormal(mean=-0.5, sigma=1.0, size=(rows, 1))
    w = w * row_scale
    n_outliers = int(rows * cols * outlier_fraction)
    if n_outliers:
        idx = rng.choice(rows * cols, size=n_outliers, replace=False)
        flat = w.reshape(-1)
        flat[idx] *= outlier_scale
    return w


@dataclass
class LlamaLayerWeights:
    """Weights of one transformer layer."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_gate: np.ndarray
    w_up: np.ndarray
    w_down: np.ndarray
    attn_norm: np.ndarray
    mlp_norm: np.ndarray


class LlamaModel:
    """A numerically runnable Llama-architecture transformer."""

    def __init__(self, config: LlamaConfig, seed: int = 0):
        if config.param_count > MATERIALISE_LIMIT:
            raise ValueError(
                f"{config.name} has ~{config.param_count / 1e9:.1f}B "
                "parameters; materialise only small configs "
                "(use decode_operator_shapes for large-model analysis)"
            )
        self.config = config
        rng = np.random.default_rng(seed)
        h, inter, vocab = config.hidden, config.intermediate, config.vocab
        self.embedding = structured_matrix(rng, vocab, h)
        self.layers: List[LlamaLayerWeights] = []
        for _ in range(config.n_layers):
            self.layers.append(LlamaLayerWeights(
                wq=structured_matrix(rng, h, h),
                wk=structured_matrix(rng, h, h),
                wv=structured_matrix(rng, h, h),
                wo=structured_matrix(rng, h, h),
                w_gate=structured_matrix(rng, h, inter),
                w_up=structured_matrix(rng, h, inter),
                w_down=structured_matrix(rng, inter, h),
                attn_norm=np.ones(h),
                mlp_norm=np.ones(h),
            ))
        self.final_norm = np.ones(h)
        self.lm_head = structured_matrix(rng, h, vocab)
        self.cos, self.sin = rope_tables(8192, config.head_dim,
                                         config.rope_theta)

    # ------------------------------------------------------------------
    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, T, H*C) -> (B, H, T, C)."""
        b, t, _ = x.shape
        cfg = self.config
        return x.reshape(b, t, cfg.n_heads, cfg.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(B, H, T, C) -> (B, T, H*C)."""
        b, h, t, c = x.shape
        return x.transpose(0, 2, 1, 3).reshape(b, t, h * c)

    def forward(
        self,
        tokens: np.ndarray,
        caches: Optional[list] = None,
        weight_override: Optional[dict] = None,
    ) -> np.ndarray:
        """Run a full (prefill) forward pass.

        Parameters
        ----------
        tokens:
            Token ids, shape (B, T).
        caches:
            Optional list of per-layer KV caches to fill
            (:class:`~repro.llm.kvcache.KVCache`-compatible).
        weight_override:
            Optional mapping ``(layer_index, weight_name) -> matrix``
            substituting (de)quantized weights; used by the accuracy
            experiments to run the quantized model without duplicating
            the forward pass.

        Returns
        -------
        numpy.ndarray
            Logits, shape (B, T, vocab).
        """
        tokens = np.asarray(tokens)
        b, t = tokens.shape
        cfg = self.config
        positions = np.arange(t)
        x = self.embedding[tokens]

        for li, layer in enumerate(self.layers):
            get = self._weight_getter(li, layer, weight_override)
            attn_in = rms_norm(x, layer.attn_norm, cfg.norm_eps)
            q = self._split_heads(attn_in @ get("wq"))
            k = self._split_heads(attn_in @ get("wk"))
            v = self._split_heads(attn_in @ get("wv"))
            q = apply_rope(q, positions, self.cos, self.sin)
            k = apply_rope(k, positions, self.cos, self.sin)
            if caches is not None:
                caches[li].extend(k, v)
            attn = attention_prefill(q, k, v, causal=True)
            x = x + self._merge_heads(attn) @ get("wo")

            mlp_in = rms_norm(x, layer.mlp_norm, cfg.norm_eps)
            act = swiglu(mlp_in @ get("w_gate"), mlp_in @ get("w_up"))
            x = x + act @ get("w_down")

        x = rms_norm(x, self.final_norm, cfg.norm_eps)
        return x @ self.lm_head

    def decode_step(
        self,
        tokens: np.ndarray,
        caches: list,
        weight_override: Optional[dict] = None,
    ) -> np.ndarray:
        """Decode one token per batch element against filled caches.

        Parameters
        ----------
        tokens:
            New token ids, shape (B,).
        caches:
            Per-layer KV caches holding the context; the new token's K/V
            are appended.

        Returns
        -------
        numpy.ndarray
            Logits for the new position, shape (B, vocab).
        """
        cfg = self.config
        b = tokens.shape[0]
        position = caches[0].length
        x = self.embedding[tokens][:, None, :]

        for li, layer in enumerate(self.layers):
            get = self._weight_getter(li, layer, weight_override)
            attn_in = rms_norm(x, layer.attn_norm, cfg.norm_eps)
            q = self._split_heads(attn_in @ get("wq"))
            k = self._split_heads(attn_in @ get("wk"))
            v = self._split_heads(attn_in @ get("wv"))
            pos = np.array([position])
            q = apply_rope(q, pos, self.cos, self.sin)
            k = apply_rope(k, pos, self.cos, self.sin)
            caches[li].append(k[:, :, 0], v[:, :, 0])
            attn = attention_decode(
                q[:, :, 0], caches[li].keys, caches[li].values)
            x = x + (attn.reshape(b, 1, cfg.hidden) @ get("wo"))

            mlp_in = rms_norm(x, layer.mlp_norm, cfg.norm_eps)
            act = swiglu(mlp_in @ get("w_gate"), mlp_in @ get("w_up"))
            x = x + act @ get("w_down")

        x = rms_norm(x, self.final_norm, cfg.norm_eps)
        return (x @ self.lm_head)[:, 0]

    @staticmethod
    def _weight_getter(layer_index, layer, override):
        def get(name):
            if override is not None and (layer_index, name) in override:
                return override[(layer_index, name)]
            return getattr(layer, name)
        return get

    def perplexity(self, tokens: np.ndarray,
                   weight_override: Optional[dict] = None) -> float:
        """Teacher-forced perplexity of token sequences (B, T)."""
        logits = self.forward(tokens, weight_override=weight_override)
        logp = np.log(softmax(logits[:, :-1], axis=-1) + 1e-12)
        targets = tokens[:, 1:]
        b_idx, t_idx = np.meshgrid(
            np.arange(tokens.shape[0]), np.arange(tokens.shape[1] - 1),
            indexing="ij")
        nll = -logp[b_idx, t_idx, targets]
        return float(np.exp(np.mean(nll)))


# ----------------------------------------------------------------------
# Operator lists for the latency ledger
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OperatorShape:
    """One operator invocation in a decode step, prefill chunk or
    first-token sample.

    ``kind`` is one of ``gemv`` (weight x activations; M=batch),
    ``gemm`` (weight x a prefill chunk's M tokens), ``attention``
    (decode attention over the KV cache), ``prefill_attention`` (causal
    attention of a prefill chunk: the prompt's cost through ``seq_len``
    tokens minus its cost through the ``context`` tokens earlier chunks
    paid for) or ``elementwise`` (norms, activations, RoPE —
    bandwidth-bound passes over ``elements``).  ``count`` aggregates
    identical invocations across layers.
    """

    kind: str
    name: str
    m: int = 0
    n: int = 0
    k: int = 0
    batch: int = 0
    heads: int = 0
    seq_len: int = 0
    context: int = 0
    head_dim: int = 0
    elements: int = 0
    count: int = 1


def _layer_operators(config: LlamaConfig, kind: str, rows: int,
                     count: int) -> tuple:
    """One layer's four projections (``kind`` ``gemv`` or ``gemm`` over
    ``rows`` tokens) and its element-wise pass, each ``count`` times."""
    h, inter = config.hidden, config.intermediate
    return (
        OperatorShape(kind, "qkv_proj", m=rows, n=3 * h, k=h, count=count),
        OperatorShape(kind, "o_proj", m=rows, n=h, k=h, count=count),
        OperatorShape(kind, "gate_up_proj", m=rows, n=2 * inter, k=h,
                      count=count),
        OperatorShape(kind, "down_proj", m=rows, n=h, k=inter,
                      count=count),
        # Norms (x2), RoPE, SiLU-mul and residual adds per layer.
        OperatorShape("elementwise", "norms_rope_act",
                      elements=rows * (4 * h + 2 * inter), count=count),
    )


def _lm_head(config: LlamaConfig, batch: int) -> OperatorShape:
    return OperatorShape("gemv", "lm_head", m=batch, n=config.vocab,
                         k=config.hidden)


def decode_operator_shapes(
    config: LlamaConfig, batch: int, seq_len: int
) -> List[OperatorShape]:
    """Every operator of one decode step, aggregated across layers."""
    qkv, o, gate_up, down, elementwise = _layer_operators(
        config, "gemv", batch, config.n_layers)
    attention = OperatorShape(
        "attention", "decode_attention", batch=batch, heads=config.n_heads,
        seq_len=seq_len, head_dim=config.head_dim, count=config.n_layers)
    return [qkv, attention, o, gate_up, down, _lm_head(config, batch),
            elementwise]


def prefill_operator_shapes(
    config: LlamaConfig, tokens: int, context: int, seq_len: int
) -> List[OperatorShape]:
    """One layer of a prefill chunk of ``tokens`` prompt tokens.

    The projections run as GEMMs over the chunk.  Attention charges the
    chunk's queries over the span from ``context`` (the tokens earlier
    chunks or the prefix cache hold) to ``seq_len`` (``context +
    tokens``; a caller that buckets passes each end bucketed), so
    however a prompt is chunked its attention charges sum to the whole
    prompt's.  The LM head does not run during prefill: the first
    sampled token is :func:`first_token_operator_shapes`.
    """
    qkv, o, gate_up, down, elementwise = _layer_operators(
        config, "gemm", tokens, 1)
    attention = OperatorShape(
        "prefill_attention", "prefill_attention", batch=1,
        heads=config.n_heads, seq_len=seq_len, context=context,
        head_dim=config.head_dim)
    return [qkv, o, gate_up, down, attention, elementwise]


def first_token_operator_shapes(
    config: LlamaConfig, batch: int
) -> List[OperatorShape]:
    """Sampling the first output token of ``batch`` completed prompts:
    the LM head over their final hidden states, then a sampler pass
    (the final norm and a read of the logits)."""
    return [_lm_head(config, batch),
            OperatorShape("elementwise", "sampler",
                          elements=batch * (config.hidden + config.vocab))]
