"""Kernel workloads at Llama shapes, with cached quantized samples.

Kernel-level experiments use the *nominal* Llama-7B / Llama-65B shapes
for all counter arithmetic, but train codebooks and collect index-stream
statistics (hotness, bank conflicts) on smaller *sample* tensors — those
statistics are intensive quantities, independent of tensor size, while
quantizing a full 4096x11008 weight with 4096-entry codebooks in numpy
would dominate benchmark runtime for no accuracy gain.

Samples are cached per (algorithm, kind, seed) at two levels: an
in-process dict, and a persistent ``.npz`` store on disk — codebook
training is an *offline* artifact in the paper's pipeline, so a
benchmark process should load yesterday's codebooks, not retrain them.
The disk entry is a lossless round-trip (codes at their index width,
float32 codebook entries and the shape, byte-for-byte and dtype for
dtype; the scope group map is derived, not stored), keyed on
everything that feeds training (algorithm, seed, k-means iterations,
sample shape, numpy version), so cached and freshly trained runs are
bit-identical.  Set ``REPRO_SAMPLE_CACHE`` to relocate the store
(default ``<repo>/.benchmarks/samples``) or to ``0``/``off`` to
disable it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from repro.kernels.attention import AttentionShape
from repro.kernels.gemm import GemmShape
from repro.llm.config import LlamaConfig
from repro.llm.model import structured_matrix
from repro.vq.algorithms import canonical_name, make_quantizer
from repro.vq.codebook import Codebook, CodebookSet
from repro.vq.quantizer import QuantizedTensor

#: Sample tensor shapes: (rows, cols).  Weight samples mimic a weight
#: slice quantized along the reduction axis; attention samples mimic a
#: (tokens, heads*head_dim) KV slice with 4 heads.  The KV sample must
#: hold several times more tokens than codebook entries (256) or the
#: per-channel-group k-means degenerates to one entry per token.
WEIGHT_SAMPLE_SHAPE = (512, 1024)
KV_SAMPLE_SHAPE = (1024, 512)

_CACHE: Dict[Tuple, QuantizedTensor] = {}

#: Bumped when the on-disk sample layout changes; stale files are
#: silently retrained and overwritten.  Format 2 stores codes at their
#: index width and no group map.
_DISK_FORMAT = 2
#: ``train_sample`` both sample builders pass to the quantizer — part
#: of the disk key because it feeds codebook training.
_TRAIN_SAMPLE = 8192


def _sample_cache_dir() -> Optional[Path]:
    """Disk store location, or ``None`` when caching is disabled."""
    env = os.environ.get("REPRO_SAMPLE_CACHE")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none"):
            return None
        return Path(env)
    # src/repro/bench/workloads.py -> repository root.
    return Path(__file__).resolve().parents[3] / ".benchmarks" / "samples"


def _sample_meta(kind: str, algo: str, seed: int, kmeans_iters: int,
                 shape: Tuple[int, int]) -> dict:
    return {
        "format": _DISK_FORMAT,
        "numpy": np.__version__,
        "kind": kind,
        "algo": algo,
        "seed": seed,
        "kmeans_iters": kmeans_iters,
        "train_sample": _TRAIN_SAMPLE,
        "shape": list(shape),
    }


def _sample_path(cache_dir: Path, meta: dict) -> Path:
    slug = "".join(c if c.isalnum() or c in "-." else "_"
                   for c in meta["algo"])
    return cache_dir / (f"{meta['kind']}-{slug}-seed{meta['seed']}"
                        f"-it{meta['kmeans_iters']}.npz")


def _qt_to_arrays(prefix: str, qt: QuantizedTensor) -> dict:
    """Flatten one quantized tensor into npz-storable arrays.

    Raises when codebook entry counts are ragged across groups (cannot
    stack) — the caller then simply skips disk caching.
    """
    books = qt.codebooks.books
    entries = np.stack([np.stack([b.entries for b in group])
                        for group in books])
    element_bytes = np.array([[b.element_bytes for b in group]
                              for group in books], dtype=np.int64)
    return {
        f"{prefix}_codes": qt.codes,
        f"{prefix}_entries": entries,
        f"{prefix}_element_bytes": element_bytes,
        f"{prefix}_shape": np.array(qt.shape, dtype=np.int64),
    }


def _qt_from_arrays(prefix: str, data, config) -> QuantizedTensor:
    entries = data[f"{prefix}_entries"]
    element_bytes = data[f"{prefix}_element_bytes"]
    books = [
        [Codebook(entries[g, r], element_bytes=int(element_bytes[g, r]))
         for r in range(entries.shape[1])]
        for g in range(entries.shape[0])
    ]
    shape = tuple(int(x) for x in data[f"{prefix}_shape"])
    return QuantizedTensor(config, shape, data[f"{prefix}_codes"],
                           CodebookSet(books))


def _disk_load(meta: dict, prefixes: Tuple[str, ...], config):
    """Load sample tensors from disk, or ``None`` on any mismatch."""
    cache_dir = _sample_cache_dir()
    if cache_dir is None:
        return None
    path = _sample_path(cache_dir, meta)
    try:
        with np.load(path, allow_pickle=False) as data:
            if json.loads(str(data["meta"])) != meta:
                return None
            return tuple(_qt_from_arrays(p, data, config)
                         for p in prefixes)
    except (OSError, KeyError, ValueError):
        return None


def _disk_store(meta: dict, tensors: dict) -> None:
    """Persist sample tensors atomically; best-effort (never raises)."""
    cache_dir = _sample_cache_dir()
    if cache_dir is None:
        return
    try:
        arrays = {"meta": np.array(json.dumps(meta, sort_keys=True))}
        for prefix, qt in tensors.items():
            arrays.update(_qt_to_arrays(prefix, qt))
        cache_dir.mkdir(parents=True, exist_ok=True)
        path = _sample_path(cache_dir, meta)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".npz.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except (OSError, ValueError):
        pass


def llama_gemm_shape(config: LlamaConfig, seq_len: int = 1024) -> GemmShape:
    """Prefill projection GEMM: (seq, hidden) x (hidden, hidden)."""
    return GemmShape(m=seq_len, n=config.hidden, k=config.hidden)


def llama_gemv_shape(config: LlamaConfig, batch: int = 1) -> GemmShape:
    """Decode projection GEMV: (batch, hidden) x (hidden, hidden)."""
    return GemmShape(m=batch, n=config.hidden, k=config.hidden)


def llama_attention_shape(config: LlamaConfig, batch: int = 1,
                          seq_len: int = 1024) -> AttentionShape:
    """Decode attention over the KV cache."""
    return AttentionShape(batch=batch, heads=config.n_heads,
                          seq_len=seq_len, head_dim=config.head_dim)


def weight_sample(algo: str, seed: int = 0,
                  kmeans_iters: int = 6) -> QuantizedTensor:
    """Quantized sample weight for a named algorithm (cached)."""
    name = canonical_name(algo)
    key = ("weight", name, seed)
    if key not in _CACHE:
        q = make_quantizer(algo, seed=seed, kmeans_iters=kmeans_iters,
                           train_sample=_TRAIN_SAMPLE)
        meta = _sample_meta("weight", name, seed, kmeans_iters,
                            WEIGHT_SAMPLE_SHAPE)
        cached = _disk_load(meta, ("w",), q.config)
        if cached is not None:
            _CACHE[key] = cached[0]
        else:
            rng = np.random.default_rng(seed)
            w = structured_matrix(rng, *WEIGHT_SAMPLE_SHAPE)
            _CACHE[key] = q.quantize(w)
            _disk_store(meta, {"w": _CACHE[key]})
    return _CACHE[key]


def attention_sample(algo: str, seed: int = 0,
                     kmeans_iters: int = 6) -> Tuple[QuantizedTensor,
                                                     QuantizedTensor]:
    """Quantized (K, V) sample caches for a CQ algorithm (cached)."""
    name = canonical_name(algo)
    key = ("kv", name, seed)
    if key not in _CACHE:
        q = make_quantizer(algo, seed=seed, kmeans_iters=kmeans_iters,
                           train_sample=_TRAIN_SAMPLE)
        meta = _sample_meta("kv", name, seed, kmeans_iters,
                            KV_SAMPLE_SHAPE)
        cached = _disk_load(meta, ("k", "v"), q.config)
        if cached is not None:
            _CACHE[key] = cached
        else:
            rng = np.random.default_rng(seed + 7)
            base = structured_matrix(rng, *KV_SAMPLE_SHAPE)
            k_data = base
            v_data = (0.7 * base
                      + 0.3 * structured_matrix(rng, *KV_SAMPLE_SHAPE))
            _CACHE[key] = (q.quantize(k_data), q.quantize(v_data))
            _disk_store(meta, {"k": _CACHE[key][0], "v": _CACHE[key][1]})
    return _CACHE[key]


def clear_cache() -> None:
    """Drop all cached quantized samples (tests use this for isolation)."""
    _CACHE.clear()
