"""Compute engine: runs generated kernels and aggregates comparisons.

The engine is a convenience layer over the generator for the evaluation
harness: it sweeps optimization levels, compares against FP16 and
element-wise baselines, and computes the latency-reduction metrics the
paper reports (reduction vs GC, speedup vs FP16).

It also exposes the **memoized batch-latency API**
(:meth:`ComputeEngine.batch_latency_us`): one entry point covering the
FP16, element-wise-quantized and fused-VQ kernel families, backed by a
per-engine LRU cache keyed on (operation, workload shape, level,
quantized tensors).  The cache is what lets the serving simulator
(:mod:`repro.serve`) step through thousands of decode iterations —
generating and costing a kernel is milliseconds, a cache hit is a dict
lookup.  Each engine is bound to one :class:`~repro.gpu.spec.GPUSpec`,
so the spec is an implicit part of every cache key.

Below the latency memo, the engine's generator keeps one
:class:`~repro.kernels.vq_fused.CodebookStats` memo (hotness profiles
and bank-conflict degrees per tensor) and one resource slack per
operation.  All of them live and die with the engine: a fresh engine
costs every kernel family cold, and nothing is cached at module level,
on disk, or on the tensors.

See ``docs/architecture.md`` for where the engine sits in the
VQConfig -> quantizer -> codegen -> cost model -> engine -> serve flow.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.codegen import GeneratedKernel, VQLLMCodeGenerator
from repro.gpu.costmodel import CostModel
from repro.gpu.spec import GPUSpec
from repro.kernels.attention import (
    AttentionShape,
    FlashDecodingKernel,
    FlashPrefillKernel,
)
from repro.kernels.base import KernelBase
from repro.kernels.elementwise import (
    ElementwiseAttentionKernel,
    ElementwiseGemmKernel,
    ElementwiseGemvKernel,
)
from repro.kernels.gemm import FP16GemmKernel, FP16GemvKernel, GemmShape
from repro.vq.quantizer import QuantizedTensor

#: Operations understood by :meth:`ComputeEngine.batch_latency_us`.
OPERATIONS = ("gemm", "gemv", "attention", "prefill_attention")

#: Default capacity of the per-engine latency memo.
DEFAULT_MEMO_SIZE = 4096


@dataclass
class LevelSweep:
    """Latency of every optimization level for one kernel workload."""

    name: str
    latencies_us: Dict[str, float]

    @property
    def best_level(self) -> str:
        return min(self.latencies_us, key=self.latencies_us.get)

    @property
    def best_us(self) -> float:
        return self.latencies_us[self.best_level]

    def reduction_vs(self, baseline: str = "GC") -> float:
        """Latency reduction of the best level vs a baseline level."""
        base = self.latencies_us[baseline]
        return 1.0 - self.best_us / base

    def reduction_of(self, level: str, baseline: str = "GC") -> float:
        """Latency reduction of one level vs a baseline level.

        Raises :class:`KeyError` if either level was not swept.
        """
        return 1.0 - self.latencies_us[level] / self.latencies_us[baseline]


class _LatencyMemo:
    """A small LRU cache for modelled latencies.

    Entries keep a strong reference to the quantized tensors of their
    key, so the ``id()``-based tensor keys stay valid for as long as the
    entry lives (CPython only recycles an id after the object is
    collected).
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[Tuple, Tuple[float, tuple]]" = OrderedDict()

    def get(self, key: Tuple) -> Optional[float]:
        if key in self._data:
            self.hits += 1
            self._data.move_to_end(key)
            return self._data[key][0]
        self.misses += 1
        return None

    def put(self, key: Tuple, value: float, pinned: tuple) -> None:
        self._data[key] = (value, pinned)
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0


class ComputeEngine:
    """Runs generated kernels and baselines on one GPU spec."""

    def __init__(self, spec: GPUSpec, memo_size: int = DEFAULT_MEMO_SIZE):
        self.spec = spec
        self.generator = VQLLMCodeGenerator(spec)
        self.cost_model = CostModel(spec)
        self._memo = _LatencyMemo(memo_size)

    def latency_us(self, kernel) -> float:
        """Modelled latency of a kernel or generated kernel."""
        if isinstance(kernel, GeneratedKernel):
            return kernel.latency_us()
        if isinstance(kernel, KernelBase):
            return kernel.latency_us(self.spec)
        raise TypeError(f"cannot time object of type {type(kernel)!r}")

    def sweep(self, generate_fn, *args, name: str = "", **kwargs) -> LevelSweep:
        """Latency for every Tbl. IV level of one workload."""
        kernels = self.generator.sweep_levels(generate_fn, *args, **kwargs)
        latencies = {level: k.latency_us() for level, k in kernels.items()}
        return LevelSweep(name=name or "sweep", latencies_us=latencies)

    def compare(self, kernels: dict) -> dict:
        """Latency (us) for a dict of named kernels."""
        return {name: self.latency_us(k) for name, k in kernels.items()}

    # ------------------------------------------------------------------
    # Memoized batch-latency API
    # ------------------------------------------------------------------
    @staticmethod
    def _qt_key(qt: Optional[QuantizedTensor]) -> Optional[tuple]:
        """Cache-key component for a quantized tensor.

        ``id()`` distinguishes distinct tensors; config name and shape
        are included so a key is still meaningfully unequal if an id is
        ever compared across engines.  The memo pins the tensor, which
        keeps the id from being recycled while the entry is alive.
        """
        if qt is None:
            return None
        return (id(qt), qt.config.name, qt.shape)

    def batch_latency_us(
        self,
        operation: str,
        shape,
        qt: Optional[QuantizedTensor] = None,
        qt_v: Optional[QuantizedTensor] = None,
        level: str = "O4",
        bits: Optional[int] = None,
    ) -> float:
        """Memoized modelled latency of one batched operator.

        Parameters
        ----------
        operation:
            ``"gemm"`` / ``"gemv"`` (``shape`` is a
            :class:`~repro.kernels.gemm.GemmShape`), ``"attention"``
            (decode attention; :class:`~repro.kernels.attention.AttentionShape`)
            or ``"prefill_attention"`` (causal prefill over the same
            shape; FP16 only — prefill writes the cache, it does not
            dequantize it).
        qt, qt_v:
            Quantized operands.  ``qt`` alone selects the fused-VQ
            weight kernels; attention additionally takes the value-cache
            tensor ``qt_v`` (defaults to ``qt``).  ``None`` with
            ``bits=None`` selects the FP16 baseline.
        level:
            Tbl. IV optimization level for fused-VQ kernels.
        bits:
            Element-wise-quantized baseline at this bit width (mutually
            exclusive with ``qt``).

        Results are cached in a per-engine LRU keyed on every parameter
        above; the engine's GPU spec is implicit in the key because the
        cache is per-engine.
        """
        if operation not in OPERATIONS:
            raise ValueError(f"unknown operation {operation!r}; "
                             f"expected one of {OPERATIONS}")
        if qt is not None and bits is not None:
            raise ValueError("qt and bits are mutually exclusive")
        if qt_v is not None and qt is None:
            raise ValueError("qt_v without qt: pass the key-cache tensor "
                             "as qt (attention needs both)")
        if operation == "attention" and qt is not None and qt_v is None:
            qt_v = qt
        key = (operation, shape, level if qt is not None else None, bits,
               self._qt_key(qt), self._qt_key(qt_v))
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = self._compute_latency_us(operation, shape, qt, qt_v,
                                         level, bits)
        self._memo.put(key, value, (qt, qt_v))
        return value

    def _compute_latency_us(self, operation, shape, qt, qt_v, level,
                            bits) -> float:
        if operation in ("gemm", "gemv"):
            if not isinstance(shape, GemmShape):
                raise TypeError(f"{operation} expects a GemmShape, "
                                f"got {type(shape)!r}")
            if qt is not None:
                generate = (self.generator.generate_gemm
                            if operation == "gemm"
                            else self.generator.generate_gemv)
                return generate(shape, qt, level=level).latency_us()
            if bits is not None:
                cls = (ElementwiseGemmKernel if operation == "gemm"
                       else ElementwiseGemvKernel)
                return cls(shape, bits=bits).latency_us(self.spec)
            cls = FP16GemmKernel if operation == "gemm" else FP16GemvKernel
            return cls(shape).latency_us(self.spec)
        if not isinstance(shape, AttentionShape):
            raise TypeError(f"{operation} expects an AttentionShape, "
                            f"got {type(shape)!r}")
        if operation == "prefill_attention":
            if qt is not None or bits is not None:
                raise ValueError("prefill attention is FP16 only: the "
                                 "prefill step writes the cache rather "
                                 "than dequantizing it")
            return FlashPrefillKernel(shape).latency_us(self.spec)
        if qt is not None:
            return self.generator.generate_attention(
                shape, qt, qt_v, level=level).latency_us()
        if bits is not None:
            return ElementwiseAttentionKernel(
                shape, bits=bits).latency_us(self.spec)
        return FlashDecodingKernel(shape).latency_us(self.spec)

    def memo_info(self) -> dict:
        """Hit/miss/size statistics of the latency memo."""
        return {
            "hits": self._memo.hits,
            "misses": self._memo.misses,
            "currsize": len(self._memo),
            "maxsize": self._memo.maxsize,
        }

    def memo_clear(self) -> None:
        """Drop every cached latency, and the generator's codebook
        statistics and slack with it (tests use this for isolation)."""
        self._memo.clear()
        self.generator = VQLLMCodeGenerator(self.spec)
