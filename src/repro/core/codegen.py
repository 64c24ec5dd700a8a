"""The VQ-LLM code generator (Fig. 7's top-level flow).

``VQLLMCodeGenerator.generate(...)`` takes a computation (kind + shape),
a quantized tensor (or KV pair), and a target GPU, and produces a
:class:`GeneratedKernel`: the adaptive heuristics pick every parameter
(cache boundaries from slack, dataflow, fusion level), and the result
can report modelled counters/latency and execute numerically.  Its
template and CUDA-like source are assembled on first access, because a
latency needs neither.

A generator owns two memos, both shared by every kernel it builds:

- one :class:`~repro.kernels.vq_fused.CodebookStats`, so each tensor's
  hotness profile and each conflict degree is computed once per
  generator, not once per shape and candidate (the degree itself is
  counted per distinct entry, see :mod:`repro.gpu.banks`);
- one :class:`~repro.core.slack.ResourceSlack` per operation, because
  slack depends on the spec and the operation's base resources only.

The winning candidate's counters are kept on the
:class:`GeneratedKernel`, which never re-costs its kernel.

Ablation levels (Tbl. IV) are first-class: ``level="GC"`` ...
``level="O4"`` (default, the full VQ-LLM configuration), so the
breakdown experiments generate each level through the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.cache import CacheBoundaries
from repro.core.emitter import emit_cuda
from repro.core.heuristics import LEVELS, PlanKnobs, choose_knobs
from repro.core.hotness import HotnessProfile
from repro.core.slack import ResourceSlack, find_slack
from repro.core.template import BASE_RESOURCES, KernelTemplate, build_template
from repro.gpu.costmodel import CostModel
from repro.gpu.counters import PerfCounters
from repro.gpu.spec import GPUSpec
from repro.kernels.attention import AttentionShape
from repro.kernels.base import KernelBase, KernelResult
from repro.kernels.gemm import GemmShape
from repro.kernels.vq_fused import (
    CodebookStats,
    VQAttentionKernel,
    VQGemmKernel,
    VQGemvKernel,
)
from repro.vq.config import VQConfig
from repro.vq.quantizer import QuantizedTensor


@dataclass
class GeneratedKernel:
    """A fused kernel produced by the generator.

    The template and the emitted source are built on first access:
    costing reads only the counters, so a caller that only wants a
    latency never pays for them.
    """

    operation: str
    config: VQConfig
    knobs: PlanKnobs
    kernel: object
    spec: GPUSpec
    #: Counters of the selected candidate, occupancy already resolved
    #: by the cost model that ranked it.
    perf: PerfCounters
    #: Resource slack of the operation's base shape (Fig. 10).
    slack: ResourceSlack

    @cached_property
    def template(self) -> KernelTemplate:
        template = build_template(self.operation, self.config, self.knobs)
        template.slack = self.slack
        return template

    @cached_property
    def source(self) -> str:
        return emit_cuda(self.template)

    @property
    def name(self) -> str:
        return f"{self.kernel.name}-{self.config.name}-{self.knobs.label}"

    def counters(self) -> PerfCounters:
        return self.perf

    def latency_us(self) -> float:
        return CostModel(self.spec).latency(self.perf).total_us

    def result(self, run_numerics: bool = False) -> KernelResult:
        return self.kernel.result(self.spec, run_numerics=run_numerics)

    def execute(self):
        return self.kernel.execute()

    def describe(self) -> dict:
        return self.template.describe()


class VQLLMCodeGenerator:
    """Generates fused VQ kernels for a target GPU."""

    def __init__(self, spec: GPUSpec):
        self.spec = spec
        #: Shape-independent codebook statistics of every tensor this
        #: generator has costed (see the module docstring).
        self.stats = CodebookStats()
        self._slack: Dict[str, ResourceSlack] = {}

    def slack(self, operation: str) -> ResourceSlack:
        """Resource slack of ``operation``'s base shape, searched once
        per generator (it depends on the spec and the operation only)."""
        slack = self._slack.get(operation)
        if slack is None:
            base = BASE_RESOURCES[operation]
            slack = self._slack[operation] = find_slack(
                self.spec, base["threads"], base["regs"], base["smem"])
        return slack

    @staticmethod
    def _resident_books(operation: str, config, shape,
                        dataflow: bool) -> int:
        """Distinct codebooks one block keeps resident simultaneously.

        Under the codebook-centric dataflow (O3+), a block owns a single
        codebook (Fig. 11), which is what lets the cache hold every
        entry of CQ's per-channel-group books in shared memory.
        """
        if operation == "attention":
            if dataflow:
                return 1
            return max(1, shape.head_dim // config.vector_size)
        if config.scope == "tensor":
            if dataflow:
                return 1
            return 1 if config.lattice else config.residuals
        if config.scope == "tile":
            tile_r, tile_c = config.tile_shape
            block_n = 128
            return max(1, math.ceil(block_n / tile_r)
                       * math.ceil(shape.k / tile_c) * config.residuals)
        return 1

    def _knob_candidates(self, operation: str, config,
                         profile: HotnessProfile, level: str,
                         shape) -> list:
        """Candidate knob sets for one level.

        For hierarchical levels the paper "adaptively determine[s] the
        optimal placement of entries": we evaluate both the slack-sized
        cache (occupancy-preserving, may leave a cold tail in global
        memory) and the full cache (no cold misses, may cost resident
        blocks) and let the generator keep whichever models faster.
        """
        slack = self.slack(operation)
        dataflow = level.upper() in ("O3", "O4")
        resident = self._resident_books(operation, config, shape, dataflow)
        primary = choose_knobs(level, config, profile, slack,
                               resident_books=resident)
        if primary.boundaries is None:
            return [primary]
        candidates = [primary]
        if primary.boundaries.n_shared < config.lookup_entries:
            full = CacheBoundaries(primary.boundaries.n_reg,
                                   config.lookup_entries)
            candidates.append(choose_knobs(
                level, config, profile, slack, resident_books=resident,
                boundaries_override=full))
        return candidates

    def generate_gemm(self, shape: GemmShape, qt: QuantizedTensor,
                      level: str = "O4",
                      a: Optional[np.ndarray] = None) -> GeneratedKernel:
        """Generate a fused VQ-GeMM kernel."""
        return self._generate_weight_kernel("gemm", VQGemmKernel, shape,
                                            qt, level, a)

    def generate_gemv(self, shape: GemmShape, qt: QuantizedTensor,
                      level: str = "O4",
                      a: Optional[np.ndarray] = None) -> GeneratedKernel:
        """Generate a fused VQ-GeMV kernel."""
        return self._generate_weight_kernel("gemv", VQGemvKernel, shape,
                                            qt, level, a)

    def _generate_weight_kernel(self, operation, kernel_cls, shape, qt,
                                level, a) -> GeneratedKernel:
        return self._select(
            operation, shape, level, qt,
            lambda knobs: kernel_cls(shape, qt, knobs, stats=self.stats,
                                     a=a))

    def generate_attention(
        self,
        shape: AttentionShape,
        qt_k: QuantizedTensor,
        qt_v: QuantizedTensor,
        level: str = "O4",
        q: Optional[np.ndarray] = None,
        k_cache: Optional[np.ndarray] = None,
        v_cache: Optional[np.ndarray] = None,
    ) -> GeneratedKernel:
        """Generate a fused VQ decode-attention kernel."""
        return self._select(
            "attention", shape, level, qt_k,
            lambda knobs: VQAttentionKernel(
                shape, qt_k, qt_v, knobs, stats=self.stats,
                q=q, k_cache=k_cache, v_cache=v_cache))

    def _select(self, operation: str, shape, level: str,
                qt: QuantizedTensor,
                build: Callable[[PlanKnobs], KernelBase]) -> GeneratedKernel:
        """Cost each candidate kernel once and wrap the fastest.

        Candidate knobs come from ``qt``'s config and hotness profile
        (the key cache's, for attention); ``build`` turns one knob set
        into a kernel.  Ties keep the earlier candidate.
        """
        config = qt.config
        cost = CostModel(self.spec)
        best = None
        for knobs in self._knob_candidates(operation, config,
                                           self.stats.profile(qt), level,
                                           shape):
            kernel = build(knobs)
            counters = kernel.counters(self.spec)
            us = cost.latency(counters).total_us
            if best is None or us < best[0]:
                best = (us, knobs, kernel, counters)
        _, knobs, kernel, counters = best
        return GeneratedKernel(operation, config, knobs, kernel, self.spec,
                               counters, self.slack(operation))

    def sweep_levels(self, generate_fn, *args, **kwargs) -> dict:
        """Generate one kernel per Tbl. IV level; keyed GC..O4.

        ``generate_fn`` is one of this generator's ``generate_*`` bound
        methods; args/kwargs are forwarded with ``level`` overridden.
        """
        out = {}
        for level in LEVELS:
            kwargs["level"] = level
            out[level] = generate_fn(*args, **kwargs)
        return out
