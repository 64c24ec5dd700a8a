"""VQ-LLM core: the paper's contribution.

- :mod:`repro.core.hotness` — offline profiling of codebook-entry access
  frequency (Fig. 8/9), the foundation of the codebook cache.
- :mod:`repro.core.slack` — resource-slack detection (Fig. 10) used to
  size the cache without hurting occupancy.
- :mod:`repro.core.cache` — the codebook cache abstraction (Sec. V):
  frequency reorder, ``n_reg``/``n_shared`` boundaries, Load / Access /
  Switch APIs.
- :mod:`repro.core.dataflow` — reduce / codebook-switch axes (Tbl. III)
  and the codebook-centric dataflow with its adaptive split factor.
- :mod:`repro.core.fusion` — hierarchical fusion: Alg. 1 thread mapping,
  shuffle counting, and the register-vs-shared fusion decision.
- :mod:`repro.core.heuristics` — all adaptive parameter selection.
- :mod:`repro.core.template` / :mod:`repro.core.codegen` — Alg. 2: the
  kernel template and the generator that assembles a fused kernel plan
  for a (VQ config, computation, GPU) triple.
- :mod:`repro.core.emitter` — CUDA-like source rendering of a plan.
- :mod:`repro.core.engine` — executes generated kernels (numerics +
  modelled counters/latency) and exposes the memoized batch-latency
  API that :mod:`repro.serve` and :mod:`repro.bench` step on.

``docs/architecture.md`` narrates the full
VQConfig -> quantizer -> codegen -> cost model -> engine -> serve flow
and defines the Tbl. IV optimization levels.
"""

from repro.core.cache import CacheBoundaries, CodebookCache
from repro.core.dataflow import (
    AxisSpec,
    DataflowPlan,
    axes_for,
    optimal_split_factor,
    plan_dataflow,
)
from repro.core.fusion import (
    FusionDecision,
    ThreadMapping,
    decide_fusion,
    n_shuffles,
    thread_mapping,
)
from repro.core.heuristics import PlanKnobs, choose_knobs
from repro.core.hotness import HotnessProfile, profile_hotness
from repro.core.slack import ResourceSlack, find_slack

# The codegen layer imports repro.kernels (which imports this package's
# analysis submodules); expose it lazily to avoid a circular import.
_LAZY = {
    "GeneratedKernel": "repro.core.codegen",
    "VQLLMCodeGenerator": "repro.core.codegen",
    "ComputeEngine": "repro.core.engine",
    "LevelSweep": "repro.core.engine",
    "emit_cuda": "repro.core.emitter",
    "KernelTemplate": "repro.core.template",
    "build_template": "repro.core.template",
}


def __getattr__(name):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AxisSpec",
    "CacheBoundaries",
    "CodebookCache",
    "DataflowPlan",
    "FusionDecision",
    "GeneratedKernel",
    "HotnessProfile",
    "PlanKnobs",
    "ResourceSlack",
    "ThreadMapping",
    "VQLLMCodeGenerator",
    "axes_for",
    "choose_knobs",
    "decide_fusion",
    "find_slack",
    "n_shuffles",
    "optimal_split_factor",
    "plan_dataflow",
    "profile_hotness",
    "thread_mapping",
]
