"""Continuous-batching serving simulator over the analytic stack.

The paper's evaluation stops at kernels and single-stream E2E latency;
this package extends the reproduction to the *serving* level — the
regime where VQ's KV-cache compression changes system behavior, because
a smaller cache admits more concurrent sequences at the same HBM
budget:

- :mod:`repro.serve.requests` — request traces (Poisson, bursty MMPP,
  replay) with heavy-tailed prompt/output length distributions;
- :mod:`repro.serve.scheduler` — iteration-level continuous batching
  with chunked prefill and two KV admission policies: worst-case
  reservations (``"reserve"``, no eviction ever) or vLLM-style paged
  block allocation with recompute preemption (``"paged"``), where the
  bytes-per-token comes from the
  :class:`~repro.vq.config.VQConfig` compression ratio;
- :mod:`repro.serve.paging` — the block pool behind paged admission
  (:class:`~repro.serve.paging.PagedKVAllocator`: free-list
  accounting, fragmentation stats);
- :mod:`repro.serve.prefix` — shared-prefix KV reuse over that pool
  (``prefix_caching=True``): a radix tree of ref-counted,
  token-keyed blocks with LRU eviction and copy-on-write, so
  requests sharing a system prompt or chat history skip the prefill
  work for the cached prefix;
- :mod:`repro.serve.costs` — prices one scheduler iteration through the
  memoized :meth:`~repro.core.engine.ComputeEngine.batch_latency_us`;
- :mod:`repro.serve.simulator` — the discrete-event loop and the
  :class:`~repro.serve.simulator.ServingReport` metrics (throughput,
  TTFT, TPOT, latency percentiles) on the
  :class:`~repro.serve.simulator.Report` base the fleet report shares.

See ``docs/architecture.md`` for the full data-flow picture and
:mod:`repro.bench.serving` / ``examples/serving_simulation.py`` for
ready-made FP16-vs-VQ comparisons.
"""

from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig
from repro.serve.costs import StepCostModel
from repro.serve.events import ARRIVAL, STEP, TRANSFER, EventLoop, EventStats
from repro.serve.paging import PagedKVAllocator, PagingStats
from repro.serve.prefix import (
    PrefixCache,
    PrefixCachingAllocator,
    PrefixStats,
)
from repro.serve.requests import (
    LengthSampler,
    Request,
    bursty_trace,
    multi_turn_chat_trace,
    poisson_trace,
    replayed_trace,
    shared_prefix_trace,
    trace_stats,
)
from repro.serve.scheduler import (
    ADMISSION_POLICIES,
    BatchPlan,
    ContinuousBatchScheduler,
    KVBudget,
    SequenceState,
    kv_bytes_per_token,
    kv_codebook_bytes,
)
from repro.serve.simulator import (
    Report,
    RequestRecord,
    ServingReport,
    ServingSimulator,
)

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL",
    "BatchPlan",
    "ContinuousBatchScheduler",
    "EventLoop",
    "EventStats",
    "FleetConfig",
    "KVBudget",
    "LengthSampler",
    "PagedKVAllocator",
    "PagingStats",
    "PrefixCache",
    "PrefixCachingAllocator",
    "PrefixStats",
    "Report",
    "Request",
    "RequestRecord",
    "STEP",
    "SchedulerConfig",
    "SequenceState",
    "ServingReport",
    "ServingSimulator",
    "SimConfig",
    "StepCostModel",
    "TRANSFER",
    "bursty_trace",
    "kv_bytes_per_token",
    "kv_codebook_bytes",
    "multi_turn_chat_trace",
    "poisson_trace",
    "replayed_trace",
    "shared_prefix_trace",
    "trace_stats",
]
