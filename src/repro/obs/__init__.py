"""repro.obs — cross-layer observability for the serving stack.

Six pieces (see each module's docs):

- :mod:`repro.obs.trace` — :class:`Tracer` lifecycle/step recording
  with a near-zero-cost disabled path (:data:`NULL_TRACER`);
- :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges and log-bucketed histograms with flat-dict export
  (histograms also export estimated ``_p50/_p95/_p99`` quantiles);
- :mod:`repro.obs.timeline` — :class:`TimelineCollector` windowed
  time-series telemetry over simulated time (queue depth, KV
  occupancy, per-window latency tails), sampled via SAMPLE events on
  the shared event heap;
- :mod:`repro.obs.slo` — :class:`SLOMonitor` multi-window burn-rate
  alerting and error-budget accounting over a timeline;
- :mod:`repro.obs.breakdown` — per-request latency decomposition
  (queue-wait / prefill / preemption-stall / decode) and tail-TTFT
  attribution;
- :mod:`repro.obs.perfetto` / :mod:`repro.obs.report` — Chrome/Perfetto
  ``trace_event`` JSON export (spans, instants and timeline counter
  tracks) and the ``python -m repro.obs.report`` markdown/HTML
  breakdown + dashboard CLI.

Enable tracing with ``SimConfig(trace=True)`` / ``FleetConfig(trace=True)``
or the bench ``--trace-out`` / orchestrator ``--trace-dir`` flags;
enable the timeline with ``SimConfig(timeline=TimelineConfig(...))`` /
``FleetConfig(timeline=...)`` or ``--timeline-out`` /
``--timeline-dir``.
"""

from .breakdown import breakdown_summary, request_breakdowns
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .perfetto import to_perfetto, write_perfetto
from .report import percentile
from .slo import BurnRateRule, SLOAlert, SLOMonitor, SLOReport
from .timeline import (
    Timeline,
    TimelineCollector,
    TimelineConfig,
    TimelineWindow,
)
from .trace import (
    EVENT_NAMES,
    EVT_ADMITTED,
    EVT_EVICTED,
    EVT_PREEMPTED,
    EVT_PREFILL_CHUNK,
    EVT_REJECTED,
    NULL_TRACER,
    NullTracer,
    Tracer,
)

__all__ = [
    "BurnRateRule",
    "Counter",
    "EVENT_NAMES",
    "EVT_ADMITTED",
    "EVT_EVICTED",
    "EVT_PREEMPTED",
    "EVT_PREFILL_CHUNK",
    "EVT_REJECTED",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SLOAlert",
    "SLOMonitor",
    "SLOReport",
    "Timeline",
    "TimelineCollector",
    "TimelineConfig",
    "TimelineWindow",
    "Tracer",
    "breakdown_summary",
    "percentile",
    "request_breakdowns",
    "to_perfetto",
    "write_perfetto",
]
