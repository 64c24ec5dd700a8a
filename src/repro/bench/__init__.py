"""Experiment harness.

- :mod:`repro.bench.workloads` — Llama-shaped kernel workloads and
  cached quantized sample tensors;
- :mod:`repro.bench.harness` — result containers and table printers;
- :mod:`repro.bench.experiments` — one function per paper table/figure
  (the per-experiment index lives in DESIGN.md);
- :mod:`repro.bench.e2e` — the end-to-end latency ledger (Fig. 17),
  a client of the serving cost model's decode walk;
- :mod:`repro.bench.serving` — the continuous-batching serving
  experiment (FP16 vs VQ KV caches at equal HBM) over
  :mod:`repro.serve`;
- :mod:`repro.bench.cluster` — fleet sizing, routing and TP scaling
  over :mod:`repro.cluster`;
- :mod:`repro.bench.orchestrator` — declarative sweep grids over the
  serving/fleet experiments, parallel trial execution, the persisted
  ``BENCH_<pr>.json`` perf trajectory and its markdown regression
  report.

See ``docs/architecture.md`` for how the harness layers on the stack
and ``README.md`` for the benchmark-to-figure mapping.
"""

from repro.bench.harness import ExperimentResult, format_table
from repro.bench.workloads import (
    attention_sample,
    llama_attention_shape,
    llama_gemm_shape,
    llama_gemv_shape,
    weight_sample,
)

__all__ = [
    "ExperimentResult",
    "attention_sample",
    "format_table",
    "llama_attention_shape",
    "llama_gemm_shape",
    "llama_gemv_shape",
    "weight_sample",
]
