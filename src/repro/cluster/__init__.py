"""Multi-GPU cluster serving over the analytic stack.

The paper's evaluation — and the single-engine simulator in
:mod:`repro.serve` — stops at one GPU.  This package extends the
reproduction to fleet scale, where VQ's compressed KV cache compounds:
fewer bytes per token means more concurrent sequences per replica,
which means *fewer GPUs* meeting the same latency SLO at the same
offered load.

- :mod:`repro.cluster.interconnect` — NVLink/PCIe link presets and
  ring all-reduce / all-gather latency models;
- :mod:`repro.cluster.sharding` — the Megatron-style tensor-parallel
  plan: per-shard GEMM/attention shapes (FLOP-conserving), per-layer
  collective costs, per-GPU KV budgets (KV bytes shard by heads,
  VQ codebooks are replicated per shard); a plan passed to
  :class:`repro.serve.costs.StepCostModel` prices one replica's
  iterations on its TP group;
- :mod:`repro.cluster.fleet` — the multi-replica discrete-event
  simulator: N continuous-batching engines behind a router
  (round-robin / join-shortest-queue / least-KV-pressure), fleet
  reports with SLO goodput, and :func:`~repro.cluster.fleet.size_fleet`
  for the headline "how many GPUs does this SLO cost" question.

See :mod:`repro.bench.cluster` and ``examples/cluster_serving.py`` for
the FP16-vs-CQ fleet-sizing comparison, and ``docs/architecture.md``
for how this layer rides the memoized kernel stack.
"""

from repro.cluster.fleet import (
    SLO,
    FleetReport,
    FleetSimulator,
    JoinShortestQueuePolicy,
    LeastKVPressurePolicy,
    POLICIES,
    Replica,
    ReplicaStats,
    RoundRobinPolicy,
    RouterPolicy,
    make_policy,
    size_fleet,
)
from repro.cluster.interconnect import (
    IDEAL_LINK,
    LINKS,
    LinkSpec,
    NVLINK3,
    NVLINK4,
    PCIE4,
    PCIE5,
    ring_all_gather_us,
    ring_all_reduce_us,
)
from repro.cluster.sharding import TensorParallelPlan

__all__ = [
    "FleetReport",
    "FleetSimulator",
    "IDEAL_LINK",
    "JoinShortestQueuePolicy",
    "LINKS",
    "LeastKVPressurePolicy",
    "LinkSpec",
    "NVLINK3",
    "NVLINK4",
    "PCIE4",
    "PCIE5",
    "POLICIES",
    "Replica",
    "ReplicaStats",
    "RoundRobinPolicy",
    "RouterPolicy",
    "SLO",
    "TensorParallelPlan",
    "make_policy",
    "ring_all_gather_us",
    "ring_all_reduce_us",
    "size_fleet",
]
