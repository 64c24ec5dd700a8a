"""Typed configuration facade.

Every simulator option lives in one frozen dataclass:

- :class:`SchedulerConfig` / :class:`SimConfig` / :class:`FleetConfig`
  describe a scheduler, a single-engine simulation and a fleet
  simulation.  Each has a ``build`` method that produces the live
  object; the underlying constructors
  (:class:`~repro.serve.scheduler.ContinuousBatchScheduler`,
  :class:`~repro.serve.simulator.ServingSimulator`,
  :class:`~repro.cluster.fleet.FleetSimulator`) also accept
  ``config=`` directly, next to the objects a run is built from
  (budget, cost model, replicas).

Configs are frozen so they can be shared across replicas and processes
(the orchestrator pickles them into its worker pool) without aliasing
surprises.  The reports both simulators return share one base,
:class:`~repro.serve.simulator.Report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.obs.timeline import TimelineConfig

__all__ = [
    "FleetConfig",
    "SchedulerConfig",
    "SimConfig",
]


@dataclass(frozen=True)
class SchedulerConfig:
    """Options of one :class:`~repro.serve.scheduler.
    ContinuousBatchScheduler` (everything but the KV budget, which is
    workload state, not configuration)."""

    #: Max tokens per iteration (vLLM's ``max_num_batched_tokens``).
    token_budget: int = 2048
    #: Max concurrently admitted sequences.
    max_seqs: int = 64
    #: ``"reserve"`` (worst-case reservations) or ``"paged"`` (block
    #: pool with recompute preemption).
    admission: str = "reserve"
    #: Token slots per KV block under paged admission.
    block_tokens: int = 16
    #: Fraction of the block pool kept free at admission time.
    watermark_frac: float = 0.01
    #: Share KV blocks across common prompt prefixes (paged only).
    prefix_caching: bool = False
    #: Arm allocator invariant checks (:mod:`repro.serve.sanitize`):
    #: O(1) per-operation plus a full-heap audit at drain.  Env
    #: ``REPRO_SANITIZE=1`` turns this on without touching configs.
    #: Checks only read state — metrics stay bit-identical.
    sanitize: bool = False

    def build(self, budget) -> "ContinuousBatchScheduler":
        """A fresh scheduler over ``budget`` with these options."""
        from repro.serve.scheduler import ContinuousBatchScheduler
        return ContinuousBatchScheduler(budget, config=self)


@dataclass(frozen=True)
class SimConfig:
    """One single-engine serving simulation: scheduler options plus
    the simulator's own knobs."""

    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    name: str = "serving"
    #: Iteration cap before the run aborts (diverging offered load).
    max_iterations: int = 1_000_000
    #: Record per-request lifecycle and per-step timelines
    #: (:mod:`repro.obs`).  Off by default: the disabled path is
    #: bit-identical and near-free.
    trace: bool = False
    #: Sample windowed time-series telemetry over simulated time
    #: (:class:`~repro.obs.timeline.TimelineConfig`, or ``None`` to
    #: disable).  Same contract as tracing: reported metrics are
    #: bit-identical on or off.
    timeline: Optional[TimelineConfig] = None

    def build(self, budget, cost_model) -> "ServingSimulator":
        """A fresh simulator: scheduler over ``budget``, this config."""
        from repro.serve.simulator import ServingSimulator
        return ServingSimulator(self.scheduler.build(budget), cost_model,
                                config=self)


@dataclass(frozen=True)
class FleetConfig:
    """One fleet simulation: per-replica scheduler options, routing
    policy and the fleet driver's knobs."""

    scheduler: SchedulerConfig = field(
        default_factory=lambda: SchedulerConfig(max_seqs=128))
    #: Routing policy name (see :data:`repro.cluster.fleet.POLICIES`)
    #: or a :class:`~repro.cluster.fleet.RouterPolicy` instance.
    policy: object = "jsq"
    name: str = "fleet"
    #: Per-replica iteration cap before the run aborts.
    max_iterations: int = 1_000_000
    #: Record per-request lifecycle and per-step timelines across all
    #: replicas (:mod:`repro.obs`); disabled path is bit-identical.
    trace: bool = False
    #: Sample windowed per-replica time-series telemetry
    #: (:class:`~repro.obs.timeline.TimelineConfig`, or ``None`` to
    #: disable); reported metrics are bit-identical on or off.
    timeline: Optional[TimelineConfig] = None

    def with_policy(self, policy) -> "FleetConfig":
        """This config with a different routing policy (stateful
        policies must be fresh per run, hence the helper)."""
        return replace(self, policy=policy)

    def build(self, n_replicas: int, budget, cost_model,
              name: Optional[str] = None) -> "FleetSimulator":
        """A fleet of ``n_replicas`` identical fresh replicas.

        Every replica gets its own scheduler over (a copy of the
        accounting for) ``budget``; the cost model is shared, which is
        safe — it is read-only at simulation time.
        """
        from repro.cluster.fleet import FleetSimulator, Replica
        cfg = self if name is None else replace(self, name=name)
        replicas = [Replica(i, self.scheduler.build(budget), cost_model)
                    for i in range(n_replicas)]
        return FleetSimulator(replicas, config=cfg)
