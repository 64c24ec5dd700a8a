"""Multi-replica fleet simulator with pluggable request routing.

A *replica* is one serving engine — a single GPU or a whole
tensor-parallel group — wrapping its own
:class:`~repro.serve.scheduler.ContinuousBatchScheduler` and iteration
cost model behind a private clock.  The :class:`FleetSimulator` drives
``N`` replicas behind a front-end router: requests arrive on one shared
trace, the router inspects replica state *as of the arrival instant*
and picks a target, and each replica then runs its own iteration loop
exactly as the single-engine :class:`~repro.serve.simulator.ServingSimulator`
does.  Replicas never interact except through routing, so the event
loop only has to keep replica clocks consistent with arrival order.
The driver is the shared global event heap
(:class:`~repro.serve.events.EventLoop`): arrivals and per-replica
iteration boundaries pop in simulated-time order, so by the time an
arrival pops every busy replica has already stepped past (or exactly
to) the arrival instant — the state the router inspects is identical
to the old advance-everyone lockstep, but idle replicas are simply not
in the heap and are never polled (an iteration already in flight may
overshoot the arrival — the request then waits for the iteration
boundary, as on a real engine).

Routing policies:

- ``round-robin`` — cycle through replicas regardless of state;
- ``jsq`` — join the shortest queue (waiting + running sequences);
- ``least-kv`` — join the replica with the lowest KV-cache *pressure*
  (reserved plus queued worst-case tokens over budget), which is the
  policy that understands what compression changes: a VQ replica under
  the same byte budget reports a fraction of the FP16 pressure;
- ``prefix-affinity`` — consistent-hash each request's session to a
  replica, so every turn of a chat session lands where its prefix tree
  is already warm.  Load-oblivious routing costs some balance; the
  payoff is the fleet-wide prefix hit rate, which load-based policies
  destroy by scattering a session's turns across replicas.

The fleet-level deliverable is :class:`FleetReport` and its
SLO-conditioned metrics (:meth:`FleetReport.goodput_rps`,
:meth:`FleetReport.meets`), plus :func:`size_fleet` — the smallest
replica count whose fleet meets a TTFT/TPOT SLO at a given offered
load, which is the unit the headline CQ-vs-FP16 comparison is priced
in (GPUs, not microseconds).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import EVT_REJECTED, NULL_TRACER, Tracer
from repro.serve.api import FleetConfig
from repro.serve.costs import StepCostModel
from repro.serve.events import ARRIVAL, SAMPLE, STEP, EventLoop, EventStats
from repro.serve.requests import Request
from repro.serve.scheduler import ContinuousBatchScheduler
from repro.serve.simulator import (RequestRecord, ServingEngine,
                                   observe_request_metrics, percentile)

#: Sentinel distinguishing "kwarg not passed" from any real value.
_UNSET = object()


@dataclass(frozen=True)
class SLO:
    """A per-request service-level objective.

    ``ttft_s`` / ``tpot_s`` are the limits an individual request must
    meet; fleet-level compliance (:meth:`FleetReport.meets`) requires
    the ``quantile``-th percentile of completed requests within the
    limits and no rejections.
    """

    ttft_s: float
    tpot_s: Optional[float] = None
    quantile: float = 95.0

    def __post_init__(self):
        if self.ttft_s <= 0:
            raise ValueError("ttft_s must be positive")
        if self.tpot_s is not None and self.tpot_s <= 0:
            raise ValueError("tpot_s must be positive")
        if not 0 < self.quantile <= 100:
            raise ValueError("quantile must be in (0, 100]")

    def met_by(self, record: RequestRecord) -> bool:
        """Whether one completed request met the objective."""
        if record.ttft_s > self.ttft_s:
            return False
        if self.tpot_s is not None and record.tpot_s > self.tpot_s:
            return False
        return True


class Replica(ServingEngine):
    """One serving engine instance with a private simulation clock."""

    def __init__(self, replica_id: int,
                 scheduler: ContinuousBatchScheduler,
                 cost_model: StepCostModel):
        super().__init__(scheduler, cost_model, replica_id)
        self.n_submitted = 0
        #: Times a driver activated this replica — one per STEP pop
        #: under the event heap (a pop may run a whole replayed run of
        #: iterations), but one per *arrival* plus one per iteration
        #: under the legacy lockstep :meth:`advance_to` driver, which
        #: polls idle replicas too.  The regression test for the
        #: lockstep inefficiency pins the difference.
        self.n_wakeups = 0

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work

    @property
    def queue_depth(self) -> int:
        """Sequences on this replica: queued plus running.

        Preempted sequences awaiting re-admission count as queued —
        each carries re-prefill work, so a paged replica mid-thrash
        must not look idle to the ``jsq`` router.
        """
        s = self.scheduler
        return len(s.waiting) + len(s.preempted) + len(s.running)

    @property
    def kv_pressure(self) -> float:
        """Near-term KV demand over budget, counting the queue.

        Delegates to
        :attr:`~repro.serve.scheduler.ContinuousBatchScheduler.kv_pressure`:
        worst-case reservations-to-be under reserve admission, but
        *observed block usage* plus queued prompts' blocks under paged
        admission — a paged replica that has packed many short-context
        sequences reports the blocks it actually holds, not the
        worst-case footprint it never allocated.
        """
        return self.scheduler.kv_pressure

    def submit(self, request: Request) -> None:
        """Route one request here (arrival may be later than the clock)."""
        self.now_s = max(self.now_s, request.arrival_s)
        self.scheduler.submit(request)
        self.n_submitted += 1

    def step(self, horizon_s: float = -math.inf,
             max_iterations: int = 0) -> list:
        """Run one scheduler iteration and advance the clock.

        The fleet driver passes its next ARRIVAL or SAMPLE time as
        ``horizon_s`` and its iteration cap, and the iteration is then
        replayed while it repeats (:meth:`~repro.serve.simulator.
        ServingEngine.execute`).  Other replicas' STEP events need not
        bound the run: they never read this replica, while the router
        and the timeline do.  The defaults run exactly one iteration.

        Returns the sequences that completed (also appended to
        :attr:`finished`), so the fleet driver can feed per-window
        telemetry without diffing the list.
        """
        plan = self.scheduler.schedule(self.now_s)
        if plan.empty:  # pragma: no cover - has_work implies a plan
            # The scheduler preempts until some sequence progresses,
            # and a lone sequence always fits the pool, so this is a
            # scheduler bug: fail loudly, since returning would spin
            # advance_to/run forever.
            raise RuntimeError(f"replica {self.replica_id} made no "
                               "progress with work pending")
        return self.execute(plan, horizon_s, max_iterations)

    def advance_to(self, t_s: float) -> None:
        """Run iterations until the clock reaches ``t_s`` or work runs out.

        The legacy lockstep driver: :meth:`FleetSimulator.run` no
        longer calls it (the global event heap orders replica
        boundaries against arrivals instead), but it remains the
        reference semantics the heap is equivalence-tested against.
        """
        self.n_wakeups += 1
        while self.has_work and self.now_s < t_s:
            self.step()


# ----------------------------------------------------------------------
# Routing policies
# ----------------------------------------------------------------------
class RouterPolicy:
    """Chooses a replica index for each arriving request.

    ``candidates`` is the non-empty subset of replica indices whose KV
    budget can hold the request at all; the policy must return one of
    them.  Policies may keep state (round-robin does), so build a fresh
    instance per simulation run.
    """

    name = "abstract"

    def choose(self, request: Request, replicas: Sequence[Replica],
               candidates: Sequence[int]) -> int:
        raise NotImplementedError


class RoundRobinPolicy(RouterPolicy):
    """Cycle through replicas, skipping ones that cannot fit the request."""

    name = "round-robin"

    def __init__(self):
        self._next = 0

    def choose(self, request, replicas, candidates):
        allowed = set(candidates)
        for _ in range(len(replicas)):
            idx = self._next % len(replicas)
            self._next += 1
            if idx in allowed:
                return idx
        return candidates[0]  # pragma: no cover - candidates is non-empty


class JoinShortestQueuePolicy(RouterPolicy):
    """Join the replica with the fewest queued + running sequences."""

    name = "jsq"

    def choose(self, request, replicas, candidates):
        return min(candidates, key=lambda i: (replicas[i].queue_depth, i))


class LeastKVPressurePolicy(RouterPolicy):
    """Join the replica with the lowest worst-case KV demand fraction."""

    name = "least-kv"

    def choose(self, request, replicas, candidates):
        return min(candidates, key=lambda i: (replicas[i].kv_pressure, i))


class PrefixAffinityPolicy(RouterPolicy):
    """Consistent-hash sessions to replicas to keep prefix trees warm.

    Each replica owns ``vnodes`` points on a hash ring; a request's
    session key (``session_id``, falling back to ``req_id`` for
    sessionless requests) routes to the owner of the first point at or
    after its hash.  Consistent hashing — rather than
    ``hash % n_replicas`` — keeps most sessions in place when the
    candidate set shrinks (a replica whose budget cannot fit the
    request drops out of the ring for that request only, and only its
    sessions move).
    """

    name = "prefix-affinity"

    def __init__(self, vnodes: int = 64):
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._ring: List[tuple] = []
        self._ring_size = 0

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha1(key.encode()).digest()[:8], "big")

    def _build_ring(self, n_replicas: int) -> None:
        points = [(self._hash(f"replica-{r}:vnode-{v}"), r)
                  for r in range(n_replicas) for v in range(self.vnodes)]
        self._ring = sorted(points)
        self._ring_size = n_replicas

    def choose(self, request, replicas, candidates):
        if self._ring_size != len(replicas):
            self._build_ring(len(replicas))
        key = (request.session_id if request.session_id is not None
               else request.req_id)
        h = self._hash(f"session-{key}")
        allowed = set(candidates)
        start = bisect.bisect_left(self._ring, (h, -1))
        for off in range(len(self._ring)):
            _, replica = self._ring[(start + off) % len(self._ring)]
            if replica in allowed:
                return replica
        return candidates[0]  # pragma: no cover - candidates non-empty


#: Policy constructors by name (fresh instance per call).
POLICIES = {
    "round-robin": RoundRobinPolicy,
    "jsq": JoinShortestQueuePolicy,
    "least-kv": LeastKVPressurePolicy,
    "prefix-affinity": PrefixAffinityPolicy,
}


def make_policy(policy: Union[str, RouterPolicy]) -> RouterPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, RouterPolicy):
        return policy
    try:
        return POLICIES[policy]()
    except KeyError:
        raise KeyError(f"unknown routing policy {policy!r}; "
                       f"known: {sorted(POLICIES)}") from None


# ----------------------------------------------------------------------
# Fleet report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaStats:
    """Per-replica accounting of one fleet run.

    Replaces the PR-3 positional tuple ``(routed, iterations, peak_kv,
    preemptions)``; iteration/indexing keep the old unpacking sites
    working (``routed, iters, peak, *rest = stats``) while new code
    reads attributes.
    """

    n_requests: int
    n_iterations: int
    peak_kv_utilization: float
    n_preemptions: int = 0

    def __iter__(self):
        yield self.n_requests
        yield self.n_iterations
        yield self.peak_kv_utilization
        yield self.n_preemptions

    def __len__(self) -> int:
        return 4

    def __getitem__(self, idx):
        return (self.n_requests, self.n_iterations,
                self.peak_kv_utilization, self.n_preemptions)[idx]


@dataclass
class FleetReport:
    """Aggregate metrics of one simulated fleet run."""

    name: str
    policy: str
    n_replicas: int
    records: List[RequestRecord]
    #: req_id -> replica index, for every routed request.
    assignments: Dict[int, int]
    makespan_s: float
    #: Per-replica accounting (:class:`ReplicaStats`); legacy raw
    #: tuples are converted with a DeprecationWarning.
    replica_stats: List[ReplicaStats] = field(default_factory=list)
    n_rejected: int = 0
    #: Whether any replica ran with prefix caching enabled.
    prefix_caching: bool = False
    #: Prefix-cache counters summed across replicas.
    prefix_lookups: int = 0
    prefix_lookup_hits: int = 0
    prefix_hit_tokens: int = 0
    prefix_miss_tokens: int = 0
    n_evicted_blocks: int = 0
    #: Event-loop statistics of the run (:class:`~repro.serve.events.
    #: EventStats`), surfaced into :meth:`metrics`.
    event_stats: Optional[EventStats] = None
    #: The run's :class:`~repro.obs.metrics.MetricsRegistry` (flat dict
    #: merged into :meth:`metrics`; Prometheus text available).
    registry: Optional[object] = None
    #: The run's :class:`~repro.obs.trace.Tracer` when the fleet ran
    #: with ``FleetConfig(trace=True)``, else ``None``.
    tracer: Optional[object] = None
    #: The run's per-replica :class:`~repro.obs.timeline.Timeline` when
    #: it ran with ``FleetConfig(timeline=...)``, else ``None``.  Never
    #: merged into :meth:`metrics` (bit-identity contract).
    timeline: Optional[object] = None
    #: Evaluated :class:`~repro.obs.slo.SLOReport` over the fleet-merged
    #: windows when the timeline config carried SLO limits.
    slo: Optional[object] = None

    def __post_init__(self):
        converted, warned = [], False
        for entry in self.replica_stats:
            if isinstance(entry, ReplicaStats):
                converted.append(entry)
                continue
            if not warned:
                warnings.warn(
                    "passing replica_stats as positional tuples is "
                    "deprecated; pass ReplicaStats instances "
                    "(repro.cluster.fleet)", DeprecationWarning,
                    stacklevel=3)
                warned = True
            converted.append(ReplicaStats(*tuple(entry)[:4]))
        self.replica_stats = converted

    @property
    def n_preempted(self) -> int:
        """Recompute preemptions across all replicas (paged admission)."""
        return sum(stats.n_preemptions for stats in self.replica_stats)

    @property
    def prefix_hit_rate(self) -> float:
        """Fleet-wide fraction of admissions hitting the prefix cache."""
        return self.prefix_lookup_hits / max(1, self.prefix_lookups)

    @property
    def cached_token_fraction(self) -> float:
        """Fleet-wide fraction of prompt tokens served from caches."""
        total = self.prefix_hit_tokens + self.prefix_miss_tokens
        return self.prefix_hit_tokens / max(1, total)

    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def throughput_rps(self) -> float:
        return self.n_requests / self.makespan_s if self.makespan_s else 0.0

    @property
    def output_tokens_per_s(self) -> float:
        total = sum(r.output_tokens for r in self.records)
        return total / self.makespan_s if self.makespan_s else 0.0

    def _quantile(self, values: List[float], q: float) -> float:
        return percentile(values, q) if values else 0.0

    def ttft_s(self, q: float = 50.0) -> float:
        return self._quantile([r.ttft_s for r in self.records], q)

    def tpot_s(self, q: float = 50.0) -> float:
        return self._quantile(
            [r.tpot_s for r in self.records if r.output_tokens > 1], q)

    def latency_s(self, q: float = 50.0) -> float:
        return self._quantile([r.latency_s for r in self.records], q)

    # -- SLO-conditioned metrics ---------------------------------------
    def slo_attainment(self, slo: SLO) -> float:
        """Fraction of *offered* requests that met the SLO.

        Rejected requests count as misses: a fleet that sheds load does
        not get credit for the latency of what it kept.
        """
        offered = self.n_requests + self.n_rejected
        if offered == 0:
            return 0.0
        met = sum(1 for r in self.records if slo.met_by(r))
        return met / offered

    def goodput_rps(self, slo: SLO) -> float:
        """SLO-meeting requests completed per second."""
        if not self.makespan_s:
            return 0.0
        met = sum(1 for r in self.records if slo.met_by(r))
        return met / self.makespan_s

    def meets(self, slo: SLO) -> bool:
        """Percentile-level compliance: the SLO's quantile of completed
        requests is within limits and nothing was rejected."""
        if self.n_rejected or not self.records:
            return False
        if self.ttft_s(slo.quantile) > slo.ttft_s:
            return False
        if slo.tpot_s is not None and self.tpot_s(slo.quantile) > slo.tpot_s:
            return False
        return True

    def metrics(self, slo: Optional[SLO] = None) -> dict:
        """Flat JSON-safe metric dict (plain ``int``/``float`` values).

        The fleet analogue of
        :meth:`repro.serve.simulator.ServingReport.metrics`, with the
        same key names for shared concepts so the orchestrator's
        trajectory deltas compare uniformly.  Passing an :class:`SLO`
        adds the SLO-conditioned metrics (``goodput_rps``,
        ``slo_attainment``).
        """
        out = {
            "n_replicas": self.n_replicas,
            "n_requests": self.n_requests,
            "n_rejected": self.n_rejected,
            "makespan_s": self.makespan_s,
            "throughput_rps": self.throughput_rps,
            "output_tokens_per_s": self.output_tokens_per_s,
            "ttft_p50_ms": self.ttft_s(50) * 1e3,
            "ttft_p95_ms": self.ttft_s(95) * 1e3,
            "tpot_p50_ms": self.tpot_s(50) * 1e3,
            "latency_p50_s": self.latency_s(50),
            "latency_p99_s": self.latency_s(99),
            "n_preempted": self.n_preempted,
            "prefix_hit_rate": self.prefix_hit_rate,
            "cached_token_fraction": self.cached_token_fraction,
            "n_evicted_blocks": self.n_evicted_blocks,
        }
        if slo is not None:
            out["goodput_rps"] = self.goodput_rps(slo)
            out["slo_attainment"] = self.slo_attainment(slo)
        if self.event_stats is not None:
            out["n_events"] = self.event_stats.n_events
            out["n_arrivals"] = self.event_stats.n_arrivals
            out["n_step_events"] = self.event_stats.n_step_events
            out["n_idle_polls"] = self.event_stats.n_idle_polls
        if self.registry is not None:
            # Registry metrics never shadow the canonical keys above.
            for key, value in self.registry.to_flat_dict().items():
                out.setdefault(key, value)
        return out

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"{self.name}: {self.n_replicas} replicas ({self.policy}), "
            f"{self.n_requests} requests in {self.makespan_s:.2f} s",
            f"  throughput : {self.throughput_rps:6.2f} req/s, "
            f"{self.output_tokens_per_s:8.1f} output tok/s",
            f"  TTFT       : p50 {self.ttft_s(50) * 1e3:8.1f} ms, "
            f"p95 {self.ttft_s(95) * 1e3:8.1f} ms",
            f"  TPOT       : p50 {self.tpot_s(50) * 1e3:8.2f} ms/token",
            f"  latency    : p50 {self.latency_s(50):6.2f} s, "
            f"p95 {self.latency_s(95):6.2f} s",
        ]
        if self.prefix_caching:
            lines.append(
                f"  prefix     : {self.prefix_hit_rate:.0%} admissions "
                f"hit, {self.cached_token_fraction:.0%} of prompt tokens "
                f"cached, {self.n_evicted_blocks} blocks evicted")
        for rid, stats in enumerate(self.replica_stats):
            line = (f"  replica {rid}  : {stats.n_requests:4d} requests, "
                    f"{stats.n_iterations:6d} iterations, "
                    f"peak KV {stats.peak_kv_utilization:.0%}")
            if stats.n_preemptions:
                line += f", {stats.n_preemptions} preemptions"
            lines.append(line)
        if self.n_rejected:
            lines.append(f"  rejected   : {self.n_rejected} requests "
                         "exceeded every replica's KV budget")
        if self.slo is not None:
            lines.extend("  " + ln for ln in
                         self.slo.summary().splitlines())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fleet simulator
# ----------------------------------------------------------------------
class FleetSimulator:
    """Routes a trace across replicas and drains them to a report.

    The driver is the shared event heap: per-replica iteration
    boundaries and request arrivals pop in global simulated-time order
    (ties break arrivals-first, matching the old strict
    ``now_s < arrival`` lockstep), so the router always inspects every
    replica advanced to the arrival instant while idle replicas stay
    out of the heap entirely.  ``last_event_stats`` exposes the event
    counters of the most recent :meth:`run`.
    """

    def __init__(self, replicas: Sequence[Replica],
                 policy: Union[str, RouterPolicy] = _UNSET,
                 name: str = _UNSET,
                 config: Optional[FleetConfig] = None):
        if not replicas:
            raise ValueError("need at least one replica")
        legacy = {k: v for k, v in (("policy", policy), ("name", name))
                  if v is not _UNSET}
        if config is not None:
            if legacy:
                raise TypeError(
                    "pass either config= or legacy fleet kwargs, not "
                    f"both (got {sorted(legacy)})")
        else:
            if legacy:
                warnings.warn(
                    "passing fleet options as individual kwargs is "
                    "deprecated; pass config=FleetConfig(...) "
                    "(repro.serve.api)", DeprecationWarning, stacklevel=2)
            config = FleetConfig(**legacy)
        self.config = config
        self.replicas = list(replicas)
        self.policy = make_policy(config.policy)
        self.name = config.name
        self.last_event_stats: Optional[EventStats] = None

    def run(self, trace: Sequence[Request],
            max_iterations: Optional[int] = None) -> FleetReport:
        """Simulate the full trace; returns the fleet-level report.

        ``max_iterations`` (per replica) defaults to the config's cap.
        """
        if max_iterations is None:
            max_iterations = self.config.max_iterations
        pending = sorted(trace, key=lambda r: r.arrival_s)
        if not pending:
            raise ValueError("empty trace")
        replicas = self.replicas
        assignments: Dict[int, int] = {}
        rejected: List[Request] = []
        tracer = Tracer(name=self.name) if self.config.trace else NULL_TRACER
        self.tracer = tracer
        if tracer.enabled:
            for rep in replicas:
                rep.tracer = tracer
                rep.scheduler.tracer = tracer
                rep.scheduler.trace_replica = rep.replica_id

        loop = EventLoop()
        for req in pending:
            loop.push(req.arrival_s, ARRIVAL, req)
        timeline = (TimelineCollector(self.config.timeline,
                                      n_replicas=len(replicas),
                                      name=self.name)
                    if self.config.timeline is not None else None)
        schedulers = tuple(rep.scheduler for rep in replicas)
        arrivals_left = len(pending)
        if timeline is not None:
            loop.push(timeline.next_sample_s, SAMPLE, None)
        #: Whether replica i currently owns a STEP event in the heap
        #: (exactly one while it has work; entries never go stale
        #: because only step() moves a busy replica's clock).
        in_heap = [rep.has_work for rep in replicas]
        for i, rep in enumerate(replicas):
            if in_heap[i]:
                loop.push(rep.now_s, STEP, i)

        while not loop.empty:
            t_s, kind, payload = loop.pop()
            if kind == SAMPLE:
                # Telemetry boundary: read every replica's state, keep
                # sampling while the run can still produce events (the
                # heap would otherwise never drain).
                timeline.sample(t_s, schedulers)
                if arrivals_left or any(in_heap):
                    loop.push(timeline.next_sample_s, SAMPLE, None)
                continue
            if kind == STEP:
                idx = payload
                rep = replicas[idx]
                rep.n_wakeups += 1
                if rep.iterations >= max_iterations:
                    raise RuntimeError(
                        f"replica {rep.replica_id} exceeded "
                        f"{max_iterations} iterations; the offered load "
                        "likely diverges")
                # Arrivals pop in ``pending`` order, so the next one is
                # at a fixed index; with the timeline's next SAMPLE it
                # bounds a replayed run.
                horizon_s = (pending[len(pending) - arrivals_left].arrival_s
                             if arrivals_left else math.inf)
                if timeline is not None:
                    horizon_s = min(horizon_s, timeline.next_sample_s)
                ran = rep.iterations
                done = rep.step(horizon_s, max_iterations)
                # Step events count iterations, replayed ones included.
                replayed = rep.iterations - ran - 1
                loop.stats.n_step_events += replayed
                loop.stats.n_events += replayed
                if timeline is not None and done:
                    timeline.on_complete(idx, done, rep.now_s)
                if rep.has_work:
                    loop.push(rep.now_s, STEP, idx)
                else:
                    in_heap[idx] = False
                continue
            req = payload
            arrivals_left -= 1
            candidates = [i for i, rep in enumerate(replicas)
                          if rep.scheduler.fits(req)]
            if not candidates:
                rejected.append(req)
                if tracer.enabled:
                    # No replica could ever hold it; pin to track 0.
                    tracer.event(EVT_REJECTED, req.arrival_s, 0,
                                 req.req_id)
                if timeline is not None:
                    # Rejections happen at the front end, before
                    # routing; pin to replica 0 like the trace does.
                    timeline.on_reject(0)
                continue
            idx = self.policy.choose(req, replicas, candidates)
            if idx not in candidates:
                raise ValueError(
                    f"policy {self.policy.name!r} chose replica {idx}, "
                    f"not one of the feasible {candidates}")
            replicas[idx].submit(req)
            assignments[req.req_id] = idx
            if timeline is not None:
                timeline.on_arrival(idx)
            if not in_heap[idx]:
                loop.push(replicas[idx].now_s, STEP, idx)
                in_heap[idx] = True
        self.last_event_stats = loop.stats

        for rep in replicas:
            alloc = getattr(rep.scheduler, "allocator", None)
            if alloc is not None and alloc.sanitize:
                # Per-replica full-heap audit at drain (reads state
                # only; raises SanitizeError on a broken invariant).
                alloc.audit_drained()

        records = [
            RequestRecord(
                req_id=s.request.req_id,
                arrival_s=s.request.arrival_s,
                first_token_s=s.first_token_s,
                finished_s=s.finished_s,
                prompt_tokens=s.request.prompt_tokens,
                output_tokens=s.request.output_tokens,
                queued_s=s.admitted_s - s.request.arrival_s,
                cached_tokens=s.cached_tokens,
            )
            for rep in replicas for s in rep.finished
        ]
        records.sort(key=lambda r: r.req_id)
        if tracer.enabled:
            for rep in replicas:
                tracer.record_sequences(rep.replica_id, rep.finished)
        registry = MetricsRegistry()
        for rep in replicas:
            emit = getattr(rep.scheduler, "emit_metrics", None)
            if emit is not None:
                emit(registry, replica=str(rep.replica_id))
        loop.stats.emit_metrics(registry)
        observe_request_metrics(registry, records,
                                n_rejected=len(rejected))
        prefix = [
            stats for rep in replicas
            if getattr(rep.scheduler, "prefix_caching", False)
            and (stats := rep.scheduler.prefix_stats()) is not None
        ]
        makespan_s = max(rep.now_s for rep in replicas)
        timeline_obj = slo_report = None
        if timeline is not None:
            timeline_obj = timeline.finalize(makespan_s, schedulers)
            if self.config.timeline.tracks_slo:
                slo_report = SLOMonitor(
                    target=self.config.timeline.slo_target,
                ).evaluate(timeline_obj)
        return FleetReport(
            name=self.name,
            policy=self.policy.name,
            n_replicas=len(replicas),
            records=records,
            assignments=assignments,
            makespan_s=makespan_s,
            replica_stats=[ReplicaStats(rep.n_submitted, rep.iterations,
                                        rep.peak_kv,
                                        rep.scheduler.n_preemptions)
                           for rep in replicas],
            n_rejected=len(rejected),
            prefix_caching=bool(prefix),
            prefix_lookups=sum(p.n_lookups for p in prefix),
            prefix_lookup_hits=sum(p.n_lookup_hits for p in prefix),
            prefix_hit_tokens=sum(p.hit_tokens for p in prefix),
            prefix_miss_tokens=sum(p.miss_tokens for p in prefix),
            n_evicted_blocks=sum(p.n_evicted_blocks for p in prefix),
            event_stats=loop.stats,
            registry=registry,
            tracer=tracer if tracer.enabled else None,
            timeline=timeline_obj,
            slo=slo_report,
        )


def size_fleet(
    make_replicas: Callable[[int], Sequence[Replica]],
    trace: Sequence[Request],
    slo: SLO,
    policy: Union[str, RouterPolicy] = "jsq",
    max_replicas: int = 8,
    record_trace: bool = False,
    timeline=None,
) -> tuple:
    """Smallest fleet meeting an SLO at the trace's offered load.

    ``make_replicas(n)`` must return ``n`` *fresh* replicas (schedulers
    hold state across runs).  Returns ``(n, report)`` for the first
    compliant size, or ``(None, report)`` with the largest fleet's
    report if even ``max_replicas`` misses the SLO.  String policies
    are re-instantiated per size so stateful routers start clean.
    ``record_trace=True`` records a :mod:`repro.obs` timeline per tried
    size (each report carries its own tracer); ``timeline=`` passes a
    :class:`~repro.obs.timeline.TimelineConfig` through to each run.
    """
    if max_replicas < 1:
        raise ValueError("max_replicas must be >= 1")
    report = None
    for n in range(1, max_replicas + 1):
        sim = FleetSimulator(
            make_replicas(n),
            config=FleetConfig(policy=make_policy(policy)
                               if isinstance(policy, str) else policy,
                               name=f"fleet-{n}", trace=record_trace,
                               timeline=timeline))
        report = sim.run(trace)
        if report.meets(slo):
            return n, report
    return None, report
