"""Discrete-event continuous-batching serving simulator.

:class:`ServingSimulator` replays a request trace
(:mod:`repro.serve.requests`) through a
:class:`~repro.serve.scheduler.ContinuousBatchScheduler`, pricing each
iteration with a :class:`~repro.serve.costs.StepCostModel`.  Time is
owned by the shared event core (:class:`~repro.serve.events.EventLoop`
— arrivals are heap events, the engine's iteration boundary advances
the loop's clock), and each boundary runs the standard serving-engine
loop:

1. admit every request that has arrived by ``now``;
2. ask the scheduler for an iteration plan (decodes + prefill chunks);
3. if nothing is runnable, fast-forward the clock to the next arrival;
4. otherwise execute the plan: advance the clock by its modelled
   latency and commit token progress — replaying it, without planning,
   while it would repeat and no event is due
   (:meth:`ServingEngine.execute`).

The output is a :class:`ServingReport` with the request-level metrics
serving papers report: sustained request/token throughput, time to
first token (TTFT), time per output token (TPOT), and p50/p95/p99
end-to-end latency.

See ``docs/architecture.md`` for how this sits on top of the analytic
kernel stack.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLOMonitor
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import EVT_EVICTED, EVT_REJECTED, NULL_TRACER, Tracer
from repro.serve.api import SimConfig
from repro.serve.costs import StepCostModel
from repro.serve.events import ARRIVAL, SAMPLE, EventLoop
from repro.serve.requests import Request
from repro.serve.scheduler import (BatchPlan, ContinuousBatchScheduler,
                                   SequenceState)

#: Sentinel distinguishing "kwarg not passed" from any real value.
_UNSET = object()


def observe_request_metrics(registry: MetricsRegistry, records,
                            n_rejected: int = 0) -> None:
    """Emit request-outcome counters and latency histograms.

    Shared by the serving and fleet report builders; runs once at end
    of run over the completed :class:`RequestRecord` list (never in
    the hot loop), so registry contents are identical with tracing on
    or off.
    """
    registry.counter(
        "requests_completed_total",
        "Requests that finished decoding").inc(len(records))
    registry.counter(
        "requests_rejected_total",
        "Requests rejected at arrival (KV footprint over budget)",
    ).inc(n_rejected)
    ttft = registry.histogram(
        "ttft_ms", "Time to first token (ms)",
        start=1.0, factor=2.0, n_buckets=24)
    tpot = registry.histogram(
        "tpot_ms", "Time per output token after the first (ms)",
        start=0.25, factor=2.0, n_buckets=20)
    latency = registry.histogram(
        "latency_s", "End-to-end request latency (s)",
        start=0.001, factor=2.0, n_buckets=24)
    for r in records:
        ttft.observe(r.ttft_s * 1e3)
        if r.output_tokens > 1:
            tpot.observe(r.tpot_s * 1e3)
        latency.observe(r.latency_s)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (q in [0, 100]) of a sequence."""
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of an empty sequence")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class RequestRecord:
    """Timing record of one completed request."""

    req_id: int
    arrival_s: float
    first_token_s: float
    finished_s: float
    prompt_tokens: int
    output_tokens: int
    queued_s: float
    #: Prompt tokens served from the prefix cache at the last
    #: admission (0 without prefix caching).
    cached_tokens: int = 0

    @property
    def ttft_s(self) -> float:
        """Time to first token: arrival to first output token."""
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: arrival to last token."""
        return self.finished_s - self.arrival_s

    @property
    def tpot_s(self) -> float:
        """Time per output token after the first (0 for 1-token outputs)."""
        if self.output_tokens <= 1:
            return 0.0
        return ((self.finished_s - self.first_token_s)
                / (self.output_tokens - 1))


@dataclass
class ServingReport:
    """Aggregate metrics of one simulated serving run."""

    name: str
    records: List[RequestRecord]
    makespan_s: float
    n_iterations: int
    peak_seqs: int
    peak_kv_utilization: float
    #: Requests whose KV footprint exceeded the budget outright and
    #: were rejected at arrival (never admitted, not in ``records``).
    n_rejected: int = 0
    #: Admission policy of the scheduler that produced this report.
    admission: str = "reserve"
    #: Peak fraction of the KV budget actually resident in HBM (live
    #: tokens for reserve admission, allocated blocks for paged).
    peak_kv_occupancy: float = 0.0
    #: Recompute preemptions fired (paged admission only).
    n_preempted: int = 0
    #: Whether the scheduler shared KV blocks across common prefixes.
    prefix_caching: bool = False
    #: Fraction of admissions that matched at least one cached block.
    prefix_hit_rate: float = 0.0
    #: Fraction of looked-up prompt tokens served from the cache.
    cached_token_fraction: float = 0.0
    #: Cached blocks reclaimed by LRU eviction over the run.
    n_evicted_blocks: int = 0
    #: Copy-on-write block copies: the prompt's next block was cached
    #: but had to be recomputed privately because the prompt ends
    #: inside it (e.g. a fully cached prompt recomputing its last
    #: block for logits).
    n_cow_copies: int = 0
    #: Event-loop statistics of the run (:class:`~repro.serve.events.
    #: EventStats`), surfaced into :meth:`metrics`.
    event_stats: Optional[object] = None
    #: The run's :class:`~repro.obs.metrics.MetricsRegistry`; its flat
    #: dict is merged into :meth:`metrics` and its Prometheus text is
    #: available via ``registry.to_prometheus()``.
    registry: Optional[object] = None
    #: The run's :class:`~repro.obs.trace.Tracer` when the simulation
    #: ran with ``SimConfig(trace=True)``, else ``None``.
    tracer: Optional[object] = None
    #: The run's :class:`~repro.obs.timeline.Timeline` when it ran
    #: with ``SimConfig(timeline=...)``, else ``None``.  Never merged
    #: into :meth:`metrics` — windowed series are an observability
    #: product, and metrics stay bit-identical with sampling on/off.
    timeline: Optional[object] = None
    #: Evaluated :class:`~repro.obs.slo.SLOReport` when the timeline
    #: config carried SLO limits, else ``None``.
    slo: Optional[object] = None

    # -- throughput ----------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.records)

    @property
    def throughput_rps(self) -> float:
        """Sustained request throughput over the makespan."""
        return self.n_requests / self.makespan_s if self.makespan_s else 0.0

    @property
    def output_tokens_per_s(self) -> float:
        total = sum(r.output_tokens for r in self.records)
        return total / self.makespan_s if self.makespan_s else 0.0

    # -- latency -------------------------------------------------------
    def ttft_s(self, q: float = 50.0) -> float:
        """TTFT percentile (0.0 when nothing completed)."""
        if not self.records:
            return 0.0
        return percentile([r.ttft_s for r in self.records], q)

    def tpot_s(self, q: float = 50.0) -> float:
        """TPOT percentile over multi-token requests (0.0 if none)."""
        values = [r.tpot_s for r in self.records if r.output_tokens > 1]
        if not values:
            return 0.0
        return percentile(values, q)

    def latency_s(self, q: float = 50.0) -> float:
        """End-to-end latency percentile (0.0 when nothing completed)."""
        if not self.records:
            return 0.0
        return percentile([r.latency_s for r in self.records], q)

    def metrics(self) -> dict:
        """Flat JSON-safe metric dict (plain ``int``/``float`` values).

        This is the structured form the experiment orchestrator
        persists to the ``BENCH_<pr>.json`` perf trajectory; keys are
        shared with :meth:`repro.cluster.fleet.FleetReport.metrics`
        where the concepts coincide, so trajectory deltas can compare
        serving and fleet trials uniformly.  Derived quantities are
        stored exactly as computed (no rounding): JSON round-trips
        Python floats losslessly, which is what lets golden tests pin
        persisted metrics bit-identical.
        """
        out = {
            "n_requests": self.n_requests,
            "n_rejected": self.n_rejected,
            "makespan_s": self.makespan_s,
            "n_iterations": self.n_iterations,
            "throughput_rps": self.throughput_rps,
            "output_tokens_per_s": self.output_tokens_per_s,
            "ttft_p50_ms": self.ttft_s(50) * 1e3,
            "ttft_p95_ms": self.ttft_s(95) * 1e3,
            "tpot_p50_ms": self.tpot_s(50) * 1e3,
            "latency_p50_s": self.latency_s(50),
            "latency_p99_s": self.latency_s(99),
            "peak_seqs": self.peak_seqs,
            "peak_kv_utilization": self.peak_kv_utilization,
            "peak_kv_occupancy": self.peak_kv_occupancy,
            "n_preempted": self.n_preempted,
            "prefix_hit_rate": self.prefix_hit_rate,
            "cached_token_fraction": self.cached_token_fraction,
            "n_evicted_blocks": self.n_evicted_blocks,
            "n_cow_copies": self.n_cow_copies,
        }
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
            f"{self.name}: {self.n_requests} requests in "
            f"{self.makespan_s:.2f} s ({self.n_iterations} iterations)",
            f"  throughput : {self.throughput_rps:6.2f} req/s, "
            f"{self.output_tokens_per_s:8.1f} output tok/s",
            f"  TTFT       : p50 {self.ttft_s(50) * 1e3:8.1f} ms, "
            f"p95 {self.ttft_s(95) * 1e3:8.1f} ms",
            f"  TPOT       : p50 {self.tpot_s(50) * 1e3:8.2f} ms/token",
            f"  latency    : p50 {self.latency_s(50):6.2f} s, "
            f"p95 {self.latency_s(95):6.2f} s, "
            f"p99 {self.latency_s(99):6.2f} s",
            f"  concurrency: peak {self.peak_seqs} seqs, "
            f"peak KV use {self.peak_kv_utilization:.0%} "
            f"({self.admission}), "
            f"occupancy {self.peak_kv_occupancy:.0%}",
        ]
        if self.prefix_caching:
            lines.append(
                f"  prefix     : {self.prefix_hit_rate:.0%} admissions "
                f"hit, {self.cached_token_fraction:.0%} of prompt tokens "
                f"cached, {self.n_evicted_blocks} blocks evicted")
        if self.n_preempted:
            lines.append(f"  preempted  : {self.n_preempted} recompute "
                         "preemptions")
        if self.n_rejected:
            lines.append(f"  rejected   : {self.n_rejected} requests "
                         "exceeded the KV budget")
        if self.slo is not None:
            lines.extend("  " + ln for ln in
                         self.slo.summary().splitlines())
        return "\n".join(lines)


class ServingEngine:
    """One serving engine: a scheduler and a cost model behind a
    private clock, plus the counters a report reads.

    Both drivers run iterations through :meth:`execute` — the
    single-engine :class:`ServingSimulator` on one instance, the fleet
    on each :class:`~repro.cluster.fleet.Replica` — so pricing,
    decode-run replay and plan application live in one place.
    """

    def __init__(self, scheduler: ContinuousBatchScheduler,
                 cost_model: StepCostModel, replica_id: int = 0):
        self.replica_id = replica_id
        self.scheduler = scheduler
        self.cost_model = cost_model
        self.now_s = 0.0
        #: Executed iterations, replayed ones included.
        self.iterations = 0
        self.peak_kv = 0.0
        self.finished: List[SequenceState] = []
        #: The driver's tracer.  A traced engine replays nothing: the
        #: tracer writes one row per iteration.
        self.tracer = NULL_TRACER
        #: Eviction count already traced, for delta instants.
        self._last_evicted = 0

    def execute(self, plan: BatchPlan, horizon_s: float,
                max_iterations: int) -> List[SequenceState]:
        """Price and run ``plan``, replaying it while it repeats; return
        the sequences that finished (also appended to :attr:`finished`).

        After the first iteration, the scheduler's
        :meth:`~ContinuousBatchScheduler.repeat_room` and the cost
        model's ``repeat_room`` bound how many further iterations would
        plan and price exactly the same batch.  They are replayed
        without planning while each starts before ``horizon_s`` — the
        driver's next event that could observe or change this engine —
        and the engine stays within ``max_iterations``.  The clock
        repeats the step-by-step float addition, never one
        multiplication, so every modeled number stays bit-identical.
        """
        sched = self.scheduler
        tracer = self.tracer
        self.iterations += 1
        step_us = self.cost_model.step_us(plan)
        t0 = self.now_s
        dt = step_us / 1e6
        now_s = t0 + dt
        if horizon_s > now_s and not tracer.enabled:
            room = min(self.cost_model.repeat_room(plan),
                       max_iterations - self.iterations)
            room = sched.repeat_room(plan, room)
            repeats = 0
            while repeats < room and horizon_s > now_s:
                now_s += dt
                repeats += 1
            if repeats:
                sched.repeat(plan, repeats)
                self.iterations += repeats
        self.now_s = now_s
        # Utilization only grows within a replayed run, so one read
        # after it is the run's maximum.
        self.peak_kv = max(self.peak_kv, sched.kv_utilization)
        if tracer.enabled:
            tracer.step(self.replica_id, t0, step_us, plan,
                        sched.kv_occupancy)
            evicted = getattr(getattr(sched, "allocator", None),
                              "n_evicted_blocks", 0)
            if evicted > self._last_evicted:
                tracer.event(EVT_EVICTED, t0, self.replica_id, -1,
                             evicted - self._last_evicted)
                self._last_evicted = evicted
        done = sched.complete(plan, now_s)
        self.finished.extend(done)
        return done


class ServingSimulator:
    """Drives a trace through scheduler + cost model to a report."""

    def __init__(self, scheduler: ContinuousBatchScheduler,
                 cost_model: StepCostModel, name: str = _UNSET,
                 config: Optional[SimConfig] = None):
        if config is not None:
            if name is not _UNSET:
                raise TypeError(
                    "pass either config= or the legacy name= kwarg, "
                    "not both")
        else:
            if name is not _UNSET:
                warnings.warn(
                    "passing simulator options as individual kwargs is "
                    "deprecated; pass config=SimConfig(...) "
                    "(repro.serve.api)", DeprecationWarning, stacklevel=2)
                config = SimConfig(name=name)
            else:
                config = SimConfig()
        self.config = config
        self.scheduler = scheduler
        self.cost_model = cost_model
        self.name = config.name

    def run(self, trace: Sequence[Request],
            max_iterations: Optional[int] = None) -> ServingReport:
        """Simulate the full trace; returns the metric report.

        ``max_iterations`` defaults to the config's cap.
        """
        if max_iterations is None:
            max_iterations = self.config.max_iterations
        pending = sorted(trace, key=lambda r: r.arrival_s)
        if not pending:
            raise ValueError("empty trace")
        loop = EventLoop()
        for req in pending:
            loop.push(req.arrival_s, ARRIVAL, req)
        sched = self.scheduler
        engine = ServingEngine(sched, self.cost_model)
        tracer = Tracer(name=self.name) if self.config.trace else NULL_TRACER
        self.tracer = tracer
        if tracer.enabled:
            sched.tracer = tracer
            engine.tracer = tracer
        timeline = (TimelineCollector(self.config.timeline,
                                      n_replicas=1, name=self.name)
                    if self.config.timeline is not None else None)
        arrivals_left = len(pending)
        if timeline is not None:
            loop.push(timeline.next_sample_s, SAMPLE, None)

        rejected: List[Request] = []
        while True:
            while True:
                nxt = loop.peek()
                if nxt is None or nxt[0] > engine.now_s:
                    break
                t_evt, kind, req = loop.pop()
                if kind == SAMPLE:
                    # Telemetry boundary: close the window, keep
                    # sampling while the run can still produce events.
                    timeline.sample(t_evt, (sched,))
                    if arrivals_left or sched.has_work:
                        loop.push(timeline.next_sample_s, SAMPLE, None)
                    continue
                arrivals_left -= 1
                if not sched.fits(req):
                    # Could never be admitted: reject up front (a real
                    # server returns 4xx) instead of wedging the queue.
                    rejected.append(req)
                    if tracer.enabled:
                        tracer.event(EVT_REJECTED, req.arrival_s, 0,
                                     req.req_id)
                    if timeline is not None:
                        timeline.on_reject(0)
                    continue
                sched.submit(req)
                if timeline is not None:
                    timeline.on_arrival(0)

            plan = sched.schedule(engine.now_s)
            if plan.empty:
                nxt = loop.peek()
                while nxt is not None and nxt[1] == SAMPLE:
                    # Idle telemetry boundary: close the window without
                    # advancing now_s — the clock only follows
                    # simulation events, so makespan (and every other
                    # metric) stays bit-identical with sampling on.
                    t_evt, _, _ = loop.pop()
                    timeline.sample(t_evt, (sched,))
                    if arrivals_left:
                        loop.push(timeline.next_sample_s, SAMPLE, None)
                    nxt = loop.peek()
                if nxt is not None:
                    # Idle: fast-forward to the next arrival.
                    engine.now_s = max(engine.now_s, nxt[0])
                    continue
                if not sched.has_work:
                    break  # drained
                # The scheduler preempts until a plan makes progress
                # whenever two or more sequences run, and a lone
                # sequence always fits the pool, so work pending under
                # an empty plan is a scheduler bug — fail loudly rather
                # than silently drop in-flight requests, matching
                # Replica.step in the fleet layer.
                raise RuntimeError(
                    "scheduler made no progress with work pending "
                    f"({len(sched.running)} running, "
                    f"{len(sched.waiting)} waiting, "
                    f"{len(getattr(sched, 'preempted', ()))} preempted)")

            if engine.iterations >= max_iterations:
                raise RuntimeError(
                    f"simulation exceeded {max_iterations} iterations; "
                    "the offered load likely diverges")
            # The heap holds only arrivals and SAMPLEs: its head bounds
            # a replayed run (nxt is the peek that ended event intake).
            done = engine.execute(plan, math.inf if nxt is None else nxt[0],
                                  max_iterations)
            if timeline is not None and done:
                timeline.on_complete(0, done, engine.now_s)

        alloc = getattr(sched, "allocator", None)
        if alloc is not None and alloc.sanitize:
            # Full-heap audit at drain: every sequence finished, so the
            # pool must be back to empty (only reads state; raises
            # SanitizeError on any broken invariant).
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
            for s in engine.finished
        ]
        records.sort(key=lambda r: r.req_id)
        if tracer.enabled:
            tracer.record_sequences(0, engine.finished)
        self.last_event_stats = loop.stats
        registry = MetricsRegistry()
        # Duck-typed schedulers (equivalence-test stand-ins) may not
        # emit; the run still gets event-loop and request metrics.
        emit = getattr(sched, "emit_metrics", None)
        if emit is not None:
            emit(registry)
        loop.stats.emit_metrics(registry)
        observe_request_metrics(registry, records,
                                n_rejected=len(rejected))
        prefix = (sched.prefix_stats()
                  if getattr(sched, "prefix_caching", False) else None)
        timeline_obj = slo_report = None
        if timeline is not None:
            timeline_obj = timeline.finalize(engine.now_s, (sched,))
            if self.config.timeline.tracks_slo:
                slo_report = SLOMonitor(
                    target=self.config.timeline.slo_target,
                ).evaluate(timeline_obj)
        return ServingReport(
            name=self.name,
            records=records,
            makespan_s=engine.now_s,
            n_iterations=engine.iterations,
            peak_seqs=sched.peak_seqs,
            peak_kv_utilization=engine.peak_kv,
            n_rejected=len(rejected),
            admission=getattr(sched, "admission", "reserve"),
            peak_kv_occupancy=getattr(sched, "peak_kv_occupancy", 0.0),
            n_preempted=getattr(sched, "n_preemptions", 0),
            prefix_caching=prefix is not None,
            prefix_hit_rate=prefix.hit_rate if prefix else 0.0,
            cached_token_fraction=(prefix.cached_token_fraction
                                   if prefix else 0.0),
            n_evicted_blocks=prefix.n_evicted_blocks if prefix else 0,
            n_cow_copies=prefix.n_cow_copies if prefix else 0,
            event_stats=loop.stats,
            registry=registry,
            tracer=tracer if tracer.enabled else None,
            timeline=timeline_obj,
            slo=slo_report,
        )
