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
3. if nothing is runnable, take the next arrival (only an admitted
   one moves the clock);
4. otherwise execute the plan: advance the clock by its modelled
   latency and commit token progress — replaying it, without planning,
   while it would repeat and no event is due
   (:meth:`ServingEngine.execute`).

The output is a :class:`ServingReport` with the request-level metrics
serving papers report: sustained request/token throughput, time to
first token (TTFT), time per output token (TPOT), and p50/p95/p99
end-to-end latency.

Everything but the heap loop is shared with the fleet driver
(:class:`~repro.cluster.fleet.FleetSimulator`): the engine that runs
iterations (:class:`ServingEngine`), the run's set-up, arrival intake
and epilogue (:class:`SimulationRun`), and the report base
(:class:`Report`).

See ``docs/architecture.md`` for how this sits on top of the analytic
kernel stack.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.slo import slo_report
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import EVT_EVICTED, EVT_REJECTED, NULL_TRACER, Tracer
from repro.serve.api import FleetConfig, SimConfig
from repro.serve.costs import StepCostModel
from repro.serve.events import ARRIVAL, SAMPLE, EventLoop, EventStats
from repro.serve.requests import Request
from repro.serve.sanitize import SanitizeError
from repro.serve.scheduler import (BatchPlan, ContinuousBatchScheduler,
                                   SequenceState)


def observe_request_metrics(registry: MetricsRegistry, records,
                            n_rejected: int = 0) -> None:
    """Emit request-outcome counters and latency histograms.

    Runs once per run, in the shared epilogue
    (:meth:`SimulationRun.finish`), over the completed
    :class:`RequestRecord` list (never in the hot loop), so registry
    contents are identical with tracing on or off.
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


@dataclass(kw_only=True)
class Report:
    """What a simulation reports, whichever driver ran it.

    The base of :class:`ServingReport` and
    :class:`~repro.cluster.fleet.FleetReport`: completed-request records
    over a makespan, rejection, preemption and prefix-cache counters,
    the run's observability products, throughput and exact latency
    percentiles.  Each subclass defines ``metrics()`` — the flat
    JSON-safe dict the experiment orchestrator persists, built by
    :meth:`_metrics` — and ``summary()``, built by :meth:`_summary`.
    """

    name: str
    records: List[RequestRecord]
    makespan_s: float
    #: Requests whose KV footprint exceeded every engine's budget
    #: outright and were rejected at arrival (never admitted, not in
    #: ``records``).
    n_rejected: int = 0
    #: Recompute preemptions fired (paged admission only).
    n_preempted: int = 0
    #: Whether any engine shared KV blocks across common prefixes.
    prefix_caching: bool = False
    #: Prefix-cache counters summed across engines.
    prefix_lookups: int = 0
    prefix_lookup_hits: int = 0
    prefix_hit_tokens: int = 0
    prefix_miss_tokens: int = 0
    #: Cached blocks reclaimed by LRU eviction over the run.
    n_evicted_blocks: int = 0
    #: Copy-on-write block copies: the prompt's next block was cached
    #: but had to be recomputed privately because the prompt ends
    #: inside it (e.g. a fully cached prompt recomputing its last
    #: block for logits).
    n_cow_copies: int = 0
    #: Event-loop statistics of the run, surfaced into ``metrics()``.
    event_stats: Optional[EventStats] = None
    #: The run's :class:`~repro.obs.metrics.MetricsRegistry`; its flat
    #: dict is merged into ``metrics()``.
    registry: Optional[MetricsRegistry] = None
    #: The run's :class:`~repro.obs.trace.Tracer` when the simulation
    #: ran with ``trace=True`` in its config, else ``None``.
    tracer: Optional[Tracer] = None
    #: The run's :class:`~repro.obs.timeline.Timeline` when it ran
    #: with ``timeline=...`` in its config, else ``None``.  Never
    #: merged into ``metrics()`` — windowed series are an observability
    #: product, and metrics stay bit-identical with sampling on/off.
    timeline: Optional[object] = None
    #: Evaluated :class:`~repro.obs.slo.SLOReport` when the timeline
    #: config carried an SLO, else ``None``.
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

    # -- prefix cache --------------------------------------------------
    @property
    def prefix_hit_rate(self) -> float:
        """Fraction of admissions that matched at least one cached block."""
        return self.prefix_lookup_hits / max(1, self.prefix_lookups)

    @property
    def cached_token_fraction(self) -> float:
        """Fraction of looked-up prompt tokens served from the cache."""
        total = self.prefix_hit_tokens + self.prefix_miss_tokens
        return self.prefix_hit_tokens / max(1, total)

    # -- latency -------------------------------------------------------
    def ttft_s(self, q: float = 50.0) -> float:
        """TTFT percentile (0.0 when nothing completed)."""
        return _percentile([r.ttft_s for r in self.records], q)

    def tpot_s(self, q: float = 50.0) -> float:
        """TPOT percentile over multi-token requests (0.0 if none)."""
        return _percentile(
            [r.tpot_s for r in self.records if r.output_tokens > 1], q)

    def latency_s(self, q: float = 50.0) -> float:
        """End-to-end latency percentile (0.0 when nothing completed)."""
        return _percentile([r.latency_s for r in self.records], q)

    # -- export --------------------------------------------------------
    def _metrics(self, own: dict) -> dict:
        """The flat JSON-safe metric dict (plain ``int``/``float``
        values): the keys every report shares, then the subclass's
        ``own`` keys, then event counters and the registry's flat dict.

        Shared key names let the orchestrator's trajectory deltas
        compare serving and fleet trials uniformly.  Derived quantities
        are stored exactly as computed (no rounding): JSON round-trips
        Python floats losslessly, which is what lets golden tests pin
        persisted metrics bit-identical.
        """
        out = {
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
            **own,
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

    def _summary(self, header: str, detail: List[str]) -> str:
        """Multi-line human-readable summary: ``header``, the shared
        throughput and latency lines, the subclass's ``detail`` lines,
        then prefix-cache, rejection and SLO lines when they apply."""
        lines = [
            header,
            f"  throughput : {self.throughput_rps:6.2f} req/s, "
            f"{self.output_tokens_per_s:8.1f} output tok/s",
            f"  TTFT       : p50 {self.ttft_s(50) * 1e3:8.1f} ms, "
            f"p95 {self.ttft_s(95) * 1e3:8.1f} ms",
            f"  TPOT       : p50 {self.tpot_s(50) * 1e3:8.2f} ms/token",
            f"  latency    : p50 {self.latency_s(50):6.2f} s, "
            f"p95 {self.latency_s(95):6.2f} s, "
            f"p99 {self.latency_s(99):6.2f} s",
            *detail,
        ]
        if self.prefix_caching:
            lines.append(
                f"  prefix     : {self.prefix_hit_rate:.0%} admissions "
                f"hit, {self.cached_token_fraction:.0%} of prompt tokens "
                f"cached, {self.n_evicted_blocks} blocks evicted")
        if self.n_rejected:
            lines.append(f"  rejected   : {self.n_rejected} requests "
                         "exceeded every KV budget")
        if self.slo is not None:
            lines.extend("  " + ln for ln in
                         self.slo.summary().splitlines())
        return "\n".join(lines)


def _percentile(values: List[float], q: float) -> float:
    """:func:`~repro.obs.metrics.percentile`, 0.0 for no values."""
    return percentile(values, q) if values else 0.0


@dataclass
class ServingReport(Report):
    """Aggregate metrics of one simulated single-engine serving run."""

    n_iterations: int
    peak_seqs: int
    peak_kv_utilization: float
    #: Admission policy of the scheduler that produced this report.
    admission: str = "reserve"
    #: Peak fraction of the KV budget actually resident in HBM (live
    #: tokens for reserve admission, allocated blocks for paged).
    peak_kv_occupancy: float = 0.0

    def metrics(self) -> dict:
        """Flat JSON-safe metric dict (see :meth:`Report._metrics`)."""
        return self._metrics({
            "n_iterations": self.n_iterations,
            "peak_seqs": self.peak_seqs,
            "peak_kv_utilization": self.peak_kv_utilization,
            "peak_kv_occupancy": self.peak_kv_occupancy,
            "n_cow_copies": self.n_cow_copies,
        })

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        detail = [
            f"  concurrency: peak {self.peak_seqs} seqs, "
            f"peak KV use {self.peak_kv_utilization:.0%} "
            f"({self.admission}), "
            f"occupancy {self.peak_kv_occupancy:.0%}",
        ]
        if self.n_preempted:
            detail.append(f"  preempted  : {self.n_preempted} recompute "
                          "preemptions")
        return self._summary(
            f"{self.name}: {self.n_requests} requests in "
            f"{self.makespan_s:.2f} s ({self.n_iterations} iterations)",
            detail)


class RunLayout:
    """A planned iteration laid out as a run of ``n`` iterations that
    plan and price exactly the same batch.

    Iteration ``j`` starts at ``start_s`` plus ``j`` additions of
    ``dt`` — the float chain step-by-step execution computes — and
    ``end_s`` is the clock after the last one.  Nothing is applied yet:
    :meth:`ServingEngine.apply` applies the first ``k`` iterations.

    The cursor (``k``, ``at_s``) counts the iterations known to start
    before the latest :meth:`seek` time and holds the next one's start
    (``end_s`` once all ``n`` have started).  The first iteration
    started at ``start_s``, so the cursor begins at one.
    """

    __slots__ = ("plan", "step_us", "start_s", "dt", "n", "end_s", "k",
                 "at_s")

    def __init__(self, plan: BatchPlan, step_us: float, start_s: float,
                 dt: float, n: int, end_s: float):
        self.plan = plan
        self.step_us = step_us
        self.start_s = start_s
        self.dt = dt
        self.n = n
        self.end_s = end_s
        self.k = 1
        self.at_s = start_s + dt

    def seek(self, t_s: float) -> bool:
        """Move the cursor past every iteration that starts strictly
        before ``t_s`` (never back); return whether all ``n`` do."""
        k, at_s, n, dt = self.k, self.at_s, self.n, self.dt
        while k < n and at_s < t_s:
            at_s += dt
            k += 1
        self.k, self.at_s = k, at_s
        return k == n


class ServingEngine:
    """One serving engine: a scheduler and a cost model behind a
    private clock, plus the counters a report reads.

    Both drivers run iterations through :meth:`lay_out` and
    :meth:`apply` — the single-engine :class:`ServingSimulator` on one
    instance through :meth:`execute`, the fleet on each
    :class:`~repro.cluster.fleet.Replica` — so pricing, decode-run
    replay and plan application live in one place.
    """

    def __init__(self, scheduler: ContinuousBatchScheduler,
                 cost_model: StepCostModel, replica_id: int = 0):
        self.replica_id = replica_id
        self.scheduler = scheduler
        self.cost_model = cost_model
        self.now_s = 0.0
        #: Requests admitted to this engine.
        self.n_submitted = 0
        #: Executed iterations, replayed ones included.
        self.iterations = 0
        self.peak_kv = 0.0
        self.finished: List[SequenceState] = []
        #: The driver's tracer.  A traced engine replays nothing: the
        #: tracer writes one row per iteration.
        self.tracer = NULL_TRACER
        #: Eviction count already traced, for delta instants.
        self._last_evicted = 0

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work

    def submit(self, request: Request) -> None:
        """Admit one request; the clock moves up to its arrival (an idle
        engine waits for it) but never back."""
        self.now_s = max(self.now_s, request.arrival_s)
        self.scheduler.submit(request)
        self.n_submitted += 1

    def lay_out(self, plan: BatchPlan, horizon_s: float,
                max_iterations: int) -> RunLayout:
        """Price ``plan`` once and lay out the run of iterations that
        would plan and price it again, without applying any.

        After the first iteration, the scheduler's
        :meth:`~ContinuousBatchScheduler.repeat_room` and the cost
        model's ``repeat_room`` bound how many further iterations would
        plan and price exactly the same batch.  The run takes them
        while each starts before ``horizon_s`` — the next event that
        must see the run applied: the single engine's next arrival or
        SAMPLE, a fleet replica's next SAMPLE — and the engine stays
        within ``max_iterations``.  The clock repeats the
        step-by-step float addition, never one multiplication, so every
        modeled number stays bit-identical.
        """
        step_us = self.cost_model.step_us(plan)
        t0 = self.now_s
        dt = step_us / 1e6
        now_s = t0 + dt
        n = 1
        if horizon_s > now_s and not self.tracer.enabled:
            room = min(self.cost_model.repeat_room(plan),
                       max_iterations - self.iterations - 1)
            room = self.scheduler.repeat_room(plan, room)
            while n <= room and horizon_s > now_s:
                now_s += dt
                n += 1
        return RunLayout(plan, step_us, t0, dt, n, now_s)

    def apply(self, run: RunLayout, k: int,
              now_s: float) -> List[SequenceState]:
        """Apply the first ``k`` iterations of ``run``, which end at
        ``now_s``; return the sequences that finished (also appended to
        :attr:`finished`).

        Only the run's last iteration can finish a sequence
        (:meth:`~ContinuousBatchScheduler.repeat_room`), so applying
        fewer than ``run.n`` finishes none.
        """
        sched = self.scheduler
        plan = run.plan
        self.iterations += k
        if k > 1:
            sched.repeat(plan, k - 1)
        self.now_s = now_s
        # Utilization only grows within a replayed run, so one read
        # after it is the run's maximum.
        self.peak_kv = max(self.peak_kv, sched.kv_utilization)
        tracer = self.tracer
        if tracer.enabled:
            tracer.step(self.replica_id, run.start_s, run.step_us, plan,
                        sched.kv_occupancy)
            # Only the prefix-caching allocator evicts.
            evicted = getattr(sched.allocator, "n_evicted_blocks", 0)
            if evicted > self._last_evicted:
                tracer.event(EVT_EVICTED, run.start_s, self.replica_id,
                             -1, evicted - self._last_evicted)
                self._last_evicted = evicted
        done = sched.complete(plan, now_s)
        self.finished.extend(done)
        return done

    def execute(self, plan: BatchPlan, horizon_s: float,
                max_iterations: int) -> List[SequenceState]:
        """Price and run ``plan``, replaying it while it repeats
        (:meth:`lay_out`), and apply the whole run; return the
        sequences that finished."""
        run = self.lay_out(plan, horizon_s, max_iterations)
        return self.apply(run, run.n, run.end_s)


class SimulationRun:
    """The set-up, intake and epilogue both drivers share.

    A driver builds one per ``run`` call over its engines, then runs its
    own heap loop: arrivals popped from :attr:`loop` go to
    :meth:`arrive`, SAMPLE events to :meth:`sample`.  Once the heap
    drains, :meth:`finish` audits the engines, balances the run ledger
    and returns the :class:`Report` fields every driver fills the same
    way.
    """

    def __init__(self, engines: Sequence[ServingEngine],
                 config: Union[SimConfig, FleetConfig],
                 trace: Sequence[Request],
                 max_iterations: Optional[int] = None,
                 route: Optional[Callable[[Request, List[int]], int]] = None):
        self.engines = engines
        self.config = config
        #: Iteration cap per engine; defaults to the config's.
        self.max_iterations = (config.max_iterations
                               if max_iterations is None else max_iterations)
        #: Picks an engine among those that can hold a request; the
        #: first one when there is no router.
        self.route = route
        self.pending = sorted(trace, key=lambda r: r.arrival_s)
        if not self.pending:
            raise ValueError("empty trace")
        self.arrivals_left = len(self.pending)
        self.n_rejected = 0
        #: Requests the engines were given before this run (a caller
        #: may preload one), for the run ledger.
        self._submitted_before = sum(eng.n_submitted for eng in engines)
        #: req_id -> engine index, for every admitted request.
        self.assignments: Dict[int, int] = {}
        self.loop = EventLoop()
        for req in self.pending:
            self.loop.push(req.arrival_s, ARRIVAL, req)
        self.tracer = (Tracer(name=config.name) if config.trace
                       else NULL_TRACER)
        if self.tracer.enabled:
            for eng in engines:
                eng.tracer = eng.scheduler.tracer = self.tracer
                eng.scheduler.trace_replica = eng.replica_id
        self.schedulers = tuple(eng.scheduler for eng in engines)
        self.timeline = (TimelineCollector(config.timeline,
                                           n_replicas=len(engines),
                                           name=config.name)
                         if config.timeline is not None else None)
        if self.timeline is not None:
            self.loop.push(self.timeline.next_sample_s, SAMPLE, None)

    def arrive(self, request: Request) -> Optional[int]:
        """Admit one arrival to an engine that can hold it; return the
        engine's index, or ``None`` when no budget ever could.

        A request that could never be admitted is rejected up front (a
        real server returns 4xx) instead of wedging a queue; it moves
        no clock, and its trace instant and timeline count are pinned
        to engine 0.
        """
        self.arrivals_left -= 1
        candidates = [i for i, eng in enumerate(self.engines)
                      if eng.scheduler.fits(request)]
        if not candidates:
            self.n_rejected += 1
            if self.tracer.enabled:
                self.tracer.event(EVT_REJECTED, request.arrival_s, 0,
                                  request.req_id)
            if self.timeline is not None:
                self.timeline.on_reject(0)
            return None
        idx = (self.route(request, candidates) if self.route is not None
               else candidates[0])
        self.engines[idx].submit(request)
        self.assignments[request.req_id] = idx
        if self.timeline is not None:
            self.timeline.on_arrival(idx)
        return idx

    def sample(self, t_s: float) -> None:
        """Close a telemetry window at a SAMPLE pop, and keep sampling
        while the run can still produce events (the heap would
        otherwise never drain).  Never moves a clock, so every metric
        stays bit-identical with sampling on."""
        self.timeline.sample(t_s, self.schedulers)
        if self.arrivals_left or any(eng.has_work for eng in self.engines):
            self.loop.push(self.timeline.next_sample_s, SAMPLE, None)

    def finish(self, labels: Sequence[dict]) -> dict:
        """Audit the drained engines, balance the run ledger
        (:func:`check_ledger`), and build the shared report fields.

        ``labels[i]`` are the metric labels engine ``i``'s scheduler
        emits its registry metrics under.
        """
        engines = self.engines
        for eng in engines:
            alloc = eng.scheduler.allocator
            if alloc is not None and alloc.sanitize:
                # Full-heap audit at drain: every sequence finished, so
                # the pool must be back to empty (only reads state;
                # raises SanitizeError on any broken invariant).
                alloc.audit_drained()
        check_ledger(engines, len(self.pending) - self.n_rejected,
                     self._submitted_before)
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
            for eng in engines for s in eng.finished
        ]
        records.sort(key=lambda r: r.req_id)
        if self.tracer.enabled:
            for eng in engines:
                self.tracer.record_sequences(eng.replica_id, eng.finished)
        registry = MetricsRegistry()
        for eng, engine_labels in zip(engines, labels):
            eng.scheduler.emit_metrics(registry, **engine_labels)
        self.loop.stats.emit_metrics(registry)
        observe_request_metrics(registry, records,
                                n_rejected=self.n_rejected)
        prefix = [
            stats for eng in engines
            if (stats := eng.scheduler.prefix_stats()) is not None
        ]
        makespan_s = max(eng.now_s for eng in engines)
        timeline = slo = None
        if self.timeline is not None:
            timeline = self.timeline.finalize(makespan_s, self.schedulers)
            if self.config.timeline.slo is not None:
                slo = slo_report(timeline)
        return dict(
            name=self.config.name,
            records=records,
            makespan_s=makespan_s,
            n_rejected=self.n_rejected,
            n_preempted=sum(eng.scheduler.n_preemptions
                            for eng in engines),
            prefix_caching=bool(prefix),
            prefix_lookups=sum(p.n_lookups for p in prefix),
            prefix_lookup_hits=sum(p.n_lookup_hits for p in prefix),
            prefix_hit_tokens=sum(p.hit_tokens for p in prefix),
            prefix_miss_tokens=sum(p.miss_tokens for p in prefix),
            n_evicted_blocks=sum(p.n_evicted_blocks for p in prefix),
            n_cow_copies=sum(p.n_cow_copies for p in prefix),
            event_stats=self.loop.stats,
            registry=registry,
            tracer=self.tracer if self.tracer.enabled else None,
            timeline=timeline,
            slo=slo,
        )


def check_ledger(engines: Sequence[ServingEngine], n_accepted: int,
                 submitted_before: int) -> None:
    """The run ledger, always on, in O(finished sequences): raise
    :class:`~repro.serve.sanitize.SanitizeError` unless

    - every arrival ended exactly once: the run gave its engines the
      ``n_accepted`` arrivals it did not reject, and each engine
      finished exactly the requests it was given (on fresh engines,
      finished plus rejected requests are the trace);
    - every finished sequence generated exactly its ``output_tokens``;
    - every finished sequence is causal: arrival <= first admission
      <= first token <= finish.

    ``submitted_before`` counts the requests the engines were given
    before the run.
    """
    submitted = sum(eng.n_submitted for eng in engines)
    if submitted - submitted_before != n_accepted:
        raise SanitizeError(
            f"run ledger: the engines were given "
            f"{submitted - submitted_before} requests for {n_accepted} "
            f"accepted arrivals")
    for eng in engines:
        if len(eng.finished) != eng.n_submitted:
            raise SanitizeError(
                f"run ledger: engine {eng.replica_id} finished "
                f"{len(eng.finished)} sequences for {eng.n_submitted} "
                f"requests")
    for seq in itertools.chain.from_iterable(
            eng.finished for eng in engines):
        req = seq.request
        if seq.generated != req.output_tokens:
            raise SanitizeError(
                f"run ledger: request {req.req_id} finished with "
                f"{seq.generated} of {req.output_tokens} output tokens")
        first, done = seq.first_token_s, seq.finished_s
        if (first is None or done is None
                or not req.arrival_s <= seq.admitted_s <= first <= done):
            raise SanitizeError(
                f"run ledger: request {req.req_id} is not causal: arrival "
                f"{req.arrival_s}, admitted {seq.admitted_s}, first token "
                f"{first}, finished {done}")


class ServingSimulator:
    """Drives a trace through scheduler + cost model to a report."""

    def __init__(self, scheduler: ContinuousBatchScheduler,
                 cost_model: StepCostModel,
                 config: Optional[SimConfig] = None):
        self.config = config if config is not None else SimConfig()
        self.scheduler = scheduler
        self.cost_model = cost_model
        self.name = self.config.name
        self._ran = False

    def run(self, trace: Sequence[Request],
            max_iterations: Optional[int] = None) -> ServingReport:
        """Simulate the full trace; returns the metric report.

        ``max_iterations`` defaults to the config's cap.  A simulator
        runs once: its scheduler keeps the run's state.
        """
        if self._ran:
            raise RuntimeError(
                "this ServingSimulator has already run; build a fresh "
                "one from its config (SimConfig.build)")
        self._ran = True
        sched = self.scheduler
        engine = ServingEngine(sched, self.cost_model)
        run = SimulationRun([engine], self.config, trace, max_iterations)
        loop, timeline = run.loop, run.timeline
        max_iterations = run.max_iterations
        while True:
            while True:
                nxt = loop.peek()
                if nxt is None or nxt[0] > engine.now_s:
                    break
                t_evt, kind, req = loop.pop()
                if kind == SAMPLE:
                    run.sample(t_evt)
                else:
                    run.arrive(req)

            plan = sched.schedule(engine.now_s)
            if plan.empty:
                if sched.has_work:
                    # The scheduler preempts until a plan makes progress
                    # whenever two or more sequences run, and a lone
                    # sequence always fits the pool, so work pending
                    # under an empty plan is a scheduler bug — fail
                    # loudly rather than silently drop in-flight
                    # requests, matching Replica.step in the fleet.
                    raise RuntimeError(
                        "scheduler made no progress with work pending "
                        f"({len(sched.running)} running, "
                        f"{len(sched.waiting)} waiting, "
                        f"{len(sched.preempted)} "
                        "preempted)")
                while nxt is not None and nxt[1] == SAMPLE:
                    # Idle telemetry boundary: close the window without
                    # advancing the clock.
                    run.sample(loop.pop()[0])
                    nxt = loop.peek()
                if nxt is None:
                    break  # drained
                # Idle: take the next arrival; only an admitted one
                # moves the clock, so makespan ends at the last
                # completion.
                run.arrive(loop.pop()[2])
                continue

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

        return ServingReport(
            **run.finish([{}]),
            n_iterations=engine.iterations,
            peak_seqs=sched.peak_seqs,
            peak_kv_utilization=engine.peak_kv,
            admission=sched.admission,
            peak_kv_occupancy=sched.peak_kv_occupancy,
        )
