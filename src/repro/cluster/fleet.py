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
iteration boundaries pop in simulated-time order, and idle replicas
are simply not in the heap and are never polled.  A replica's run of
identical decode-only iterations stays in flight across arrivals
routed to other replicas, and the router reads it through
:attr:`Replica.queue_depth` and :attr:`Replica.kv_pressure`, which
report the replica after every iteration that starts before the
arrival — the state the old advance-everyone lockstep showed.  An
arrival routed to the replica cuts the run at that point (an iteration
already in flight may overshoot the arrival — the request then waits
for the iteration boundary, as on a real engine).

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
:meth:`FleetReport.meets`), each judged by
:meth:`repro.obs.slo.SLO.met_by`, plus :func:`size_fleet` — the
smallest replica count whose fleet meets a TTFT SLO at a given offered
load, which is the unit the headline CQ-vs-FP16 comparison is priced
in (GPUs, not microseconds).
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.slo import SLO
from repro.serve.api import FleetConfig
from repro.serve.costs import StepCostModel
from repro.serve.events import SAMPLE, STEP
from repro.serve.requests import Request
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget
from repro.serve.simulator import (Report, RunLayout, ServingEngine,
                                   SimulationRun)


class Replica(ServingEngine):
    """One serving engine instance with a private simulation clock,
    which may hold a run of decode iterations in flight (:meth:`step`).
    """

    def __init__(self, replica_id: int,
                 scheduler: ContinuousBatchScheduler,
                 cost_model: StepCostModel):
        super().__init__(scheduler, cost_model, replica_id)
        #: Runs the fleet's heap started on this replica: one per STEP
        #: pop that plans an iteration, which may lay out a whole run
        #: of replayed iterations.  Idle replicas are never activated.
        self.n_wakeups = 0
        #: The run laid out by :meth:`step` and not yet applied (a run
        #: of one iteration is applied at once).
        self.run: Optional[RunLayout] = None
        #: Sorted replays at which :attr:`run` crosses into a new block,
        #: built at its first paged :attr:`kv_pressure` read.
        self._crossings: Optional[List[int]] = None

    @property
    def queue_depth(self) -> int:
        """Sequences on this replica: queued plus running.

        Preempted sequences awaiting re-admission count as queued —
        each carries re-prefill work, so a paged replica mid-thrash
        must not look idle to the ``jsq`` router.  Inside a run in
        flight nothing is queued and no sequence finishes before the
        run's last iteration, so the depth cannot change there.
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
        worst-case footprint it never allocated.  The scheduler keeps
        the queued part as one integer, so a read is O(1) however long
        the queues grow.

        Inside a run in flight, paged pressure adds the blocks that the
        run's first ``run.k`` iterations cross (nothing is queued, and
        reservations do not move inside a run).  The integer block sum
        is divided once, as the scheduler divides it once those
        iterations are applied, so the float is the same.
        """
        run, alloc = self.run, self.scheduler.allocator
        if run is None or alloc is None:
            return self.scheduler.kv_pressure
        if self._crossings is None:
            self._crossings = self.scheduler.block_crossings(run.plan,
                                                             run.n - 1)
        crossed = bisect.bisect_left(self._crossings, run.k)
        return (alloc.used_blocks + crossed) / alloc.total_blocks

    @property
    def next_s(self) -> float:
        """Start of this replica's next iteration: the end of its run
        in flight, else its clock."""
        return self.now_s if self.run is None else self.run.end_s

    def step(self, horizon_s: float = -math.inf,
             max_iterations: int = 0) -> list:
        """Plan one iteration and lay out the run that repeats it
        (:meth:`~repro.serve.simulator.ServingEngine.lay_out`).

        The fleet driver passes the timeline's next SAMPLE as
        ``horizon_s`` and its iteration cap.  A run of one iteration is
        applied at once: everything that could observe it comes after
        its start.  A longer one stays in flight as :attr:`run`; the
        driver applies it at its end, at a SAMPLE, or before routing an
        arrival once all its iterations have started, and
        :meth:`submit` cuts it.  The defaults run exactly one
        iteration.

        Returns the sequences that completed (also appended to
        :attr:`finished`; none while a run is in flight), so the fleet
        driver can feed per-window telemetry without diffing the list.
        """
        plan = self.scheduler.schedule(self.now_s)
        if plan.empty:  # pragma: no cover - has_work implies a plan
            # The scheduler preempts until some sequence progresses,
            # and a lone sequence always fits the pool, so this is a
            # scheduler bug: fail loudly, since returning would spin
            # the driver forever.
            raise RuntimeError(f"replica {self.replica_id} made no "
                               "progress with work pending")
        run = self.lay_out(plan, horizon_s, max_iterations)
        if run.n == 1:
            return self.apply(run, 1, run.end_s)
        self.run, self._crossings = run, None
        return []

    def apply_run(self) -> list:
        """Apply the run in flight whole; return its finishers."""
        run, self.run = self.run, None
        return self.apply(run, run.n, run.end_s)

    def submit(self, request: Request) -> None:
        """Admit one request, first cutting a run in flight.

        The new request changes the next plan, so the run is applied up
        to the iterations that start strictly before the arrival (the
        one in flight at the arrival included) and the rest is dropped;
        the clock lands on the next iteration boundary.  The driver
        applies a run whole once all its iterations have started, so a
        cut ends before the run's last iteration and finishes nothing.
        """
        run = self.run
        if run is not None:
            run.seek(request.arrival_s)
            self.run = None
            self.apply(run, run.k, run.at_s)
        super().submit(request)


# ----------------------------------------------------------------------
# Routing policies
# ----------------------------------------------------------------------
class RouterPolicy:
    """Chooses a replica index for each arriving request.

    ``candidates`` is the non-empty subset of replica indices whose KV
    budget can hold the request at all; the policy must return one of
    them.  Policies may keep state (round-robin does), so build a fresh
    instance per simulation run.

    A policy reads a replica only through :attr:`Replica.queue_depth`
    and :attr:`Replica.kv_pressure`.  A replica may have a decode run in
    flight (:attr:`Replica.run`: laid out, not yet applied), and these
    two views report it exactly as step-by-step execution leaves it at
    the arrival; its scheduler, clock and counters still show the state
    before the run.
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
    """Per-replica accounting of one fleet run."""

    n_requests: int
    n_iterations: int
    peak_kv_utilization: float
    n_preemptions: int = 0


@dataclass
class FleetReport(Report):
    """Aggregate metrics of one simulated fleet run."""

    policy: str
    n_replicas: int
    #: req_id -> replica index, for every routed request.
    assignments: Dict[int, int]
    replica_stats: List[ReplicaStats] = field(default_factory=list)

    # -- SLO-conditioned metrics ---------------------------------------
    def slo_attainment(self, slo: SLO) -> float:
        """Fraction of *offered* requests that met the SLO.

        Rejected requests count as misses: a fleet that sheds load does
        not get credit for the latency of what it kept.
        """
        offered = self.n_requests + self.n_rejected
        if offered == 0:
            return 0.0
        met = sum(1 for r in self.records if slo.met_by(r.ttft_s))
        return met / offered

    def goodput_rps(self, slo: SLO) -> float:
        """SLO-meeting requests completed per second."""
        if not self.makespan_s:
            return 0.0
        met = sum(1 for r in self.records if slo.met_by(r.ttft_s))
        return met / self.makespan_s

    def meets(self, slo: SLO) -> bool:
        """Percentile-level compliance: the :attr:`SLO.QUANTILE`-th
        percentile TTFT of completed requests meets the SLO and nothing
        was rejected."""
        if self.n_rejected or not self.records:
            return False
        return slo.met_by(self.ttft_s(SLO.QUANTILE))

    def metrics(self, slo: Optional[SLO] = None) -> dict:
        """Flat JSON-safe metric dict (see :meth:`Report._metrics`).

        Passing an :class:`SLO` adds the SLO-conditioned metrics
        (``goodput_rps``, ``slo_attainment``).
        """
        own = {"n_replicas": self.n_replicas}
        if slo is not None:
            own["goodput_rps"] = self.goodput_rps(slo)
            own["slo_attainment"] = self.slo_attainment(slo)
        return self._metrics(own)

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        detail = []
        for rid, stats in enumerate(self.replica_stats):
            line = (f"  replica {rid}  : {stats.n_requests:4d} requests, "
                    f"{stats.n_iterations:6d} iterations, "
                    f"peak KV {stats.peak_kv_utilization:.0%}")
            if stats.n_preemptions:
                line += f", {stats.n_preemptions} preemptions"
            detail.append(line)
        return self._summary(
            f"{self.name}: {self.n_replicas} replicas ({self.policy}), "
            f"{self.n_requests} requests in {self.makespan_s:.2f} s",
            detail)


# ----------------------------------------------------------------------
# Fleet simulator
# ----------------------------------------------------------------------
class FleetSimulator:
    """Routes a trace across replicas and drains them to a report.

    The driver is the shared event heap: per-replica iteration
    boundaries and request arrivals pop in global simulated-time order
    (ties break arrivals-first, so only iterations that start strictly
    before an arrival count as run when it is routed), and idle
    replicas stay out of the heap entirely.  A run in flight is applied
    at its end, at a SAMPLE, before routing an arrival once all its
    iterations have started, or cut by an arrival routed to its
    replica; the router reads the others in flight.

    Build fleets with :meth:`~repro.serve.api.FleetConfig.build`, the
    only reader of ``config.scheduler``: a simulator built here from
    ready-made replicas runs each on its own scheduler.
    """

    def __init__(self, replicas: Sequence[Replica],
                 config: Optional[FleetConfig] = None):
        if not replicas:
            raise ValueError("need at least one replica")
        self.config = config if config is not None else FleetConfig()
        self.replicas = list(replicas)
        self.policy = make_policy(self.config.policy)
        self.name = self.config.name
        self._ran = False

    def _route(self, request: Request, candidates: List[int]) -> int:
        idx = self.policy.choose(request, self.replicas, candidates)
        if idx not in candidates:
            raise ValueError(
                f"policy {self.policy.name!r} chose replica {idx}, "
                f"not one of the feasible {candidates}")
        return idx

    def run(self, trace: Sequence[Request],
            max_iterations: Optional[int] = None) -> FleetReport:
        """Simulate the full trace; returns the fleet-level report.

        ``max_iterations`` (per replica) defaults to the config's cap.
        A simulator runs once: its replicas and router keep the run's
        state.
        """
        if self._ran:
            raise RuntimeError(
                "this FleetSimulator has already run; build a fresh one "
                "from its config (FleetConfig.build)")
        self._ran = True
        replicas = self.replicas
        run = SimulationRun(replicas, self.config, trace, max_iterations,
                            route=self._route)
        loop, timeline, stats = run.loop, run.timeline, run.loop.stats
        max_iterations = run.max_iterations
        ran = sum(rep.iterations for rep in replicas)
        #: Time of replica i's one live STEP event (None while idle),
        #: its next iteration boundary.  A cut moves the boundary
        #: earlier and leaves the old event in the heap, stale; a stale
        #: event popping at the live one's instant stands in for it,
        #: and the live one is then stale in turn.
        due: List[Optional[float]] = [None] * len(replicas)

        def wake(idx: int) -> None:
            due[idx] = replicas[idx].next_s
            loop.push(due[idx], STEP, idx)

        def apply_run(idx: int) -> None:
            rep = replicas[idx]
            done = rep.apply_run()
            if timeline is not None and done:
                timeline.on_complete(idx, done, rep.now_s)

        for i, rep in enumerate(replicas):
            if rep.has_work:
                wake(i)

        while not loop.empty:
            t_s, kind, payload = loop.pop()
            if kind == SAMPLE:
                # Runs are laid out up to the next SAMPLE: every
                # iteration of a run in flight has started.
                for i, rep in enumerate(replicas):
                    if rep.run is not None:
                        apply_run(i)
                run.sample(t_s)
                continue
            if kind == STEP:
                idx = payload
                if t_s != due[idx]:
                    continue  # left behind by a cut
                rep = replicas[idx]
                if rep.run is not None:  # the run in flight ends here
                    apply_run(idx)
                if not rep.has_work:
                    due[idx] = None
                    continue
                rep.n_wakeups += 1
                if rep.iterations >= max_iterations:
                    raise RuntimeError(
                        f"replica {rep.replica_id} exceeded "
                        f"{max_iterations} iterations; the offered load "
                        "likely diverges")
                # Arrivals do not bound a run: the router reads a run
                # in flight, and an arrival routed here cuts it.
                done = rep.step(timeline.next_sample_s
                                if timeline is not None else math.inf,
                                max_iterations)
                if timeline is not None and done:
                    timeline.on_complete(idx, done, rep.now_s)
                if rep.has_work:
                    wake(idx)
                else:
                    due[idx] = None
                continue
            # The router sees each replica after the iterations that
            # start before the arrival.  A run all of whose iterations
            # have started is applied whole, so its finishers leave the
            # queues.
            for i, rep in enumerate(replicas):
                if rep.run is not None and rep.run.seek(t_s):
                    apply_run(i)
            idx = run.arrive(payload)
            if idx is not None and due[idx] != replicas[idx].next_s:
                # An idle replica wakes, or the arrival cut the run in
                # flight (Replica.submit) and its boundary moved.
                wake(idx)

        # STEP pops include stale events and run ends, and a run may
        # be applied at an ARRIVAL or a SAMPLE: the step counters count
        # applied iterations.
        steps = sum(rep.iterations for rep in replicas) - ran
        stats.n_events += steps - stats.n_step_events
        stats.n_step_events = steps
        return FleetReport(
            **run.finish([{"replica": str(rep.replica_id)}
                          for rep in replicas]),
            policy=self.policy.name,
            n_replicas=len(replicas),
            assignments=run.assignments,
            replica_stats=[ReplicaStats(rep.n_submitted, rep.iterations,
                                        rep.peak_kv,
                                        rep.scheduler.n_preemptions)
                           for rep in replicas],
        )


def size_fleet(
    config: FleetConfig,
    budget: KVBudget,
    cost_model: StepCostModel,
    trace: Sequence[Request],
    slo: SLO,
    max_replicas: int = 8,
) -> tuple:
    """Smallest fleet meeting an SLO at the trace's offered load.

    Each candidate size ``n`` is a fresh
    ``config.build(n, budget, cost_model, name=f"fleet-{n}")`` run
    unrecorded, so a policy given by name gets a fresh router at every
    size, and the search takes the untraced fast path.  Returns
    ``(n, report)`` for the first compliant size, or ``(None, report)``
    with the largest fleet's report if even ``max_replicas`` misses the
    SLO.  When ``config.trace`` or ``config.timeline`` is set, that one
    returned size runs once more under ``config``, so the report
    carries its tracer; recording leaves the metrics bit-identical.
    """
    if max_replicas < 1:
        raise ValueError("max_replicas must be >= 1")
    search = replace(config, trace=False, timeline=None)
    found = None
    for n in range(1, max_replicas + 1):
        report = search.build(n, budget, cost_model,
                              name=f"fleet-{n}").run(trace)
        if report.meets(slo):
            found = n
            break
    if config.trace or config.timeline is not None:
        report = config.build(n, budget, cost_model,
                              name=f"fleet-{n}").run(trace)
    return found, report
