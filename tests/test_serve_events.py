"""Event-heap core tests: ordering, lockstep equivalence, wakeups.

The heap driver (:class:`repro.serve.events.EventLoop` under
:class:`repro.cluster.fleet.FleetSimulator`) claims two things:

1. it is *bit-identical* to the legacy poll-everyone lockstep driver
   (advance every replica to each arrival before routing it) — checked
   here by a test-local reimplementation of the old loop
   (:func:`_lockstep_run`), property-tested over randomized traces,
   policies and admission modes;
2. it activates replicas strictly less often — idle replicas are never
   polled — checked by the sparse-trace wakeup regression;
3. a replica's replayed decode run stays in flight across arrivals
   routed elsewhere, and the router reads it exactly as the lockstep
   driver leaves it — checked against the same oracle, read by read.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet import (FleetSimulator, LeastKVPressurePolicy,
                                 Replica, RouterPolicy, make_policy)
from repro.obs.timeline import TimelineConfig
from repro.serve.api import FleetConfig, SchedulerConfig
from repro.serve.events import ARRIVAL, STEP, TRANSFER, EventLoop
from repro.serve.requests import Request
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


def _replicas(n, max_tokens=120, step_us=1000.0, token_budget=64,
              max_seqs=16, admission="reserve", block_tokens=8):
    cost = ConstantCostModel(step_us)
    config = SchedulerConfig(token_budget=token_budget, max_seqs=max_seqs,
                             admission=admission, block_tokens=block_tokens)
    return [
        Replica(i, ContinuousBatchScheduler(
            KVBudget(capacity_bytes=float(max_tokens), bytes_per_token=1.0),
            config=config), cost)
        for i in range(n)
    ]


def _advance_to(rep, t_s):
    """Run iterations until the replica's clock reaches ``t_s`` or its
    work runs out, counting one wakeup whether or not it had work."""
    rep.n_wakeups += 1
    while rep.has_work and rep.now_s < t_s:
        rep.step()


def _lockstep_run(replicas, policy, trace, max_iterations=100_000):
    """The pre-heap fleet driver, verbatim: advance every replica to
    each arrival, route, then drain replicas one by one."""
    pending = sorted(trace, key=lambda r: r.arrival_s)
    assignments, rejected = {}, []
    for req in pending:
        for rep in replicas:
            _advance_to(rep, req.arrival_s)
        candidates = [i for i, rep in enumerate(replicas)
                      if rep.scheduler.fits(req)]
        if not candidates:
            rejected.append(req.req_id)
            continue
        idx = policy.choose(req, replicas, candidates)
        replicas[idx].submit(req)
        assignments[req.req_id] = idx
    for rep in replicas:
        while rep.has_work:
            assert rep.iterations < max_iterations, "diverging reference"
            rep.step()
    return assignments, rejected


def _snapshot(replicas):
    """Everything observable about a drained fleet, exact floats."""
    return [
        {
            "iterations": rep.iterations,
            "now_s": rep.now_s,
            "n_submitted": rep.n_submitted,
            "peak_kv": rep.peak_kv,
            "finished": [(s.request.req_id, s.admitted_s, s.first_token_s,
                          s.finished_s, s.preemptions)
                         for s in rep.finished],
        }
        for rep in replicas
    ]


class TestEventLoop:
    def test_orders_by_time(self):
        loop = EventLoop()
        loop.push(3.0, STEP, "c")
        loop.push(1.0, STEP, "a")
        loop.push(2.0, STEP, "b")
        assert [loop.pop()[2] for _ in range(3)] == ["a", "b", "c"]
        assert loop.empty

    def test_arrival_beats_step_at_equal_time(self):
        loop = EventLoop()
        loop.push(1.0, STEP, "step")
        loop.push(1.0, ARRIVAL, "arrival")
        loop.push(1.0, TRANSFER, "transfer")
        kinds = [loop.pop()[1] for _ in range(3)]
        assert kinds == [ARRIVAL, STEP, TRANSFER]

    def test_fifo_among_exact_ties(self):
        loop = EventLoop()
        for i in range(5):
            loop.push(1.0, ARRIVAL, i)
        assert [loop.pop()[2] for _ in range(5)] == list(range(5))

    def test_peek_does_not_pop(self):
        loop = EventLoop()
        assert loop.peek() is None
        loop.push(1.0, ARRIVAL, "x")
        assert loop.peek() == (1.0, ARRIVAL, "x")
        assert len(loop) == 1
        assert loop.pop() == (1.0, ARRIVAL, "x")

    def test_stats_count_by_kind(self):
        loop = EventLoop()
        loop.push(1.0, ARRIVAL)
        loop.push(2.0, STEP)
        loop.push(3.0, STEP)
        loop.push(4.0, TRANSFER)
        while not loop.empty:
            loop.pop()
        st = loop.stats
        assert (st.n_events, st.n_arrivals, st.n_step_events,
                st.n_transfers, st.n_idle_polls) == (4, 1, 2, 1, 0)


@st.composite
def _fleet_case(draw):
    n_replicas = draw(st.integers(1, 4))
    n_requests = draw(st.integers(1, 20))
    admission = draw(st.sampled_from(["reserve", "paged"]))
    policy = draw(st.sampled_from(["round-robin", "jsq", "least-kv"]))
    # Gaps include 0.0 (same-instant arrivals) and values around the
    # 1 ms step cost so iteration boundaries land on, before and after
    # arrivals.
    gaps = draw(st.lists(
        st.sampled_from([0.0, 0.0003, 0.001, 0.004, 0.02]),
        min_size=n_requests, max_size=n_requests))
    sizes = draw(st.lists(
        st.tuples(st.integers(1, 64), st.integers(1, 10)),
        min_size=n_requests, max_size=n_requests))
    t, trace = 0.0, []
    for i, (gap, (prompt, output)) in enumerate(zip(gaps, sizes)):
        t += gap
        # An occasional oversized request exercises rejection.
        if draw(st.booleans()) and draw(st.integers(0, 9)) == 0:
            prompt = 500
        trace.append(Request(req_id=i, arrival_s=t, prompt_tokens=prompt,
                             output_tokens=output))
    return n_replicas, admission, policy, trace


class TestHeapLockstepEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_fleet_case())
    def test_heap_matches_lockstep(self, case):
        n_replicas, admission, policy, trace = case

        heap_reps = _replicas(n_replicas, admission=admission)
        sim = FleetSimulator(heap_reps,
                             config=FleetConfig(policy=policy, name="heap"))
        report = sim.run(trace)

        lock_reps = _replicas(n_replicas, admission=admission)
        assignments, rejected = _lockstep_run(lock_reps,
                                              make_policy(policy), trace)

        # Same routing decisions, same rejections, and per replica the
        # same iteration chain with exactly equal clocks and records —
        # including completion order (`finished` is append-ordered).
        assert report.assignments == assignments
        assert report.n_rejected == len(rejected)
        assert _snapshot(heap_reps) == _snapshot(lock_reps)
        assert report.makespan_s == max(r.now_s for r in lock_reps)


class TestWakeupRegression:
    def test_sparse_trace_wakeups_drop(self):
        """The lockstep driver pays replicas x arrivals activations on a
        sparse trace; the heap only wakes a replica per iteration it
        actually runs, and never polls an idle one."""
        n_replicas, n_requests = 4, 60
        # One-iteration requests, far apart: the fleet is almost always
        # fully idle when the next request lands.
        trace = [Request(req_id=i, arrival_s=0.05 * i, prompt_tokens=8,
                         output_tokens=1) for i in range(n_requests)]

        heap_reps = _replicas(n_replicas)
        report = FleetSimulator(
            heap_reps, config=FleetConfig(policy="jsq", name="heap")
        ).run(trace)
        heap_wakeups = sum(r.n_wakeups for r in heap_reps)
        # One wakeup per executed iteration, nothing else.
        assert heap_wakeups == sum(r.iterations for r in heap_reps)
        assert report.event_stats.n_idle_polls == 0
        assert report.event_stats.n_step_events == heap_wakeups

        lock_reps = _replicas(n_replicas)
        _lockstep_run(lock_reps, make_policy("jsq"), trace)
        lock_wakeups = sum(r.n_wakeups for r in lock_reps)
        # advance_to touched every replica at every arrival...
        assert lock_wakeups == n_replicas * n_requests
        # ...which the heap driver undercuts by the poll-everyone tax:
        # total iterations here (= heap wakeups) is n_requests, a 4x drop.
        assert heap_wakeups < lock_wakeups
        # Work itself is identical — only the driver overhead differs.
        assert (sum(r.iterations for r in heap_reps)
                == sum(r.iterations for r in lock_reps))


class TestSingleSimEventCore:
    def test_serving_simulator_uses_heap_arrivals(self):
        """The single-engine loop ingests arrivals from the heap in
        non-strict (<= now) order and fast-forwards over idle gaps."""
        from repro.serve.api import SimConfig
        from repro.serve.simulator import ServingSimulator

        config = SchedulerConfig(token_budget=64, max_seqs=8)
        sched = ContinuousBatchScheduler(
            KVBudget(capacity_bytes=1e4, bytes_per_token=1.0),
            config=config)
        sim = ServingSimulator(sched, ConstantCostModel(),
                               config=SimConfig(name="unit"))
        trace = [Request(req_id=i, arrival_s=1.0 * i, prompt_tokens=8,
                         output_tokens=2) for i in range(3)]
        report = sim.run(trace)
        assert report.n_requests == 3
        # Idle gaps are skipped, not iterated over: two iterations per
        # request (prefill+first token, then one decode).
        assert report.n_iterations == 6
        # Arrivals at t=1 and t=2 were waited for exactly.
        assert report.makespan_s == pytest.approx(2.0 + 2 * 0.001)


class PreferReplicaOne(RouterPolicy):
    """Picks replica 1 whenever it can hold the request."""

    name = "prefer-1"

    def choose(self, request, replicas, candidates):
        return 1 if 1 in candidates else candidates[0]


class RecordingLeastKV(LeastKVPressurePolicy):
    """``least-kv`` that keeps every pressure it reads, and which reads
    were of a run in flight that has crossed blocks since its plan."""

    def __init__(self):
        self.reads = []
        self.crossed = []

    def choose(self, request, replicas, candidates):
        reads = [rep.kv_pressure for rep in replicas]
        self.reads.append(reads)
        self.crossed.append([p != rep.scheduler.kv_pressure
                             for p, rep in zip(reads, replicas)])
        return super().choose(request, replicas, candidates)


def _chain(start_s, dt, n):
    """``start_s`` plus ``n`` float additions of ``dt``: the iteration
    boundaries a run walks."""
    for _ in range(n):
        start_s += dt
    return start_s


class TestRunsInFlight:
    """Arrivals no longer bound a replica's decode run; only an arrival
    routed to it cuts it, and routers read it in flight."""

    def _schedule_calls(self, n_other_arrivals):
        long_req = Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                           output_tokens=400)
        trace = [long_req] + [
            Request(req_id=1 + i, arrival_s=0.01 + 0.005 * i,
                    prompt_tokens=8, output_tokens=20)
            for i in range(n_other_arrivals)]
        # Replica 1 cannot hold the long request, so it lands on 0.
        replicas = [_replicas(1, max_tokens=1000)[0],
                    _replicas(2, max_tokens=100)[1]]
        sched = replicas[0].scheduler
        calls = []
        original = sched.schedule

        def counted(now_s=0.0):
            calls.append(now_s)
            return original(now_s)

        sched.schedule = counted
        report = FleetSimulator(replicas, config=FleetConfig(
            policy=PreferReplicaOne(), name="unit")).run(trace)
        assert report.assignments[0] == 0
        assert sum(a == 1 for a in report.assignments.values()) \
            == n_other_arrivals
        iterations = sum(rep.iterations for rep in replicas)
        # Cuts leave stale STEP events; the counters still count
        # iterations.
        assert report.event_stats.n_step_events == iterations
        assert report.event_stats.n_events \
            == iterations + len(trace)
        return len(calls), replicas[0].iterations

    def test_arrivals_routed_elsewhere_do_not_replan(self):
        """Replica 0 plans its prefill and one decode run whether or
        not 50 arrivals land on replica 1 during it."""
        alone = self._schedule_calls(0)
        busy = self._schedule_calls(50)
        assert alone == busy == (2, 400)

    def test_in_flight_kv_pressure_matches_lockstep(self):
        """Every ``kv_pressure`` the router reads, and every routing
        decision, equals the lockstep driver's, including reads of a
        run in flight that has crossed blocks since it was planned."""
        sizes = [(6, 60), (5, 40), (3, 50), (9, 30), (2, 45), (7, 25),
                 (4, 35), (8, 20), (1, 50), (6, 15)]
        trace = [Request(req_id=i, arrival_s=0.0073 * i,
                         prompt_tokens=p, output_tokens=o)
                 for i, (p, o) in enumerate(sizes)]

        def fleet():
            return _replicas(2, max_tokens=400, admission="paged",
                             block_tokens=4)

        heap_policy = RecordingLeastKV()
        heap_reps = fleet()
        report = FleetSimulator(heap_reps, config=FleetConfig(
            policy=heap_policy, name="heap")).run(trace)
        lock_policy = RecordingLeastKV()
        lock_reps = fleet()
        assignments, rejected = _lockstep_run(lock_reps, lock_policy,
                                              trace)
        assert heap_policy.reads == lock_policy.reads
        assert report.assignments == assignments and not rejected
        assert _snapshot(heap_reps) == _snapshot(lock_reps)
        # The scenario reads runs in flight after block crossings.
        assert sum(map(any, heap_policy.crossed)) >= 3
        assert not any(map(any, lock_policy.crossed))

    def test_arrival_on_an_iteration_boundary_waits_for_it(self):
        """ARRIVAL pops before STEP at equal time, so an iteration
        starting exactly at the arrival instant is not applied before
        routing: the cut keeps only the iterations that started
        strictly before it."""
        dt = 0.001
        # Request 0 prefills in [0, dt) and then decodes one run;
        # request 1 arrives exactly on its sixth iteration boundary.
        trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                         output_tokens=30),
                 Request(req_id=1, arrival_s=_chain(0.0, dt, 6),
                         prompt_tokens=8, output_tokens=5)]
        heap_reps = _replicas(1)
        FleetSimulator(heap_reps, config=FleetConfig(
            policy="jsq", name="heap")).run(trace)
        lock_reps = _replicas(1)
        _lockstep_run(lock_reps, make_policy("jsq"), trace)
        assert _snapshot(heap_reps) == _snapshot(lock_reps)
        # Six iterations ran before the arrival was admitted.
        seq1 = next(s for s in heap_reps[0].finished
                    if s.request.req_id == 1)
        assert seq1.admitted_s == trace[1].arrival_s

    def test_finished_run_is_applied_before_routing(self):
        """An arrival inside a run's last iteration sees the run whole:
        ``jsq`` must count its finishers as gone."""
        dt = 0.001
        # Replica 0 serves A and A' (prefill, then a 9-iteration decode
        # run ending at 10 dt); replica 1 serves the long B.
        trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                         output_tokens=10),
                 Request(req_id=1, arrival_s=0.0, prompt_tokens=8,
                         output_tokens=100),
                 Request(req_id=2, arrival_s=0.0, prompt_tokens=8,
                         output_tokens=10),
                 Request(req_id=3, arrival_s=_chain(0.0, dt, 9) + dt / 2,
                         prompt_tokens=8, output_tokens=5)]
        heap_reps = _replicas(2)
        report = FleetSimulator(heap_reps, config=FleetConfig(
            policy="jsq", name="heap")).run(trace)
        lock_reps = _replicas(2)
        assignments, _ = _lockstep_run(lock_reps, make_policy("jsq"), trace)
        assert report.assignments == assignments
        # Replica 0 is empty once its run's last iteration has started;
        # counted as still running, both its requests would send
        # request 3 to replica 1.
        assert assignments == {0: 0, 1: 1, 2: 0, 3: 0}
        assert _snapshot(heap_reps) == _snapshot(lock_reps)

    def test_traced_runs_are_one_iteration_long(self):
        """A traced fleet writes one row per iteration, so it replays
        nothing: every STEP event runs one iteration."""
        trace = [Request(req_id=i, arrival_s=0.004 * i, prompt_tokens=8,
                         output_tokens=30) for i in range(6)]
        reps = _replicas(2)
        report = FleetSimulator(reps, config=FleetConfig(
            policy="jsq", name="traced", trace=True)).run(trace)
        iterations = sum(rep.iterations for rep in reps)
        assert report.n_requests == 6
        assert sum(rep.n_wakeups for rep in reps) == iterations
        assert report.event_stats.n_step_events == iterations
        untraced = _replicas(2)
        FleetSimulator(untraced, config=FleetConfig(
            policy="jsq", name="untraced")).run(trace)
        assert sum(rep.iterations for rep in untraced) == iterations
        assert sum(rep.n_wakeups for rep in untraced) < iterations

    def test_sample_bounds_a_run(self):
        """A run is laid out only up to the timeline's next SAMPLE, so
        a window boundary inside a long decode ends the run there."""
        trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                         output_tokens=30)]
        plain = _replicas(1)
        FleetSimulator(plain, config=FleetConfig(name="plain")).run(trace)
        sampled = _replicas(1)
        FleetSimulator(sampled, config=FleetConfig(
            name="sampled", timeline=TimelineConfig(window_s=0.0105))
        ).run(trace)
        # Prefill, then one run; sampled, the decode also breaks at the
        # boundaries 10.5 and 21 ms.
        assert plain[0].n_wakeups == 2
        assert sampled[0].n_wakeups == 4
        assert _snapshot(plain) == _snapshot(sampled)

    def test_default_step_runs_one_iteration(self):
        """``Replica.step()`` with its defaults runs and applies exactly
        one iteration, as the lockstep oracle needs."""
        rep = _replicas(1)[0]
        rep.submit(Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                           output_tokens=30))
        for expected in (1, 2, 3):
            rep.step()
            assert rep.iterations == expected and rep.run is None
        assert rep.scheduler.running[0].generated == 3
