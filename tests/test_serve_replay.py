"""Decode-run replay: replayed and step-by-step execution agree exactly.

Both drivers execute a run of identical decode-only iterations as one
planned iteration plus replays.  The single engine lays a run out and
applies it at once (:meth:`repro.serve.simulator.ServingEngine.execute`);
a fleet lays a run out (``ServingEngine.lay_out``) and applies it later
(``ServingEngine.apply``): whole at its end or at a timeline sample
(``Replica.apply_run``), or cut by an arrival routed to its replica
(``Replica.submit``).  The reference is the same stack with a cost
model whose ``repeat_room`` is 0, so every iteration goes through
``schedule``.  Everything observable must be equal: records, the full
``metrics()`` (iteration and event counters included), fleet routing,
allocator state at drain and timeline windows.  The real
:class:`~repro.serve.costs.StepCostModel` with a small sequence bucket
makes context buckets end runs, next to arrivals, timeline samples,
completions and block crossings.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet import FleetSimulator, Replica
from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.llm.config import tiny_llama
from repro.obs.slo import SLO
from repro.obs.timeline import TimelineConfig
from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig
from repro.serve.costs import StepCostModel
from repro.serve.requests import Request
from repro.serve.scheduler import (BatchPlan, ContinuousBatchScheduler,
                                   KVBudget)


class StepByStepCostModel(StepCostModel):
    """The real cost model with replay off: every iteration is planned."""

    def repeat_room(self, plan):
        return 0


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def step_us(self, plan):
        return 1000.0

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


@pytest.fixture(scope="module")
def engine():
    return ComputeEngine(RTX4090)


def _cost(cls, engine):
    # 8-token sequence buckets: a decode run crosses a bucket every few
    # iterations, so the cost model's room ends runs often.
    return cls(engine, tiny_llama(), seq_bucket=8)


@st.composite
def _cases(draw):
    """A scheduler config, KV budget, trace and driver setup.

    Pools are sized from the largest request up, so the tight end
    preempts and (with prefix caching) evicts.  Arrival gaps and
    timeline windows straddle the ~0.15 ms iteration cost, so events
    land inside decode runs.
    """
    admission = draw(st.sampled_from(["reserve", "paged"]))
    prefix = admission == "paged" and draw(st.booleans())
    bt = draw(st.sampled_from([1, 16]))
    shared = tuple(range(1000, 1064))  # a common system prompt
    trace, arrival = [], 0.0
    for i in range(draw(st.integers(1, 24))):
        arrival += draw(st.sampled_from([0.0, 0.0001, 0.0005, 0.002,
                                         0.01]))
        prompt = draw(st.integers(1, 64))
        output = draw(st.integers(1, 48))
        prompt_ids = output_ids = None
        if prefix:
            head = draw(st.integers(0, min(prompt, len(shared))))
            prompt_ids = shared[:head] + tuple(
                draw(st.integers(0, 3)) for _ in range(prompt - head))
            output_ids = tuple(range(i * 100, i * 100 + output))
        trace.append(Request(req_id=i, arrival_s=arrival,
                             prompt_tokens=prompt, output_tokens=output,
                             prompt_ids=prompt_ids, output_ids=output_ids))
    largest = max(-(-r.total_tokens // bt) for r in trace)
    pool_blocks = largest + draw(st.sampled_from(
        [0, 1, largest // 2, largest, 3 * largest]))
    config = SchedulerConfig(
        token_budget=draw(st.sampled_from([24, 2048])),
        max_seqs=draw(st.sampled_from([16, 64])), admission=admission,
        block_tokens=bt, prefix_caching=prefix)
    budget = KVBudget(capacity_bytes=float(pool_blocks * bt),
                      bytes_per_token=1.0)
    timeline = draw(st.sampled_from([
        None, TimelineConfig(window_s=0.0007),
        TimelineConfig(window_s=0.003, slo=SLO(ttft_s=0.002))]))
    n_replicas = draw(st.integers(1, 4))  # 1: the single engine
    policy = draw(st.sampled_from(["round-robin", "jsq", "least-kv",
                                   "prefix-affinity"]))
    return config, budget, trace, timeline, n_replicas, policy


def _tree(node, bt, prefix=""):
    """Every cached block as ``(path, ref, last_used)``, in key order,
    where ``path`` is the packed ids from the root through the block; a
    radix node holding a run of blocks gives one entry per block."""
    out = []
    for key in sorted(node.children):
        child = node.children[key]
        path = prefix
        for b in range(len(child.tokens) // bt):
            path += child.tokens[b * bt:(b + 1) * bt]
            out.append((path, child.ref, child.last_used))
        out.extend(_tree(child, bt, path))
    return out


def _allocator_state(sched):
    alloc = sched.allocator
    if alloc is None:
        return sched.reserved_tokens
    state = {"stats": alloc.stats(), "held": dict(alloc._held),
             "kv_fragmentation": sched.kv_fragmentation}
    if sched.prefix_caching:
        state.update(prefix=alloc.prefix_stats(),
                     tree=_tree(alloc.cache._root, alloc.block_tokens))
    return state


def _observe(case, cost_model):
    """Simulate ``case``; return everything the two paths must share."""
    config, budget, trace, timeline, n_replicas, policy = case
    if n_replicas == 1:
        sim = SimConfig(scheduler=config, timeline=timeline).build(
            budget, cost_model)
        report = sim.run(trace)
        schedulers, routing = [sim.scheduler], None
    else:
        sim = FleetConfig(scheduler=config, policy=policy,
                          timeline=timeline).build(n_replicas, budget,
                                                   cost_model)
        report = sim.run(trace)
        schedulers = [rep.scheduler for rep in sim.replicas]
        routing = (report.assignments, report.replica_stats,
                   [rep.now_s for rep in sim.replicas])
    return {
        "records": report.records,
        "metrics": report.metrics(),
        "routing": routing,
        "allocators": [_allocator_state(s) for s in schedulers],
        "timeline": (None if report.timeline is None
                     else report.timeline.to_json()),
    }


class TestReplayMatchesStepByStep:
    @settings(max_examples=80, deadline=None)
    @given(case=_cases())
    def test_replay_is_bit_identical(self, engine, case):
        replayed = _observe(case, _cost(StepCostModel, engine))
        stepped = _observe(case, _cost(StepByStepCostModel, engine))
        assert replayed == stepped

    def test_replay_skips_most_planning(self, engine):
        """On a steady decode-heavy run, most iterations are replayed:
        the scheduler plans fewer than half of them."""
        trace = [Request(req_id=i, arrival_s=0.004 * i, prompt_tokens=24,
                         output_tokens=64) for i in range(40)]
        config = SimConfig(scheduler=SchedulerConfig(admission="paged"))
        budget = KVBudget(capacity_bytes=4096.0, bytes_per_token=1.0)
        original = ContinuousBatchScheduler.schedule
        reports, planned = [], []
        for cls in (StepCostModel, StepByStepCostModel):
            calls = []

            def counted(sched, now_s=0.0, calls=calls):
                calls.append(now_s)
                return original(sched, now_s)

            ContinuousBatchScheduler.schedule = counted
            try:
                reports.append(config.build(budget, _cost(cls, engine))
                               .run(trace))
            finally:
                ContinuousBatchScheduler.schedule = original
            planned.append(len(calls))
        replayed, stepped = reports
        assert replayed.metrics() == stepped.metrics()
        assert planned[1] >= stepped.n_iterations
        assert 2 * planned[0] <= replayed.n_iterations


class TestSingleEngineMatchesOneReplicaFleet:
    """The single engine and a one-replica fleet share everything but
    their heap loops, so they must agree on everything but the event
    counters: the fleet's heap carries one STEP event per iteration,
    the single engine's none."""

    #: The keys the STEP events move.
    EVENT_COUNTERS = {"n_events", "events_total", "n_step_events",
                      "events_steps_total"}

    @settings(max_examples=60, deadline=None)
    @given(case=_cases(),
           reject_after=st.sampled_from([None, 0.0, 0.0005, 1.0]))
    def test_serving_equals_one_replica_fleet(self, engine, case,
                                              reject_after):
        config, budget, trace, timeline, _, policy = case
        if reject_after is not None:
            # A request no pool can hold, arriving ``reject_after`` past
            # the last arrival: often after the last completion.
            trace = trace + [Request(
                req_id=len(trace), arrival_s=trace[-1].arrival_s
                + reject_after, prompt_tokens=budget.max_tokens + 1,
                output_tokens=1)]
        cost = _cost(StepCostModel, engine)
        serving_sim = SimConfig(scheduler=config, name="same",
                                timeline=timeline).build(budget, cost)
        serving = serving_sim.run(trace)
        fleet_sim = FleetConfig(scheduler=config, policy=policy,
                                name="same", timeline=timeline).build(
                                    1, budget, cost)
        fleet = fleet_sim.run(trace)

        assert serving.records == fleet.records
        assert ((serving.timeline and serving.timeline.to_json())
                == (fleet.timeline and fleet.timeline.to_json()))
        assert (_allocator_state(serving_sim.scheduler)
                == _allocator_state(fleet_sim.replicas[0].scheduler))
        s = serving.metrics()
        f = {key.replace('{replica="0"}', ""): value
             for key, value in fleet.metrics().items()}
        same = (s.keys() & f.keys()) - self.EVENT_COUNTERS
        assert {k: s[k] for k in same} == {k: f[k] for k in same}
        # The exact relation between the event counters.
        assert s["n_step_events"] == s["events_steps_total"] == 0
        assert s["n_events"] == s["events_total"]
        assert f["n_step_events"] == f["events_steps_total"] \
            == s["n_iterations"]
        assert f["n_events"] == f["events_total"] \
            == s["n_events"] + s["n_iterations"]


class TestReplayBounds:
    def _trace(self):
        return [Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                        output_tokens=50)]

    def test_serving_cap_stops_a_replay_at_the_cap(self):
        """A 50-token request takes 50 iterations.  Its decodes form one
        replayable run, so a replay that ignored the cap would finish
        the request under a 49-iteration cap instead of raising."""
        config = SimConfig(scheduler=SchedulerConfig(max_seqs=4))
        budget = KVBudget(capacity_bytes=1e4, bytes_per_token=1.0)
        report = config.build(budget, ConstantCostModel()).run(
            self._trace(), max_iterations=50)
        assert report.n_iterations == 50
        sim = config.build(budget, ConstantCostModel())
        with pytest.raises(RuntimeError, match="exceeded 49 iterations"):
            sim.run(self._trace(), max_iterations=49)
        # The cap stopped the run at iteration 49, as step by step.
        assert [s.generated for s in sim.scheduler.running] == [49]

    def test_fleet_cap_stops_a_replay_at_the_cap(self):
        """The fleet form: a replica's replay stops at the cap too."""
        config = FleetConfig(scheduler=SchedulerConfig(max_seqs=4))
        budget = KVBudget(capacity_bytes=1e4, bytes_per_token=1.0)
        report = config.build(1, budget, ConstantCostModel()).run(
            self._trace(), max_iterations=50)
        assert report.replica_stats[0].n_iterations == 50
        sim = config.build(1, budget, ConstantCostModel())
        with pytest.raises(RuntimeError, match="exceeded 49 iterations"):
            sim.run(self._trace(), max_iterations=49)
        assert sim.replicas[0].iterations == 49

    def test_fleet_counts_replayed_iterations_as_step_events(self):
        """``n_step_events`` counts iterations and ``n_wakeups`` counts
        the STEP pops that plan, so a replaying fleet wakes replicas
        less often than it runs iterations."""
        trace = [Request(req_id=i, arrival_s=0.02 * i, prompt_tokens=16,
                         output_tokens=40) for i in range(12)]
        replicas = [Replica(i, ContinuousBatchScheduler(
            KVBudget(capacity_bytes=1e4, bytes_per_token=1.0),
            config=SchedulerConfig(max_seqs=8)), ConstantCostModel())
            for i in range(3)]
        sim = FleetSimulator(replicas, config=FleetConfig(policy="jsq"))
        report = sim.run(trace)
        iterations = sum(rep.iterations for rep in replicas)
        assert iterations == 12 * 40
        assert report.event_stats.n_step_events == iterations
        assert report.metrics()["events_steps_total"] == iterations
        assert (report.event_stats.n_events
                == iterations + report.event_stats.n_arrivals)
        assert sum(rep.n_wakeups for rep in replicas) < iterations


class StepByStepConstantCostModel(ConstantCostModel):
    """The constant-cost stub with replay off."""

    def repeat_room(self, plan):
        return 0


class TestReplayGuard:
    """``repeat_room`` allows no replay while requests are queued, and
    a fleet depends on it: a run in flight reports its blocks to the
    router but not the queued demand, so a replay past queued requests
    would change ``least-kv`` routing."""

    def _observe(self, cost_model):
        config = SchedulerConfig(admission="paged", block_tokens=4,
                                 watermark_frac=0.0)
        # Replica 1's 64-token pool cannot hold the two long requests,
        # so both land on replica 0, where the second waits for the
        # first's blocks; the short ones go by pressure.
        replicas = [Replica(i, ContinuousBatchScheduler(
            KVBudget(capacity_bytes=float(tokens), bytes_per_token=1.0),
            config=config), cost_model)
            for i, tokens in enumerate((400, 64))]
        trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=200,
                         output_tokens=150),
                 Request(req_id=1, arrival_s=0.0005, prompt_tokens=200,
                         output_tokens=20)]
        trace += [Request(req_id=2 + i, arrival_s=0.002 + 0.003 * i,
                          prompt_tokens=4, output_tokens=30)
                  for i in range(12)]
        report = FleetSimulator(replicas, config=FleetConfig(
            policy="least-kv")).run(trace)
        return report.records, report.metrics(), report.assignments

    def test_queued_requests_keep_runs_from_replaying(self):
        replayed = self._observe(ConstantCostModel())
        stepped = self._observe(StepByStepConstantCostModel())
        assert replayed == stepped
        records, _, assignments = stepped
        # Request 1 sat queued behind a full pool through request 0's
        # decodes, while short requests were routed to both replicas.
        (queued,) = [r.queued_s for r in records if r.req_id == 1]
        assert queued > 0.1
        short = [assignments[i] for i in range(2, 14)]
        assert short.count(0) >= 3 and short.count(1) >= 3


class TestRepeatRoom:
    def test_cost_room_ends_at_the_sequence_bucket(self, engine):
        """Each replay adds one token to the mean context; the price
        holds exactly while the mean stays in its bucket."""
        cost = _cost(StepCostModel, engine)
        budget = KVBudget(capacity_bytes=1e4, bytes_per_token=1.0)
        sched = ContinuousBatchScheduler(
            budget, config=SchedulerConfig(max_seqs=4))
        for i, prompt in enumerate((9, 12, 20)):
            sched.submit(Request(req_id=i, arrival_s=0.0,
                                 prompt_tokens=prompt, output_tokens=90))
        sched.complete(sched.schedule(), 0.0)  # prefill all three
        plan = sched.schedule()
        n = plan.decode_batch
        mean = plan.mean_context()  # (10 + 13 + 21) / 3, bucket 16
        room = cost.repeat_room(plan)
        assert room == 16 - math.ceil(mean) == 1
        total = sum(s.context_tokens for s in plan.decode)
        prices = [cost.decode_step_us(n, (total + j * n) / n)
                  for j in range(room + 2)]
        assert prices[:room + 1] == [prices[0]] * (room + 1)
        assert prices[room + 1] != prices[0]
        assert cost.repeat_room(BatchPlan(prefill=[(plan.decode[0], 1)],
                                          decode=plan.decode)) == 0

    def test_paged_room_is_the_largest_run_the_pool_backs(self):
        """Replays may cross only as many blocks as are free: the room
        is cut to the longest run whose crossings all fit."""
        config = SchedulerConfig(admission="paged", block_tokens=4,
                                 watermark_frac=0.0)
        budget = KVBudget(capacity_bytes=4.0 * 20, bytes_per_token=1.0)
        sched = ContinuousBatchScheduler(budget, config=config)
        for i in range(2):
            sched.submit(Request(req_id=i, arrival_s=0.0, prompt_tokens=6,
                                 output_tokens=60))
        sched.complete(sched.schedule(), 0.0)
        plan = sched.schedule()
        alloc = sched.allocator
        # Each sequence's 2 blocks hold its 7 tokens and this plan's
        # 8th exactly, and 16 blocks are free: 32 replays cross 8
        # blocks per sequence, 33 would cross 9.
        assert [s.kv_slots - s.context_tokens - 1 for s in plan.decode] \
            == [0, 0]
        assert alloc.free_blocks == 16
        assert sched.repeat_room(plan, 1000) == 32
        assert sched.repeat_room(plan, 20) == 20
        sched.repeat(plan, 32)
        assert alloc.free_blocks == 0
        assert [alloc.holds(s.request.req_id) for s in plan.decode] \
            == [10, 10]
        assert not sched.preempted

    def test_queued_work_or_prefill_leaves_no_room(self):
        config = SchedulerConfig(max_seqs=1)
        budget = KVBudget(capacity_bytes=1e4, bytes_per_token=1.0)
        sched = ContinuousBatchScheduler(budget, config=config)
        for i in range(2):
            sched.submit(Request(req_id=i, arrival_s=0.0, prompt_tokens=6,
                                 output_tokens=60))
        plan = sched.schedule()
        assert plan.prefill and sched.repeat_room(plan, 100) == 0
        sched.complete(plan, 0.0)
        plan = sched.schedule()  # decode-only, but request 1 waits
        assert not plan.prefill and sched.waiting
        assert sched.repeat_room(plan, 100) == 0
