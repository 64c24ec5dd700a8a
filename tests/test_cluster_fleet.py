"""Fleet simulator, router-policy and SLO tests.

Everything runs on the constant-cost stub so assertions are exact; the
analytic integration is covered by ``tests/test_bench_experiments.py``
and ``examples/cluster_serving.py``.
"""

import math

import pytest

from repro.cluster.fleet import (
    FleetSimulator,
    PrefixAffinityPolicy,
    Replica,
    RouterPolicy,
    make_policy,
    size_fleet,
)
from repro.obs.slo import SLO
from repro.obs.timeline import TimelineConfig
from repro.serve.api import FleetConfig, SchedulerConfig
from repro.serve.requests import LengthSampler, Request, multi_turn_chat_trace
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


def _fleet(n, max_tokens, step_us, config):
    cost = ConstantCostModel(step_us)
    return [
        Replica(i, ContinuousBatchScheduler(
            KVBudget(capacity_bytes=float(max_tokens), bytes_per_token=1.0),
            config=config), cost)
        for i in range(n)
    ]


def _replicas(n, max_tokens=100_000, step_us=1000.0, token_budget=512,
              max_seqs=16):
    return _fleet(n, max_tokens, step_us, SchedulerConfig(
        token_budget=token_budget, max_seqs=max_seqs))


def _paged_replicas(n, max_tokens=300, step_us=1000.0, token_budget=512,
                    max_seqs=32, block_tokens=8):
    return _fleet(n, max_tokens, step_us, SchedulerConfig(
        token_budget=token_budget, max_seqs=max_seqs, admission="paged",
        block_tokens=block_tokens))


def _prefix_replicas(n, max_tokens=6000, step_us=1000.0, token_budget=512,
                     max_seqs=16, block_tokens=16):
    return _fleet(n, max_tokens, step_us, SchedulerConfig(
        token_budget=token_budget, max_seqs=max_seqs, admission="paged",
        block_tokens=block_tokens, prefix_caching=True))


def _trace(n, prompt=32, output=8, gap=0.0):
    return [Request(req_id=i, arrival_s=i * gap, prompt_tokens=prompt,
                    output_tokens=output) for i in range(n)]


class TestSLO:
    def test_met_by(self):
        from repro.serve.simulator import RequestRecord
        rec = RequestRecord(req_id=0, arrival_s=0.0, first_token_s=1.0,
                            finished_s=3.0, prompt_tokens=10,
                            output_tokens=5, queued_s=0.0)
        assert SLO(ttft_s=2.0).met_by(rec.ttft_s)
        assert SLO(ttft_s=1.0).met_by(rec.ttft_s)  # the limit itself meets
        assert not SLO(ttft_s=0.5).met_by(rec.ttft_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(ttft_s=0.0)
        with pytest.raises(ValueError):
            SLO(ttft_s=-1.0)


class TestRequestConservation:
    """No request is lost or duplicated across replicas."""

    @pytest.mark.parametrize("policy", ["round-robin", "jsq", "least-kv"])
    def test_all_requests_complete_exactly_once(self, policy):
        trace = _trace(30, gap=0.0007)
        report = FleetSimulator(_replicas(3), config=FleetConfig(
            policy=policy, name="unit")).run(trace)
        assert report.n_requests == 30 and report.n_rejected == 0
        assert sorted(r.req_id for r in report.records) == list(range(30))
        assert sorted(report.assignments) == list(range(30))
        # Per-replica routed counts partition the trace.
        assert sum(s.n_requests for s in report.replica_stats) == 30

    def test_rejected_plus_completed_covers_the_trace(self):
        trace = _trace(4, prompt=32, output=8)          # 40 tokens each
        trace.append(Request(req_id=4, arrival_s=0.0, prompt_tokens=500,
                             output_tokens=8))          # fits nowhere
        report = FleetSimulator(
            _replicas(2, max_tokens=50),
            config=FleetConfig(policy="jsq", name="unit")).run(trace)
        assert report.n_requests == 4
        assert report.n_rejected == 1
        assert 4 not in report.assignments
        assert "rejected" in report.summary()


class TestPolicies:
    def test_round_robin_cycles(self):
        trace = _trace(6)
        report = FleetSimulator(_replicas(3), config=FleetConfig(
            policy="round-robin", name="unit")).run(trace)
        assert [report.assignments[i] for i in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_jsq_prefers_the_idle_replica(self):
        replicas = _replicas(2)
        # Preload replica 0 so its queue is deeper at t=0.
        replicas[0].submit(Request(req_id=99, arrival_s=0.0,
                                   prompt_tokens=64, output_tokens=32))
        trace = _trace(2)
        report = FleetSimulator(replicas, config=FleetConfig(
            policy="jsq", name="unit")).run(trace)
        assert report.assignments[0] == 1
        # After the second arrival both queues tie at 1 -> lowest index.
        assert report.assignments[1] == 0

    def test_least_kv_sees_queued_demand(self):
        replicas = _replicas(2, max_tokens=1000)
        big = Request(req_id=99, arrival_s=0.0, prompt_tokens=400,
                      output_tokens=100)
        replicas[0].submit(big)
        assert replicas[0].kv_pressure == pytest.approx(0.5)
        assert replicas[1].kv_pressure == 0.0
        report = FleetSimulator(replicas, config=FleetConfig(
            policy="least-kv", name="unit")).run(_trace(1))
        assert report.assignments[0] == 1

    def test_unknown_policy_rejected(self):
        with pytest.raises(KeyError):
            make_policy("random")

    def test_policy_instance_passes_through(self):
        policy = make_policy("jsq")
        assert make_policy(policy) is policy

    def test_bad_policy_choice_is_caught(self):
        class Broken(RouterPolicy):
            name = "broken"

            def choose(self, request, replicas, candidates):
                return len(replicas) + 7

        with pytest.raises(ValueError):
            FleetSimulator(_replicas(2), config=FleetConfig(
                policy=Broken(), name="unit")).run(_trace(1))


class TestFleetBehaviour:
    def test_more_replicas_cut_queueing(self):
        """With one-sequence replicas, TTFT scales down with fleet size."""
        trace = _trace(8, prompt=32, output=8)  # simultaneous arrivals
        reports = {
            n: FleetSimulator(_replicas(n, max_tokens=40), config=FleetConfig(
                policy="jsq", name=f"n{n}")).run(trace)
            for n in (1, 2, 4)
        }
        ttfts = [reports[n].ttft_s(95) for n in (1, 2, 4)]
        assert ttfts[0] > ttfts[1] > ttfts[2]
        for rep in reports.values():
            assert rep.n_requests == 8

    def test_single_replica_matches_single_engine_semantics(self):
        """A 1-replica fleet reproduces ServingSimulator's exact timing."""
        report = FleetSimulator(_replicas(1), config=FleetConfig(
            policy="round-robin", name="unit")).run(_trace(1, prompt=100,
                                                        output=5))
        rec = report.records[0]
        assert rec.ttft_s == pytest.approx(0.001)
        assert rec.latency_s == pytest.approx(0.005)
        assert report.makespan_s == pytest.approx(0.005)

    def test_goodput_and_attainment(self):
        """8 simultaneous requests on one single-sequence replica: each
        takes 8 iterations, so TTFTs are 1, 9, 17, ... ms."""
        trace = _trace(8, prompt=32, output=8)
        report = FleetSimulator(
            _replicas(1, max_tokens=40),
            config=FleetConfig(policy="jsq", name="unit")).run(trace)
        slo = SLO(ttft_s=0.020)  # the first three requests meet it
        assert report.slo_attainment(slo) == pytest.approx(3 / 8)
        assert report.goodput_rps(slo) == pytest.approx(
            3 / report.makespan_s)
        assert not report.meets(slo)
        assert report.meets(SLO(ttft_s=1.0))

    def test_rejections_fail_compliance(self):
        trace = [Request(0, 0.0, 32, 8), Request(1, 0.0, 500, 8)]
        report = FleetSimulator(
            _replicas(1, max_tokens=50),
            config=FleetConfig(policy="jsq", name="unit")).run(trace)
        assert not report.meets(SLO(ttft_s=100.0))
        assert report.slo_attainment(SLO(ttft_s=100.0)) == pytest.approx(0.5)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            FleetSimulator(_replicas(1), config=FleetConfig(
                name="unit")).run([])

    def test_no_replicas_rejected(self):
        with pytest.raises(ValueError):
            FleetSimulator([], config=FleetConfig(name="unit"))

    def test_iteration_guard_trips(self):
        with pytest.raises(RuntimeError):
            FleetSimulator(_replicas(1), config=FleetConfig(name="unit")).run(
                _trace(10), max_iterations=3)

    def test_second_run_raises_before_touching_state(self):
        """A second run would route the trace onto replicas that still
        hold the first run's requests (a report of 10 requests), so it
        raises and names the fix."""
        replicas = _paged_replicas(2)
        sim = FleetSimulator(replicas, config=FleetConfig(
            policy="round-robin", name="unit"))
        trace = _trace(5, prompt=40, output=40)
        assert sim.run(trace).n_requests == 5
        ran = [rep.iterations for rep in replicas]
        with pytest.raises(RuntimeError, match="fresh one"):
            sim.run(trace)
        assert [rep.iterations for rep in replicas] == ran


def _size(trace, slo, max_tokens=100_000, max_replicas=8, record=False):
    """:func:`size_fleet` over fleets of :func:`_replicas`' kind behind
    ``jsq``; ``record`` turns on the tracer and the timeline."""
    config = FleetConfig(scheduler=SchedulerConfig(token_budget=512,
                                                   max_seqs=16),
                         policy="jsq", trace=record,
                         timeline=TimelineConfig() if record else None)
    budget = KVBudget(capacity_bytes=float(max_tokens), bytes_per_token=1.0)
    return size_fleet(config, budget, ConstantCostModel(), trace, slo,
                      max_replicas)


class TestSizeFleet:
    def test_finds_the_minimal_compliant_fleet(self):
        """One-sequence replicas, 8 simultaneous arrivals: with 4
        replicas every TTFT is 1 or 9 ms (p95 = 9 ms); with 3, the
        third-in-queue requests push p95 to 17 ms.  A 10 ms SLO
        therefore needs exactly 4."""
        trace = _trace(8, prompt=32, output=8)
        slo = SLO(ttft_s=0.010)
        n, report = _size(trace, slo, max_tokens=40)
        assert n == 4
        assert report.n_replicas == 4 and report.meets(slo)
        assert report.name == "fleet-4"
        # One fewer replica must miss (minimality).
        miss = FleetSimulator(_replicas(3, max_tokens=40), config=FleetConfig(
            policy="jsq", name="unit")).run(trace)
        assert not miss.meets(slo)

    def test_returns_none_when_even_max_misses(self):
        trace = _trace(8, prompt=32, output=8)
        n, report = _size(trace, SLO(ttft_s=1e-6), max_tokens=40,
                          max_replicas=2)
        assert n is None
        assert report.n_replicas == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            _size(_trace(1), SLO(ttft_s=1.0), max_replicas=0)

    @pytest.mark.parametrize("slo,max_replicas,size", [
        (SLO(ttft_s=0.010), 8, 4),
        (SLO(ttft_s=1e-6), 2, None),
    ], ids=["compliant", "none"])
    def test_records_only_the_returned_size(self, monkeypatch, slo,
                                            max_replicas, size):
        """A recording config runs one recorded fleet per call, at the
        returned size (the largest when none complies); the sizes
        tried before it run unrecorded.  The recorded report's metrics
        equal the unrecorded search's."""
        recorded = []
        original = FleetSimulator.run

        def run(self, trace, max_iterations=None):
            if self.config.trace or self.config.timeline is not None:
                recorded.append(len(self.replicas))
            return original(self, trace, max_iterations)

        monkeypatch.setattr(FleetSimulator, "run", run)
        trace = _trace(8, prompt=32, output=8)
        n, plain = _size(trace, slo, max_tokens=40,
                         max_replicas=max_replicas)
        assert recorded == []
        n_rec, report = _size(trace, slo, max_tokens=40,
                              max_replicas=max_replicas, record=True)
        assert n_rec == n == size
        assert recorded == [report.n_replicas]
        assert report.tracer is not None
        assert report.metrics() == plain.metrics()


class TestPagedFleet:
    def test_paged_replicas_complete_and_surface_preemptions(self):
        """A fleet of paged replicas conserves requests and reports
        per-replica recompute preemption counts."""
        trace = _trace(16, prompt=32, output=24, gap=0.0)
        report = FleetSimulator(
            _paged_replicas(2, max_tokens=300),
            config=FleetConfig(policy="jsq", name="unit")).run(trace)
        assert report.n_requests == 16 and report.n_rejected == 0
        assert len(report.replica_stats) == 2
        assert report.n_preempted == sum(
            s.n_preemptions for s in report.replica_stats)
        assert report.n_preempted >= 1
        assert "preemption" in report.summary()

    def test_least_kv_routes_on_observed_blocks(self):
        """Under paged admission the ``least-kv`` policy sees the
        blocks a replica actually holds: a replica packed with live
        sequences reports higher pressure than an idle one even though
        both have identical worst-case reservations (zero)."""
        reps = _paged_replicas(2, max_tokens=300)
        for i in range(4):
            reps[0].submit(Request(req_id=100 + i, arrival_s=0.0,
                                   prompt_tokens=32, output_tokens=24))
        reps[0].step()  # allocate blocks for the prefills
        assert reps[0].kv_pressure > reps[1].kv_pressure == 0.0
        policy = make_policy("least-kv")
        assert policy.choose(_trace(1)[0], reps, [0, 1]) == 1

    def test_candidates_respect_block_granularity(self):
        """Routing feasibility uses the scheduler's own fits() — a
        request can be infeasible on a paged replica purely from block
        rounding, not just token capacity."""
        reps = _paged_replicas(1, max_tokens=40, block_tokens=8)
        trace = [Request(req_id=0, arrival_s=0.0, prompt_tokens=33,
                         output_tokens=8)]  # 41 tokens -> 6 blocks of 5
        report = FleetSimulator(reps, config=FleetConfig(
            policy="jsq", name="unit")).run(trace)
        assert report.n_rejected == 1 and report.n_requests == 0

    def test_prefix_metrics_aggregate_across_replicas(self):
        """FleetReport sums the per-replica prefix counters."""
        reps = _prefix_replicas(2)
        trace = multi_turn_chat_trace(
            4, 3, rate_rps=50.0, think_s=0.02, system_tokens=32,
            user=LengthSampler(mean=16), output=LengthSampler(mean=8),
            seed=0)
        report = FleetSimulator(reps, config=FleetConfig(
            policy="prefix-affinity", name="unit")).run(trace)
        assert report.prefix_caching
        assert report.prefix_lookups == 12
        assert 0.0 < report.prefix_hit_rate <= 1.0
        assert 0.0 < report.cached_token_fraction < 1.0
        assert "prefix" in report.summary()

    def test_records_carry_cached_tokens(self):
        """Fleet records keep each request's prefix-cache hit, as the
        single-engine simulator's do; with no preemption (one match
        per request) they sum to the fleet's hit tokens."""
        from repro.serve.api import FleetConfig, SchedulerConfig
        config = FleetConfig(
            scheduler=SchedulerConfig(token_budget=512, max_seqs=16,
                                      admission="paged",
                                      prefix_caching=True),
            policy="prefix-affinity", name="unit")
        trace = multi_turn_chat_trace(
            4, 3, rate_rps=50.0, think_s=0.02, system_tokens=32,
            user=LengthSampler(mean=16), output=LengthSampler(mean=8),
            seed=0)
        report = config.build(2, KVBudget(capacity_bytes=6000.0,
                                          bytes_per_token=1.0),
                              ConstantCostModel()).run(trace)
        assert sum(s.n_preemptions for s in report.replica_stats) == 0
        cached = [r.cached_tokens for r in report.records]
        assert any(cached)
        assert sum(cached) == report.prefix_hit_tokens > 0

    def test_queue_depth_counts_preempted_sequences(self):
        """Preempted sequences carry re-prefill work, so jsq must see
        them as queued load."""
        rep = _paged_replicas(1, max_tokens=64, max_seqs=4)[0]
        for i in range(2):
            rep.submit(Request(req_id=i, arrival_s=0.0,
                               prompt_tokens=24, output_tokens=30))
        it = 0
        while not rep.scheduler.preempted:
            rep.step()
            it += 1
            assert it < 200
        s = rep.scheduler
        assert rep.queue_depth == (len(s.waiting) + len(s.preempted)
                                   + len(s.running))
        assert len(s.preempted) >= 1


class TestPrefixAffinity:
    def _chat_trace(self, seed=3):
        # Per-session system prompts (shared_system=False): hitting a
        # session's blocks requires landing on the replica that served
        # its earlier turns, which is exactly what affinity preserves.
        return multi_turn_chat_trace(
            12, 4, rate_rps=6.0, think_s=0.5, system_tokens=64,
            user=LengthSampler(mean=32), output=LengthSampler(mean=24),
            shared_system=False, seed=seed)

    def test_sessions_stick_to_one_replica(self):
        trace = self._chat_trace()
        report = FleetSimulator(_prefix_replicas(3), config=FleetConfig(
            policy="prefix-affinity", name="unit")).run(trace)
        by_session = {}
        for req in trace:
            by_session.setdefault(req.session_id, set()).add(
                report.assignments[req.req_id])
        assert all(len(replicas) == 1 for replicas in by_session.values())

    def test_affinity_beats_round_robin_on_hit_rate(self):
        """The acceptance claim: consistent-hashing sessions to
        replicas keeps their trees hot, so the fleet-wide prefix hit
        rate beats round-robin's on a sessionized trace."""
        trace = self._chat_trace()
        reports = {
            policy: FleetSimulator(_prefix_replicas(3), config=FleetConfig(
                policy=policy, name=policy)).run(trace)
            for policy in ("round-robin", "prefix-affinity")
        }
        for rep in reports.values():
            assert rep.n_requests == len(trace) and rep.n_rejected == 0
        assert (reports["prefix-affinity"].prefix_hit_rate
                > reports["round-robin"].prefix_hit_rate)
        assert (reports["prefix-affinity"].cached_token_fraction
                > reports["round-robin"].cached_token_fraction)

    def test_consistent_hash_is_deterministic_and_spreads(self):
        policy = PrefixAffinityPolicy()
        reps = _prefix_replicas(4)
        cands = list(range(4))

        def req(session):
            return Request(req_id=session, arrival_s=0.0, prompt_tokens=8,
                           output_tokens=4, session_id=session)

        chosen = {s: policy.choose(req(s), reps, cands) for s in range(64)}
        again = {s: policy.choose(req(s), reps, cands) for s in range(64)}
        assert chosen == again                      # sticky
        assert len(set(chosen.values())) == 4      # uses the whole fleet

    def test_infeasible_replicas_are_skipped(self):
        policy = PrefixAffinityPolicy()
        reps = _prefix_replicas(3)
        req = Request(req_id=0, arrival_s=0.0, prompt_tokens=8,
                      output_tokens=4, session_id=7)
        full = policy.choose(req, reps, [0, 1, 2])
        without = [i for i in (0, 1, 2) if i != full]
        assert policy.choose(req, reps, without) in without

    def test_sessionless_requests_fall_back_to_req_id(self):
        policy = PrefixAffinityPolicy()
        reps = _prefix_replicas(4)
        req = Request(req_id=11, arrival_s=0.0, prompt_tokens=8,
                      output_tokens=4)
        assert (policy.choose(req, reps, list(range(4)))
                == policy.choose(req, reps, list(range(4))))

    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            PrefixAffinityPolicy(vnodes=0)
