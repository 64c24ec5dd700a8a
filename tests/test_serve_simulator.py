"""Serving-simulator and metrics tests.

Most tests run the simulator with a stub cost model (constant iteration
cost) so they are exact and instant; one slow-ish test drives the real
analytic stack end-to-end on tiny-Llama.
"""

import math
from dataclasses import replace

import pytest

from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.kernels.gemm import GemmShape
from repro.llm.config import tiny_llama
from repro.llm.model import OperatorShape, prefill_operator_shapes
from repro.obs import percentile
from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig
from repro.serve.costs import StepCostModel, bucket_up
from repro.serve.requests import Request, poisson_trace, LengthSampler
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget
from repro.serve.sanitize import SanitizeError
from repro.serve.simulator import ServingSimulator, SimulationRun


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us
        self.calls = 0

    def step_us(self, plan):
        self.calls += 1
        return self._us

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


def _scheduler(max_tokens=100_000, token_budget=512, max_seqs=16):
    budget = KVBudget(capacity_bytes=float(max_tokens), bytes_per_token=1.0)
    return ContinuousBatchScheduler(budget, config=SchedulerConfig(
        token_budget=token_budget, max_seqs=max_seqs))


def _trace(n, prompt=32, output=8, gap=0.0):
    return [Request(req_id=i, arrival_s=i * gap, prompt_tokens=prompt,
                    output_tokens=output) for i in range(n)]


class TestPercentile:
    def test_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0

    def test_extreme_quantiles_are_min_and_max(self):
        values = [7.0, 1.0, 4.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_element_is_every_quantile(self):
        for q in (0, 37.5, 50, 100):
            assert percentile([3.25], q) == 3.25

    def test_accepts_any_sequence_type(self):
        assert percentile((2.0, 4.0), 50) == pytest.approx(3.0)
        assert percentile(iter([2.0, 4.0]), 50) == pytest.approx(3.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)
        with pytest.raises(ValueError):
            percentile([1.0], -1)


class TestBucketing:
    def test_rounds_up_within_grid(self):
        assert bucket_up(3, (1, 2, 4, 8)) == 4
        assert bucket_up(8, (1, 2, 4, 8)) == 8

    def test_doubles_past_grid_end(self):
        assert bucket_up(9, (1, 2, 4, 8)) == 16
        assert bucket_up(33, (1, 2, 4, 8)) == 64

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_up(0, (1, 2))

    def test_seq_bucket_rounds_fractional_context_up(self):
        """Regression: a fractional mean context just past a bucket
        boundary must round *up* (the module contract), not truncate
        into the lower bucket before the ceil-div (256.4 -> 256)."""
        cost = StepCostModel(ComputeEngine(RTX4090), tiny_llama(),
                             seq_bucket=256)
        assert cost._bucket_seq(256.0) == 256
        assert cost._bucket_seq(256.4) == 512   # pre-fix: 256
        assert cost._bucket_seq(512.0) == 512
        assert cost._bucket_seq(512.01) == 768
        assert cost._bucket_seq(0.5) == 256
        assert cost._bucket_seq(1.0) == 256
        assert cost._bucket_seq(257) == 512


class TestSimulatorLoop:
    def test_single_request_timing_is_exact(self):
        """One request, constant 1 ms steps: every metric is closed-form."""
        sched = _scheduler(token_budget=512)
        cost = ConstantCostModel(step_us=1000.0)
        sim = ServingSimulator(sched, cost, config=SimConfig(name="unit"))
        trace = _trace(1, prompt=100, output=5)
        report = sim.run(trace)
        # Iteration 1 prefills all 100 tokens and emits token 1; four
        # more decode iterations emit tokens 2..5.
        assert report.n_iterations == 5
        assert report.makespan_s == pytest.approx(0.005)
        rec = report.records[0]
        assert rec.ttft_s == pytest.approx(0.001)
        assert rec.latency_s == pytest.approx(0.005)
        assert rec.tpot_s == pytest.approx(0.001)

    def test_all_requests_complete(self):
        sched = _scheduler()
        sim = ServingSimulator(sched, ConstantCostModel(), config=SimConfig(
            name="unit"))
        report = sim.run(_trace(20, gap=0.0005))
        assert report.n_requests == 20
        assert sorted(r.req_id for r in report.records) == list(range(20))
        assert not sched.has_work

    def test_idle_gap_fast_forwards_clock(self):
        sched = _scheduler()
        sim = ServingSimulator(
            sched, ConstantCostModel(1000.0), config=SimConfig(name="unit"))
        trace = [Request(0, 0.0, 32, 2), Request(1, 10.0, 32, 2)]
        report = sim.run(trace)
        # The late arrival resets the clock past t=10 instead of the
        # simulator spinning through empty iterations.
        assert 10.0 < report.makespan_s < 10.1
        assert report.records[1].ttft_s < 0.1

    def test_rejected_arrival_does_not_move_the_clock(self):
        """A request no budget can hold is rejected without waiting for
        it: a rejection after the last completion leaves the makespan
        (and so throughput) at that completion, as in the fleet."""
        from repro.cluster.fleet import FleetSimulator, Replica

        trace = [Request(0, 0.0, 24, 6), Request(1, 1.0, 500, 6)]
        report = ServingSimulator(_scheduler(max_tokens=100),
                                  ConstantCostModel()).run(trace)
        assert report.n_rejected == 1
        assert report.makespan_s == report.records[0].finished_s
        assert report.makespan_s == pytest.approx(0.006)
        assert report.throughput_rps == 1 / report.makespan_s
        replica = Replica(0, _scheduler(max_tokens=100), ConstantCostModel())
        fleet = FleetSimulator([replica]).run(trace)
        assert fleet.makespan_s == report.makespan_s

    def test_queueing_shows_up_in_ttft(self):
        """With memory for one sequence at a time, TTFT grows linearly."""
        sched = _scheduler(max_tokens=40, token_budget=512, max_seqs=16)
        sim = ServingSimulator(
            sched, ConstantCostModel(1000.0), config=SimConfig(name="unit"))
        report = sim.run(_trace(4, prompt=32, output=8))  # 40 tokens each
        ttfts = [r.ttft_s for r in report.records]
        assert ttfts == sorted(ttfts)
        assert ttfts[-1] > 3 * ttfts[0] > 0

    def test_iteration_guard_trips(self):
        sched = _scheduler()
        sim = ServingSimulator(sched, ConstantCostModel(), config=SimConfig(
            name="unit"))
        with pytest.raises(RuntimeError):
            sim.run(_trace(10), max_iterations=3)

    def test_empty_trace_rejected(self):
        sim = ServingSimulator(
            _scheduler(), ConstantCostModel(), config=SimConfig(name="unit"))
        with pytest.raises(ValueError):
            sim.run([])

    def test_second_run_raises_before_touching_state(self):
        """A second run would carry the first run's scheduler state into
        its report (here: double the preemptions), so it raises and
        names the fix; a fresh simulator reproduces the first report."""
        config = SimConfig(name="unit", scheduler=SchedulerConfig(
            token_budget=512, max_seqs=32, admission="paged",
            block_tokens=8))
        budget = KVBudget(capacity_bytes=300.0, bytes_per_token=1.0)
        trace = _trace(5, prompt=40, output=40)
        sim = config.build(budget, ConstantCostModel())
        first = sim.run(trace)
        assert first.n_preempted == sim.scheduler.n_preemptions == 2
        with pytest.raises(RuntimeError, match="fresh one"):
            sim.run(trace)
        assert sim.scheduler.n_preemptions == 2
        again = config.build(budget, ConstantCostModel()).run(trace)
        assert again.metrics() == first.metrics()


class TestRunLedger:
    """Every run ends by balancing its ledger, with no option: corrupt
    the drained run just before the epilogue, and the run raises.  Each
    law is checked on a single engine and on a two-replica fleet."""

    @staticmethod
    def _run(monkeypatch, corrupt, fleet):
        finish = SimulationRun.finish

        def corrupted_finish(self, labels):
            corrupt(self)
            return finish(self, labels)

        monkeypatch.setattr(SimulationRun, "finish", corrupted_finish)
        trace = _trace(6, gap=0.0005)
        if fleet:
            budget = KVBudget(capacity_bytes=1e5, bytes_per_token=1.0)
            sim = FleetConfig(policy="round-robin", name="unit").build(
                2, budget, ConstantCostModel())
        else:
            sim = ServingSimulator(_scheduler(), ConstantCostModel(),
                                   config=SimConfig(name="unit"))
        return sim.run(trace)

    @staticmethod
    def _last_finished(run):
        return run.engines[0].finished[-1]

    @pytest.mark.parametrize("fleet", [False, True],
                             ids=["engine", "fleet"])
    def test_a_clean_run_balances(self, monkeypatch, fleet):
        report = self._run(monkeypatch, lambda run: None, fleet)
        assert report.n_requests == 6

    @pytest.mark.parametrize("fleet", [False, True],
                             ids=["engine", "fleet"])
    @pytest.mark.parametrize("corrupt, message", [
        (lambda run: run.engines[0].finished.append(
            run.engines[0].finished[0]), "engine 0 finished"),
        (lambda run: run.engines[0].finished.pop(), "engine 0 finished"),
        (lambda run: setattr(run, "n_rejected", 1), "for 5 accepted"),
    ], ids=["finished-twice", "never-finished", "rejected-and-run"])
    def test_every_arrival_ends_exactly_once(self, monkeypatch, fleet,
                                             corrupt, message):
        with pytest.raises(SanitizeError, match=f"run ledger: .*{message}"):
            self._run(monkeypatch, corrupt, fleet)

    @pytest.mark.parametrize("fleet", [False, True],
                             ids=["engine", "fleet"])
    def test_output_tokens_are_conserved(self, monkeypatch, fleet):
        def corrupt(run):
            self._last_finished(run).generated -= 1

        with pytest.raises(SanitizeError, match="7 of 8 output tokens"):
            self._run(monkeypatch, corrupt, fleet)

    @pytest.mark.parametrize("fleet", [False, True],
                             ids=["engine", "fleet"])
    @pytest.mark.parametrize("corrupt", [
        lambda seq: setattr(seq, "admitted_s", seq.request.arrival_s - 1),
        lambda seq: setattr(seq, "first_token_s", seq.admitted_s - 1e-6),
        lambda seq: setattr(seq, "finished_s", seq.first_token_s - 1e-6),
        lambda seq: setattr(seq, "first_token_s", None),
    ], ids=["admitted-before-arrival", "first-token-before-admission",
            "finished-before-first-token", "no-first-token"])
    def test_every_request_is_causal(self, monkeypatch, fleet, corrupt):
        with pytest.raises(SanitizeError, match="is not causal"):
            self._run(monkeypatch,
                      lambda run: corrupt(self._last_finished(run)), fleet)


class TestEndToEndAnalytic:
    """The real stack on tiny-Llama: slower (~seconds), still bounded."""

    def test_fp16_serving_run(self):
        cfg = tiny_llama()
        engine = ComputeEngine(RTX4090)
        budget = KVBudget.for_model(cfg, 5e6)
        sched = ContinuousBatchScheduler(budget, config=SchedulerConfig(
            token_budget=1024, max_seqs=8))
        cost = StepCostModel(engine, cfg, seq_bucket=128)
        trace = poisson_trace(50.0, 12,
                              prompt=LengthSampler(64, 0.3, hi=256),
                              output=LengthSampler(16, 0.3, hi=64),
                              seed=2)
        report = ServingSimulator(sched, cost, config=SimConfig(
            name="tiny-fp16")).run(trace)
        assert report.n_requests == 12
        assert report.makespan_s > 0
        assert report.throughput_rps > 0
        assert report.ttft_s(50) > 0
        assert report.latency_s(99) >= report.latency_s(50)
        # Memoization keeps the distinct kernel evaluations tiny: the
        # cost model's bucket tables absorb repeated iteration shapes,
        # and the engine memo deduplicates what leaks past them, so
        # cache hits across the two layers dwarf distinct evaluations.
        info = engine.memo_info()
        tables = cost.table_info()
        assert tables["hits"] > 0
        assert info["hits"] + tables["hits"] > info["misses"]
        # The summary renders every headline metric.
        text = report.summary()
        for token in ("throughput", "TTFT", "TPOT", "latency", "p99"):
            assert token in text


class TestReviewRegressions:
    """Fixes from the PR-1 review pass."""

    def test_chunked_prefill_attention_telescopes(self):
        """Per-chunk attention charges are increments of the cumulative
        causal cost, so they sum exactly to the whole-prompt charge —
        no re-billing of already-prefilled queries.  (GEMM and launch
        overheads legitimately differ under chunking: small GEMMs run
        at lower efficiency, and each chunk pays its own launches.)"""
        cfg = tiny_llama()
        cost = StepCostModel(ComputeEngine(RTX4090), cfg, seq_bucket=128)

        def attn_us(tokens, context):
            op, = [op for op in prefill_operator_shapes(
                       cfg, tokens, context, context + tokens)
                   if op.kind == "prefill_attention"]
            return cost._op_us(op)

        whole_attn = attn_us(2048, 0)
        chunk_attn = sum(attn_us(256, ctx) for ctx in range(0, 2048, 256))
        assert chunk_attn == pytest.approx(whole_attn, rel=1e-12)

    def test_chunked_prefill_overhead_is_bounded(self):
        """At 7B scale, chunking a 2048-token prompt costs well under
        the ~1.5x the old quadratic attention re-billing produced."""
        from repro.llm.config import llama_7b
        cost = StepCostModel(ComputeEngine(RTX4090), llama_7b(),
                             seq_bucket=128)
        whole = cost.prefill_us(2048)
        chunked = sum(cost.prefill_us(256, ctx)
                      for ctx in range(0, 2048, 256))
        assert whole <= chunked <= 1.4 * whole

    def test_oversized_request_rejected_not_crashed(self):
        sched = _scheduler(max_tokens=50, token_budget=512)
        sim = ServingSimulator(sched, ConstantCostModel(), config=SimConfig(
            name="unit"))
        trace = [Request(0, 0.0, 32, 8),           # fits (40 tokens)
                 Request(1, 0.0, 100, 8),          # cannot ever fit
                 Request(2, 0.1, 32, 8)]           # fits
        report = sim.run(trace)
        assert report.n_requests == 2
        assert report.n_rejected == 1
        assert "rejected" in report.summary()

    def test_single_token_outputs_do_not_crash_summary(self):
        sched = _scheduler()
        sim = ServingSimulator(sched, ConstantCostModel(), config=SimConfig(
            name="unit"))
        report = sim.run([Request(0, 0.0, 16, 1), Request(1, 0.0, 16, 1)])
        assert report.tpot_s(50) == 0.0
        assert "TPOT" in report.summary()

    def test_all_requests_rejected_still_reports(self):
        sched = _scheduler(max_tokens=10, token_budget=512)
        sim = ServingSimulator(sched, ConstantCostModel(), config=SimConfig(
            name="unit"))
        report = sim.run([Request(0, 0.0, 32, 8)])
        assert report.n_requests == 0 and report.n_rejected == 1
        assert report.ttft_s(50) == 0.0 and report.latency_s(99) == 0.0
        report.summary()  # must not raise

    def test_prompt_completion_prices_first_token(self):
        """Regression: the iteration that completes a prompt samples
        that sequence's first output token, so it must be charged the
        LM-head GEMV + sampler pass ``prefill_us`` deliberately omits
        (pre-fix, completing and non-completing chunks cost the same).
        """
        from repro.serve.scheduler import BatchPlan, SequenceState
        cfg = tiny_llama()
        cost = StepCostModel(ComputeEngine(RTX4090), cfg, seq_bucket=128)
        completing = SequenceState(request=Request(0, 0.0, 64, 8),
                                   prefilled=32)
        mid_prompt = SequenceState(request=Request(1, 0.0, 128, 8),
                                   prefilled=32)
        plan_done = BatchPlan(prefill=[(completing, 32)])
        plan_mid = BatchPlan(prefill=[(mid_prompt, 32)])
        assert plan_done.prompt_completions == 1
        assert plan_mid.prompt_completions == 0
        extra = cost.step_us(plan_done) - cost.step_us(plan_mid)
        assert cost.first_token_us(1) > 0
        assert extra == pytest.approx(cost.first_token_us(1))
        assert cost.first_token_us(0) == 0.0

    def test_qt_v_without_qt_rejected(self):
        from repro.kernels.attention import AttentionShape as AS
        engine = ComputeEngine(RTX4090)

        class FakeQT:  # never reaches kernel code: rejected up front
            pass

        with pytest.raises(ValueError):
            engine.batch_latency_us("attention", AS(1, 2, 64, 128),
                                    qt_v=FakeQT())


class TestDecodeBatchPastGemvCap:
    """Bucketed decode batches above the GEMV kernels' cap (64) are
    priced with the same family's GEMM; before the fix they raised
    ``ValueError: GEMV kernel expects a small batch dimension``."""

    SHAPE = GemmShape(m=96, n=4096, k=4096)
    PROJ = OperatorShape("gemv", "o_proj", m=96, n=4096, k=4096)

    @pytest.mark.parametrize("family", ["fp16", "elementwise", "vq"])
    def test_gemv_past_cap_is_the_family_gemm(self, family, qt_gptvq):
        kwargs = {"fp16": {}, "elementwise": {"weight_bits": 4},
                  "vq": {"weight_qt": qt_gptvq}}[family]
        engine = ComputeEngine(RTX4090)
        cost = StepCostModel(engine, tiny_llama(), **kwargs)
        assert cost._op_us(self.PROJ) == cost._op_us(
            replace(self.PROJ, kind="gemm"))
        # The LM head stays FP16.
        assert (cost._op_us(replace(self.PROJ, name="lm_head"))
                == engine.batch_latency_us("gemm", self.SHAPE))
        for batch in (65, 96, 128):
            assert cost.decode_step_us(batch, 512) > 0

    def test_gemv_within_cap_is_unchanged(self):
        engine = ComputeEngine(RTX4090)
        cost = StepCostModel(engine, tiny_llama())
        shape = GemmShape(m=64, n=4096, k=4096)
        assert cost._op_us(replace(self.PROJ, m=64)) == (
            engine.batch_latency_us("gemv", shape))

    def test_default_fleet_serves_bursty_kv_cq4(self):
        """``FleetConfig()`` allows 128 sequences per replica, so a
        bursty kv-cq-4 trace reaches the 96 and 128 batch buckets."""
        from repro.bench.cluster import replica_kv_budget
        from repro.bench.serving import make_cost_model, make_trace
        from repro.llm.config import llama_7b
        from repro.serve.api import FleetConfig

        config = llama_7b()
        trace = make_trace("bursty", 40.0, 300, 384, 96, seed=0)
        cost = make_cost_model(ComputeEngine(RTX4090), config, "kv-cq-4")
        report = FleetConfig().build(
            2, replica_kv_budget(config, "kv-cq-4", RTX4090),
            cost).run(trace)
        assert report.n_requests + report.n_rejected == len(trace)
        assert max(batch for batch, _ in cost._decode_table) > 64
