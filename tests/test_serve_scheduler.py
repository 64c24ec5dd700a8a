"""Continuous-batching scheduler and KV-memory accounting tests."""

import pytest

from repro.llm.config import llama_7b, tiny_llama
from repro.serve.api import SchedulerConfig
from repro.serve.requests import Request
from repro.serve.scheduler import (
    ContinuousBatchScheduler,
    KVBudget,
    kv_bytes_per_token,
    kv_codebook_bytes,
)
from repro.vq.algorithms import make_config


def _req(i, prompt=64, output=16, arrival=0.0):
    return Request(req_id=i, arrival_s=arrival, prompt_tokens=prompt,
                   output_tokens=output)


def _scheduler(max_tokens=10_000, token_budget=256, max_seqs=8):
    budget = KVBudget(capacity_bytes=float(max_tokens),
                      bytes_per_token=1.0)
    return ContinuousBatchScheduler(budget, config=SchedulerConfig(
        token_budget=token_budget, max_seqs=max_seqs))


class TestKVAccounting:
    def test_fp16_bytes_per_token(self):
        cfg = llama_7b()
        # 2 (K,V) * 32 heads * 128 dim * 2 B * 32 layers = 512 KiB/token.
        assert kv_bytes_per_token(cfg) == 524_288

    def test_vq_compression_scales_bytes(self):
        cfg = llama_7b()
        cq2 = make_config("cq-2")  # 12.5% of FP16
        assert kv_bytes_per_token(cfg, vq=cq2) == pytest.approx(65_536)
        assert kv_bytes_per_token(cfg, bits=4) == pytest.approx(131_072)

    def test_vq_and_bits_are_exclusive(self):
        with pytest.raises(ValueError):
            kv_bytes_per_token(llama_7b(), vq=make_config("cq-2"), bits=4)

    def test_codebook_overhead_positive_but_small(self):
        cfg = llama_7b()
        cq2 = make_config("cq-2")
        overhead = kv_codebook_bytes(cfg, cq2)
        assert overhead > 0
        # Per-channel-group codebooks cost ~2k tokens' worth of cache —
        # real but amortised against the tens of thousands of tokens a
        # serving budget holds.
        assert overhead < 5000 * kv_bytes_per_token(cfg, vq=cq2)

    def test_budget_max_tokens(self):
        cfg = llama_7b()
        budget = KVBudget.for_model(cfg, 4e9, vq=make_config("cq-2"))
        fp16 = KVBudget.for_model(cfg, 4e9)
        assert budget.max_tokens > 7 * fp16.max_tokens

    def test_budget_rejects_overhead_exceeding_capacity(self):
        with pytest.raises(ValueError):
            KVBudget(capacity_bytes=10.0, bytes_per_token=1.0,
                     overhead_bytes=10.0)

    def test_budget_derives_from_gpu_spec(self):
        from repro.gpu.spec import RTX4090
        cfg = llama_7b()
        budget = KVBudget.for_gpu(cfg, RTX4090)
        # 90% of 24 GB minus ~13.5 GB of FP16 weights leaves ~8 GB.
        expected = RTX4090.dram_bytes * 0.9 - 2.0 * cfg.param_count
        assert budget.capacity_bytes == pytest.approx(expected)
        assert budget.max_tokens > 10_000
        # Compression multiplies the token count at the same capacity.
        cq4 = KVBudget.for_gpu(cfg, RTX4090, vq=make_config("cq-4"))
        assert cq4.max_tokens > 3.5 * budget.max_tokens

    def test_budget_for_gpu_validation(self):
        from repro.gpu.spec import RTX4090
        cfg = llama_7b()
        with pytest.raises(ValueError):  # no dram_bytes on the spec
            KVBudget.for_gpu(cfg, RTX4090.with_dram(0.0))
        with pytest.raises(ValueError):  # weights exceed the chip
            KVBudget.for_gpu(cfg, RTX4090.with_dram(10.0))
        with pytest.raises(ValueError):
            KVBudget.for_gpu(cfg, RTX4090, reserve_fraction=1.0)
        # Quantized weights free memory for the cache.
        int4 = KVBudget.for_gpu(cfg, RTX4090,
                                weight_bytes=0.5 * cfg.param_count)
        assert int4.capacity_bytes > KVBudget.for_gpu(
            cfg, RTX4090).capacity_bytes


class TestScheduling:
    def test_prefill_then_decode_lifecycle(self):
        sched = _scheduler(token_budget=256)
        sched.submit(_req(0, prompt=100, output=3))
        plan = sched.schedule()
        assert plan.decode == [] and plan.prefill_tokens == 100
        finished = sched.complete(plan, now_s=1.0)
        assert finished == []
        seq = sched.running[0]
        # Prefill completion emits the first token in the same iteration.
        assert seq.generated == 1 and seq.first_token_s == 1.0
        plan = sched.schedule()
        assert plan.prefill == [] and plan.decode_batch == 1
        sched.complete(plan, now_s=2.0)
        plan = sched.schedule()
        finished = sched.complete(plan, now_s=3.0)
        assert len(finished) == 1 and finished[0].finished_s == 3.0
        assert sched.running == [] and sched.reserved_tokens == 0

    def test_chunked_prefill_respects_token_budget(self):
        sched = _scheduler(token_budget=64)
        sched.submit(_req(0, prompt=200, output=4))
        chunks = []
        for _ in range(4):
            plan = sched.schedule()
            if plan.prefill:
                chunks.append(plan.prefill_tokens)
            sched.complete(plan, now_s=0.0)
        assert chunks[:3] == [64, 64, 64]
        assert sched.running[0].prefill_remaining == 200 - sum(chunks)

    def test_decode_has_priority_over_prefill(self):
        sched = _scheduler(token_budget=64)
        sched.submit(_req(0, prompt=32, output=8))
        sched.complete(sched.schedule(), now_s=0.0)  # seq 0 into decode
        sched.submit(_req(1, prompt=500, output=8))
        plan = sched.schedule()
        assert plan.decode_batch == 1
        assert plan.prefill_tokens == 63  # budget minus the decode token

    def test_admission_blocks_on_kv_memory(self):
        sched = _scheduler(max_tokens=150, token_budget=1024, max_seqs=8)
        sched.submit(_req(0, prompt=64, output=36))  # reserves 100
        sched.submit(_req(1, prompt=64, output=36))  # would need 200
        plan = sched.schedule()
        assert len(sched.running) == 1
        assert sched.reserved_tokens == 100
        # Finishing the first request frees its reservation.
        for _ in range(50):
            plan = sched.schedule()
            if not sched.complete(plan, now_s=0.0):
                continue
            break
        sched.schedule()
        assert [s.request.req_id for s in sched.running] == [1]

    def test_admission_is_fcfs_without_holes(self):
        sched = _scheduler(max_tokens=150, token_budget=1024, max_seqs=8)
        sched.submit(_req(0, prompt=64, output=36))
        sched.submit(_req(1, prompt=100, output=40))  # does not fit
        sched.submit(_req(2, prompt=8, output=8))     # would fit, must wait
        sched.schedule()
        assert [s.request.req_id for s in sched.running] == [0]

    def test_max_seqs_cap(self):
        sched = _scheduler(max_tokens=100_000, token_budget=4096, max_seqs=3)
        for i in range(5):
            sched.submit(_req(i))
        sched.schedule()
        assert len(sched.running) == 3 and len(sched.waiting) == 2

    def test_rejects_request_larger_than_budget(self):
        sched = _scheduler(max_tokens=50)
        with pytest.raises(ValueError):
            sched.submit(_req(0, prompt=64, output=16))

    def test_tracks_peaks_and_utilization(self):
        sched = _scheduler(max_tokens=1000, token_budget=4096, max_seqs=8)
        sched.submit(_req(0, prompt=64, output=16))
        sched.schedule()
        assert sched.peak_seqs == 1
        assert sched.peak_reserved_tokens == 80
        assert sched.kv_utilization == pytest.approx(0.08)

    def test_decode_round_robin_prevents_starvation(self):
        """Regression: with ``token_budget < len(running)`` decoding
        sequences, decode slots rotate round-robin so every sequence
        makes progress — pre-fix, slots went in ``running`` order every
        iteration and the tail starved until the head drained."""
        sched = _scheduler(max_tokens=100_000, token_budget=64, max_seqs=8)
        for i in range(6):
            sched.submit(_req(i, prompt=8, output=50))
        sched.complete(sched.schedule(), now_s=0.0)  # prefill all 6
        assert all(s.in_decode for s in sched.running)
        assert all(s.generated == 1 for s in sched.running)
        sched.token_budget = 2  # now 2 decode slots for 6 sequences
        for it in range(1, 10):
            plan = sched.schedule()
            assert plan.decode_batch == 2
            sched.complete(plan, now_s=float(it))
        # 9 iterations x 2 slots = 18 tokens over 6 sequences: exactly
        # 3 each under round-robin (plus the prefill-completion token).
        gens = [s.generated for s in sched.running]
        assert gens == [4] * 6

    def test_decode_rotation_is_noop_with_ample_budget(self):
        """With slots for everyone, rotation changes nothing: all
        decoding sequences are served every iteration."""
        sched = _scheduler(max_tokens=100_000, token_budget=512, max_seqs=8)
        for i in range(4):
            sched.submit(_req(i, prompt=8, output=5))
        sched.complete(sched.schedule(), now_s=0.0)
        for it in range(1, 4):
            plan = sched.schedule()
            assert plan.decode_batch == 4
            sched.complete(plan, now_s=float(it))
        assert all(s.generated == 4 for s in sched.running)

    def test_integration_with_model_budget(self):
        """End-to-end: VQ budgets admit many more tiny-Llama sequences."""
        cfg = tiny_llama()
        capacity = 400 * kv_bytes_per_token(cfg)  # 400 FP16 tokens
        results = {}
        for name, vq in (("fp16", None), ("cq-2", make_config("cq-2"))):
            budget = KVBudget.for_model(cfg, capacity, vq=vq)
            sched = ContinuousBatchScheduler(budget, config=SchedulerConfig(
                token_budget=8192, max_seqs=512))
            for i in range(64):
                sched.submit(_req(i, prompt=64, output=36))
            sched.schedule()
            results[name] = len(sched.running)
        assert results["fp16"] == 4
        # At tiny-Llama scale the resident codebooks eat a visible slice
        # of the budget, so the gain is below the 8x code compression —
        # but still well above 2x (at 7B scale the overhead amortises).
        assert results["cq-2"] >= 2 * results["fp16"]
