"""Paged KV allocation, preemption and admission-policy tests.

Covers the paging invariants the subsystem promises — block
conservation (allocated + free == pool) across admit/advance/preempt/
finish, no block leak after preemption — plus two equivalence
guarantees, each verified against a verbatim copy of the older code:
``admission="reserve"`` exactly reproduces the legacy (PR-1)
scheduler's ``ServingReport`` on the PR-1 seed scenario, and the
incremental scheduler reproduces the object-path scheduler
(``LegacyPagedScheduler``) iteration by iteration on random traces in
both admission modes.  The oracle also keeps the per-owner token
ledger the pool used to keep, and re-sums the queues for
``kv_pressure``, so the scheduler's derived fragmentation and its
queued-demand counter are checked against them.
"""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm.config import llama_7b
from repro.obs.trace import EVT_ADMITTED, EVT_PREEMPTED
from repro.serve.api import SchedulerConfig, SimConfig
from repro.serve.paging import PagedKVAllocator
from repro.serve.requests import Request
from repro.serve.sanitize import SanitizeError
from repro.serve.scheduler import (
    BatchPlan,
    ContinuousBatchScheduler,
    KVBudget,
    SequenceState,
)
from repro.serve.simulator import ServingSimulator


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


def _req(i, prompt=64, output=16, arrival=0.0):
    return Request(req_id=i, arrival_s=arrival, prompt_tokens=prompt,
                   output_tokens=output)


def _paged(max_tokens=200, token_budget=256, max_seqs=16, block_tokens=8,
           watermark_frac=0.0):
    budget = KVBudget(capacity_bytes=float(max_tokens), bytes_per_token=1.0)
    return ContinuousBatchScheduler(budget, config=SchedulerConfig(
        token_budget=token_budget, max_seqs=max_seqs, admission="paged",
        block_tokens=block_tokens, watermark_frac=watermark_frac))


def _record_pool_calls(alloc, monkeypatch):
    """Record every outside call of a public :class:`PagedKVAllocator`
    method on ``alloc``, by name (the pool's calls to itself are not
    recorded)."""
    calls = []
    depth = 0
    for name, attr in vars(PagedKVAllocator).items():
        if name.startswith("_") or not callable(attr):
            continue

        def recorded(*args, _name=name, _method=getattr(alloc, name),
                     **kwargs):
            nonlocal depth
            if depth == 0:
                calls.append(_name)
            depth += 1
            try:
                return _method(*args, **kwargs)
            finally:
                depth -= 1

        monkeypatch.setattr(alloc, name, recorded)
    return calls


class TestPagedKVAllocator:
    def test_from_budget_block_math(self):
        cfg = llama_7b()
        budget = KVBudget.for_model(cfg, 4e9)  # 512 KiB/token FP16
        alloc = PagedKVAllocator.from_budget(budget, block_tokens=16)
        assert alloc.bytes_per_block == 16 * budget.bytes_per_token
        assert alloc.total_blocks == int(4e9 // alloc.bytes_per_block)
        # Whole blocks only: the pool never exceeds the byte budget.
        assert alloc.total_blocks * alloc.bytes_per_block <= 4e9

    def test_from_budget_subtracts_codebook_overhead(self):
        budget = KVBudget(capacity_bytes=1000.0, bytes_per_token=1.0,
                          overhead_bytes=100.0)
        alloc = PagedKVAllocator.from_budget(budget, block_tokens=10)
        assert alloc.total_blocks == 90

    def test_from_budget_rejects_block_larger_than_pool(self):
        budget = KVBudget(capacity_bytes=10.0, bytes_per_token=1.0)
        with pytest.raises(ValueError):
            PagedKVAllocator.from_budget(budget, block_tokens=16)

    def test_blocks_for_tokens_ceil(self):
        alloc = PagedKVAllocator(total_blocks=10, block_tokens=16)
        assert alloc.blocks_for_tokens(0) == 0
        assert alloc.blocks_for_tokens(1) == 1
        assert alloc.blocks_for_tokens(16) == 1
        assert alloc.blocks_for_tokens(17) == 2

    def test_ensure_release_conserves_blocks(self):
        alloc = PagedKVAllocator(total_blocks=10, block_tokens=4)
        assert alloc.ensure(0, 9)   # 3 blocks
        assert alloc.ensure(1, 20)  # 5 blocks
        assert alloc.used_blocks == 8 and alloc.free_blocks == 2
        assert alloc.used_blocks + alloc.free_blocks == alloc.total_blocks
        # Growing within the held blocks allocates nothing new.
        assert alloc.ensure(0, 12)
        assert alloc.holds(0) == 3
        assert alloc.release(1) == 5
        assert alloc.used_blocks == 3 and alloc.free_blocks == 7
        assert alloc.holds(1) == 0
        if alloc.sanitize:
            # Sanitize mode promotes the lenient no-op into the
            # double-free it usually is.
            with pytest.raises(SanitizeError):
                alloc.release(1)
        else:
            assert alloc.release(1) == 0

    def test_failed_ensure_allocates_nothing(self):
        alloc = PagedKVAllocator(total_blocks=4, block_tokens=4)
        assert alloc.ensure(0, 12)  # 3 blocks
        assert not alloc.ensure(1, 8)  # needs 2, only 1 free
        assert alloc.holds(1) == 0
        assert alloc.free_blocks == 1
        # The holder can still use its own slack and the last free block.
        assert alloc.ensure(0, 16)
        assert alloc.free_blocks == 0

    def test_decode_inside_its_blocks_calls_no_pool_method(
            self, monkeypatch):
        """The sequence is the token ledger: a decode whose token lands
        in a block it holds touches the pool not at all.  (Sanitize mode
        reads the pool to check the ledger, so it is switched off.)"""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sched = _paged(max_tokens=128, block_tokens=16)
        sched.submit(_req(0, prompt=17, output=8))  # 2 blocks, 32 slots
        sched.complete(sched.schedule(), 0.0)
        calls = _record_pool_calls(sched.allocator, monkeypatch)
        for it in range(1, 4):
            plan = sched.schedule(float(it))
            assert [s.request.req_id for s in plan.decode] == [0]
            sched.complete(plan, float(it))
        assert sched.running[0].context_tokens == 21
        assert calls == []

    def test_decode_crossing_a_block_makes_one_ensure(self, monkeypatch):
        """A decode whose token crosses into a new block calls the pool
        once, to change the block count."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        sched = _paged(max_tokens=128, block_tokens=16)
        sched.submit(_req(0, prompt=15, output=8))  # 16 tokens: 1 block
        sched.complete(sched.schedule(), 0.0)
        calls = _record_pool_calls(sched.allocator, monkeypatch)
        sched.complete(sched.schedule(1.0), 1.0)  # token 17: block 2
        assert calls == ["ensure"]
        assert sched.running[0].kv_slots == 32
        assert sched.allocator.holds(0) == 2

    def test_stats_and_fragmentation(self):
        """Pool stats count blocks; fragmentation is the scheduler's,
        from its own token ledger."""
        sched = _paged(max_tokens=128, block_tokens=16)
        alloc = sched.allocator
        sched.submit(_req(0, prompt=16, output=2))
        sched.complete(sched.schedule(), 0.0)  # 2 blocks, 32 slots, 17 live
        stats = alloc.stats()
        assert stats.used_blocks == 2 and stats.free_blocks == 6
        assert stats.used_fraction == 0.25
        assert stats.peak_used_blocks == 2
        assert sched.kv_fragmentation == 1 - 17 / 32
        assert [s.request.req_id
                for s in sched.complete(sched.schedule(1.0), 1.0)] == [0]
        assert alloc.used_blocks == 0 and sched.kv_fragmentation == 0.0
        assert alloc.stats().peak_used_blocks == 2  # high-water mark survives

    def test_validation(self):
        with pytest.raises(ValueError):
            PagedKVAllocator(total_blocks=0, block_tokens=8)
        with pytest.raises(ValueError):
            PagedKVAllocator(total_blocks=8, block_tokens=0)


class TestPagedScheduling:
    def test_admits_beyond_worst_case(self):
        """Paged admission needs prompt blocks only, so it runs more
        concurrent sequences than worst-case reservations allow."""
        budget = KVBudget(capacity_bytes=200.0, bytes_per_token=1.0)
        reserve = ContinuousBatchScheduler(budget, config=SchedulerConfig(
            token_budget=1024, max_seqs=16))
        paged = ContinuousBatchScheduler(budget, config=SchedulerConfig(
            token_budget=1024, max_seqs=16, admission="paged", block_tokens=8,
            watermark_frac=0.0))
        for sched in (reserve, paged):
            for i in range(8):
                sched.submit(_req(i, prompt=16, output=84))  # 100 worst-case
            sched.schedule()
        assert len(reserve.running) == 2   # 2 x 100-token reservations
        assert len(paged.running) > 2 * len(reserve.running)

    def test_block_conservation_through_lifecycle(self):
        """allocated + free == pool after every admit/advance/preempt/
        finish, and preempted sequences hold zero blocks."""
        sched = _paged(max_tokens=200, token_budget=64, max_seqs=16)
        for i in range(10):
            sched.submit(_req(i, prompt=16, output=24))
        alloc = sched.allocator
        iters = 0
        while sched.has_work:
            plan = sched.schedule(float(iters))
            assert not plan.empty
            sched.complete(plan, float(iters))
            assert (alloc.used_blocks + alloc.free_blocks
                    == alloc.total_blocks)
            held = sum(alloc.holds(s.request.req_id)
                       for s in sched.running)
            assert alloc.used_blocks == held
            for seq in sched.preempted:
                assert alloc.holds(seq.request.req_id) == 0
            iters += 1
            assert iters < 2000
        assert sched.n_preemptions >= 1
        assert alloc.used_blocks == 0
        assert alloc.free_blocks == alloc.total_blocks

    def test_preemption_recompute_semantics(self):
        """The victim frees its blocks, folds generated tokens into
        prefill work, and still completes with the full output."""
        sched = _paged(max_tokens=64, token_budget=64, max_seqs=4)
        sched.submit(_req(0, prompt=24, output=30))
        sched.submit(_req(1, prompt=24, output=30))
        seen_preempted = None
        finished = []
        for it in range(500):
            if not sched.has_work:
                break
            plan = sched.schedule(float(it))
            finished.extend(sched.complete(plan, float(it)))
            if sched.preempted and seen_preempted is None:
                seen_preempted = sched.preempted[0]
                assert seen_preempted.prefilled == 0
                assert (seen_preempted.restart_tokens
                        == seen_preempted.generated > 0)
                assert (seen_preempted.prefill_remaining
                        == 24 + seen_preempted.restart_tokens)
                assert seen_preempted.context_tokens == 0
                assert sched.allocator.holds(
                    seen_preempted.request.req_id) == 0
        assert seen_preempted is not None
        assert seen_preempted.preemptions >= 1
        assert len(finished) == 2
        assert all(s.generated == 30 for s in finished)
        # Recompute preserves the first-token timestamp (TTFT does not
        # reset when a sequence is evicted after sampling began).
        assert all(s.first_token_s is not None for s in finished)

    def test_decode_preempts_youngest_first(self):
        """When the pool runs dry the most recently admitted sequence
        is evicted, not the oldest."""
        sched = _paged(max_tokens=64, token_budget=64, max_seqs=4)
        sched.submit(_req(0, prompt=16, output=40))
        sched.submit(_req(1, prompt=16, output=40))
        it = 0
        while not sched.preempted:
            plan = sched.schedule(float(it))
            sched.complete(plan, float(it))
            it += 1
            assert it < 200
        assert sched.preempted[0].request.req_id == 1
        assert [s.request.req_id for s in sched.running] == [0]

    def test_preempted_requeue_stays_fcfs_across_iterations(self):
        """Victims falling in different iterations (any age order)
        still re-admit oldest-first."""
        sched = _paged(max_tokens=400, token_budget=1024, max_seqs=8)
        for i in range(3):
            sched.submit(_req(i, prompt=16, output=16))
        sched.complete(sched.schedule(), 0.0)
        a, b, c = sched.running  # admission (FCFS) order
        sched._preempt(b, set())  # middle first, as if iteration 1
        sched._preempt(a, set())  # then the oldest, iteration 2
        sched._preempt(c, set())
        assert [s.request.req_id for s in sched.preempted] == [0, 1, 2]
        assert [s.admission_no for s in sched.preempted] == [1, 2, 3]

    def test_victim_is_youngest_by_admission_not_tail_position(self):
        """A re-admitted older sequence sits at the tail of ``running``
        but must not be re-evicted ahead of a truly younger one."""
        sched = _paged(max_tokens=400, token_budget=1024, max_seqs=8)
        for i in range(2):
            sched.submit(_req(i, prompt=16, output=16))
        sched.complete(sched.schedule(), 0.0)
        older, younger = sched.running
        sched._preempt(older, set())
        sched.running.append(sched.preempted.popleft())  # re-admitted
        assert [s.admission_no for s in sched.running] == [2, 1]
        assert sched._pick_victim(BatchPlan()) is younger

    def test_oversized_request_rejected(self):
        sched = _paged(max_tokens=40, block_tokens=8)
        assert not sched.fits(_req(0, prompt=48, output=16))
        with pytest.raises(ValueError):
            sched.submit(_req(0, prompt=48, output=16))
        # Block granularity: 41 tokens need 6 blocks but only 5 exist.
        assert sched.fits(_req(1, prompt=32, output=8))
        assert not sched.fits(_req(2, prompt=33, output=8))

    def test_simulator_run_drains_and_reports(self):
        budget = KVBudget(capacity_bytes=300.0, bytes_per_token=1.0)
        sched = ContinuousBatchScheduler(budget, config=SchedulerConfig(
            token_budget=256, max_seqs=32, admission="paged", block_tokens=8))
        sim = ServingSimulator(sched, ConstantCostModel(), config=SimConfig(
            name="paged"))
        trace = [_req(i, prompt=32, output=24) for i in range(12)]
        report = sim.run(trace)
        assert report.n_requests == 12
        assert report.admission == "paged"
        assert report.n_preempted == sched.n_preemptions >= 1
        assert report.peak_kv_occupancy > 0
        assert "preempt" in report.summary()
        assert not sched.has_work and sched.allocator.used_blocks == 0

    def test_paged_outpacks_reserve_at_equal_memory(self):
        """The tentpole claim at stub-cost scale: equal pool, paged
        admission reaches strictly higher peak occupancy and no worse
        completion time."""
        budget = KVBudget(capacity_bytes=300.0, bytes_per_token=1.0)
        trace = [_req(i, prompt=32, output=24) for i in range(12)]
        reports = {}
        for adm in ("reserve", "paged"):
            sched = ContinuousBatchScheduler(budget, config=SchedulerConfig(
                token_budget=256, max_seqs=32, admission=adm, block_tokens=8))
            reports[adm] = ServingSimulator(
                sched, ConstantCostModel(),
                config=SimConfig(name=adm)).run(trace)
        assert (reports["paged"].peak_kv_occupancy
                > reports["reserve"].peak_kv_occupancy)
        assert (reports["paged"].makespan_s
                <= reports["reserve"].makespan_s)

    def test_kv_pressure_uses_observed_blocks(self):
        """Paged pressure counts blocks actually held plus queued
        prompts' blocks — not worst-case footprints."""
        sched = _paged(max_tokens=80, token_budget=4, max_seqs=1,
                       block_tokens=8)
        sched.submit(_req(0, prompt=8, output=64))   # 72 worst-case
        sched.submit(_req(1, prompt=8, output=64))   # queued
        sched.complete(sched.schedule(), 0.0)
        alloc = sched.allocator
        expected = (alloc.used_blocks
                    + alloc.blocks_for_tokens(8 + 1)) / alloc.total_blocks
        assert sched.kv_pressure == pytest.approx(expected)
        # Worst-case pressure would already be (72 + 72) / 80 = 1.8.
        assert sched.kv_pressure < 1.0

    def test_fragmentation_visible(self):
        sched = _paged(max_tokens=160, token_budget=64, max_seqs=8,
                       block_tokens=16)
        sched.submit(_req(0, prompt=17, output=8))  # 2 blocks, 14 slack
        sched.complete(sched.schedule(), 0.0)
        assert sched.kv_fragmentation == 1 - 18 / 32

    def test_validation(self):
        budget = KVBudget(capacity_bytes=100.0, bytes_per_token=1.0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(budget, config=SchedulerConfig(
                admission="evict"))
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(budget, config=SchedulerConfig(
                admission="paged", block_tokens=0))
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(budget, config=SchedulerConfig(
                admission="paged", watermark_frac=1.0))


# ----------------------------------------------------------------------
# Invariant fuzzing: randomized ensure/release/preempt interleavings
# ----------------------------------------------------------------------
class TestAllocatorFuzz:
    """Hypothesis-style randomized interleavings (seeded ``random``):
    whatever order ``ensure``/``release``/preemption happen in, the
    pool conserves blocks and never leaks an owner entry."""

    def _check(self, alloc, live_owners):
        assert alloc.used_blocks + alloc.free_blocks == alloc.total_blocks
        assert alloc.used_blocks == sum(alloc.holds(o) for o in live_owners)
        assert set(alloc._held) <= live_owners
        for owner in live_owners:
            assert alloc.holds(owner) >= 0

    def test_ensure_release_interleavings_conserve_blocks(self):
        rng = random.Random(0xC0FFEE)
        for trial in range(25):
            total = rng.randint(4, 64)
            bt = rng.choice([1, 2, 4, 8, 16])
            alloc = PagedKVAllocator(total_blocks=total, block_tokens=bt)
            tokens = {}
            for _ in range(200):
                op = rng.random()
                if op < 0.55 or not tokens:
                    owner = rng.randint(0, 7)
                    want = tokens.get(owner, 0) + rng.randint(1, 3 * bt)
                    before = (alloc.holds(owner), alloc.free_blocks)
                    if alloc.ensure(owner, want):
                        tokens[owner] = max(tokens.get(owner, 0), want)
                    else:
                        # A failed ensure must change nothing.
                        assert (alloc.holds(owner),
                                alloc.free_blocks) == before
                else:
                    owner = rng.choice(sorted(tokens))
                    freed = alloc.release(owner)
                    assert freed == -(-tokens.pop(owner) // bt)
                self._check(alloc, set(tokens))
            for owner in sorted(tokens):
                alloc.release(owner)
            assert alloc.used_blocks == 0
            assert alloc.free_blocks == alloc.total_blocks
            assert not alloc._held

    def test_scheduler_lifecycle_fuzz_with_preemptions(self):
        """Random traces through the paged scheduler — including forced
        out-of-band preemptions — conserve blocks at every iteration
        and drain to an empty pool."""
        rng = random.Random(1234)
        for trial in range(10):
            bt = rng.choice([4, 8, 16])
            sched = _paged(max_tokens=rng.randint(10, 30) * bt,
                           token_budget=rng.randint(16, 128),
                           max_seqs=rng.randint(2, 8), block_tokens=bt)
            alloc = sched.allocator
            n_reqs = rng.randint(4, 12)
            cap = alloc.total_blocks * bt
            for i in range(n_reqs):
                prompt = rng.randint(1, max(1, cap // 2 - 2))
                output = rng.randint(1, max(1, cap - prompt - bt))
                if sched.fits(_req(i, prompt=prompt, output=output)):
                    sched.submit(_req(i, prompt=prompt, output=output))
            it = 0
            while sched.has_work:
                plan = sched.schedule(float(it))
                assert not plan.empty
                sched.complete(plan, float(it))
                if sched.running and rng.random() < 0.15:
                    sched._preempt(rng.choice(sched.running), set())
                assert (alloc.used_blocks + alloc.free_blocks
                        == alloc.total_blocks)
                assert alloc.used_blocks == sum(
                    alloc.holds(s.request.req_id) for s in sched.running)
                for seq in sched.preempted:
                    assert alloc.holds(seq.request.req_id) == 0
                it += 1
                assert it < 5000, "fuzz trace failed to drain"
            assert alloc.used_blocks == 0
            assert not alloc._held


# ----------------------------------------------------------------------
# Reserve-mode equivalence against the legacy (PR-1) scheduler
# ----------------------------------------------------------------------
class LegacyReserveScheduler:
    """Verbatim copy of the PR-1 scheduler loop (worst-case
    reservations, head-first decode order), as the equivalence oracle.

    It also carries the scheduler attributes the simulator reads: the
    loop never preempts, pages or caches prefixes, and it tracks no
    occupancy high-water mark or registry metrics.
    """

    allocator = None
    admission = "reserve"
    prefix_caching = False
    n_preemptions = 0
    peak_kv_occupancy = 0.0

    def __init__(self, budget, token_budget=2048, max_seqs=64):
        self.budget = budget
        self.token_budget = token_budget
        self.max_seqs = max_seqs
        self.waiting = deque()
        self.preempted = deque()
        self.running = []
        self.reserved_tokens = 0
        self.peak_seqs = 0
        self.peak_reserved_tokens = 0

    @property
    def kv_occupancy(self):
        return (sum(s.context_tokens for s in self.running)
                / max(1, self.budget.max_tokens))

    def prefix_stats(self):
        return None

    def emit_metrics(self, registry, **labels):
        pass

    def fits(self, request):
        return request.total_tokens <= self.budget.max_tokens

    def submit(self, request):
        self.waiting.append(request)

    @property
    def has_work(self):
        return bool(self.waiting or self.running)

    @property
    def kv_utilization(self):
        return self.reserved_tokens / max(1, self.budget.max_tokens)

    def schedule(self, now_s=0.0):
        while self.waiting and len(self.running) < self.max_seqs:
            nxt = self.waiting[0]
            if (self.reserved_tokens + nxt.total_tokens
                    > self.budget.max_tokens):
                break
            self.waiting.popleft()
            self.running.append(SequenceState(request=nxt, admitted_s=now_s))
            self.reserved_tokens += nxt.total_tokens
        self.peak_seqs = max(self.peak_seqs, len(self.running))
        plan = BatchPlan()
        budget = self.token_budget
        for seq in self.running:
            if seq.in_decode and budget > 0:
                plan.decode.append(seq)
                budget -= 1
        for seq in self.running:
            if budget <= 0:
                break
            if seq.prefill_remaining > 0:
                chunk = min(seq.prefill_remaining, budget)
                plan.prefill.append((seq, chunk))
                budget -= chunk
        return plan

    def repeat_room(self, plan, limit):
        return 0  # the step-by-step reference never replays

    def complete(self, plan, now_s):
        finished = []
        for seq, chunk in plan.prefill:
            seq.prefilled += chunk
            if seq.prefill_remaining == 0:
                seq.generated += 1
                seq.first_token_s = now_s
        for seq in plan.decode:
            seq.generated += 1
            if seq.first_token_s is None:
                seq.first_token_s = now_s
        for seq in list(self.running):
            if seq.finished:
                seq.finished_s = now_s
                self.running.remove(seq)
                self.reserved_tokens -= seq.reserved_tokens
                finished.append(seq)
        return finished


class TestReserveEquivalence:
    """``admission="reserve"`` must exactly reproduce the legacy
    scheduler's ``ServingReport`` on the PR-1 seed scenario."""

    def _pr1_trace(self):
        from repro.bench.serving import make_trace
        return make_trace("poisson", 16.0, 64, 384, 96, seed=0)

    @pytest.mark.parametrize("bytes_per_token", [524288.0, 131072.0],
                             ids=["fp16", "kv-cq-4"])
    def test_reports_match_legacy(self, bytes_per_token):
        trace = self._pr1_trace()
        reports = []
        for make in (
            lambda b: LegacyReserveScheduler(b, token_budget=2048,
                                             max_seqs=64),
            lambda b: ContinuousBatchScheduler(b, config=SchedulerConfig(
                token_budget=2048, max_seqs=64, admission="reserve")),
        ):
            budget = KVBudget(capacity_bytes=4e9,
                              bytes_per_token=bytes_per_token)
            sched = make(budget)
            reports.append(ServingSimulator(
                sched, ConstantCostModel(),
                config=SimConfig(name="eq")).run(trace))
        legacy, current = reports
        assert current.records == legacy.records
        assert current.makespan_s == legacy.makespan_s
        assert current.n_iterations == legacy.n_iterations
        assert current.peak_seqs == legacy.peak_seqs
        assert current.peak_kv_utilization == legacy.peak_kv_utilization
        assert current.n_preempted == 0

    def test_default_admission_is_reserve(self):
        budget = KVBudget(capacity_bytes=100.0, bytes_per_token=1.0)
        sched = ContinuousBatchScheduler(budget)
        assert sched.admission == "reserve"
        assert sched.allocator is None


# ----------------------------------------------------------------------
# One incremental scheduler path against the object-path oracle
# ----------------------------------------------------------------------
class LegacyPagedScheduler(ContinuousBatchScheduler):
    """The object-path scheduler, as the equivalence oracle.

    A verbatim copy of the loop that rebuilt the decode list from
    ``running`` every iteration, re-summed the outstanding prefill
    blocks at every admission, called ``ensure`` for every decode token
    and scanned all of ``running`` for finishers.  Reserve admission
    runs the same object path (no block growth; a reservation is
    released instead of blocks), as it did before the scheduler kept
    incremental batch state.

    It keeps the per-owner token ledger the pool kept before the
    scheduler became the only one: the tokens of every ``ensure`` it
    makes, the cached count at lock, popped at release.  A release
    commits only the ids that ledger covers, and fragmentation is
    computed from it the old way.  ``kv_pressure`` re-sums the queues
    (its admission and preemption bypass the queued counter).
    Queueing, gauges and metrics are inherited.
    """

    def __init__(self, budget, config=None):
        super().__init__(budget, config=config)
        #: owner -> live tokens, as the pool's ledger kept them.
        self._ledger = {}

    @property
    def kv_pressure(self):
        if self.allocator is not None:
            alloc = self.allocator
            queued = sum(alloc.blocks_for_tokens(s.prefill_target + 1)
                         for s in self.preempted)
            queued += sum(alloc.blocks_for_tokens(r.prompt_tokens + 1)
                          for r in self.waiting)
            return (alloc.used_blocks + queued) / alloc.total_blocks
        demand = (self.reserved_tokens
                  + sum(r.total_tokens for r in self.waiting))
        return demand / max(1, self._max_tokens)

    @property
    def kv_fragmentation(self):
        alloc = self.allocator
        if alloc is None:
            return 0.0
        bt = alloc.block_tokens
        if self.prefix_caching:
            live = sum(max(0, tokens - alloc.shared_blocks(owner) * bt)
                       for owner, tokens in self._ledger.items())
            live += alloc.cache.n_referenced * bt
        else:
            live = sum(self._ledger.values())
        slots = alloc.used_blocks * bt
        if slots == 0:
            return 0.0
        return 1.0 - live / slots

    def _ensure_tokens(self, rid, tokens):
        if not self.allocator.ensure(rid, tokens):
            return False
        if tokens > self._ledger.get(rid, 0):
            self._ledger[rid] = tokens
        return True

    def _release_blocks(self, seq):
        rid = seq.request.req_id
        live = self._ledger.pop(rid, 0)
        if self.prefix_caching:
            ids = self._resident_ids(seq)
            self.allocator.release(
                rid, token_ids=None if ids is None else ids[:live])
        else:
            self.allocator.release(rid)

    @property
    def kv_occupancy(self):
        if self.allocator is not None:
            frac = getattr(self.allocator, "resident_fraction", None)
            return self.allocator.used_fraction if frac is None else frac
        live = sum(s.context_tokens for s in self.running)
        return live / max(1, self._max_tokens)

    def _admit(self, now_s):
        if self.allocator is not None:
            self._admit_paged(now_s)
        else:
            while self.waiting and len(self.running) < self.max_seqs:
                nxt = self.waiting[0]
                if (self.reserved_tokens + nxt.total_tokens
                        > self._max_tokens):
                    break
                self.waiting.popleft()
                seq = self._new_sequence(nxt, now_s)
                self.running.append(seq)
                self.reserved_tokens += nxt.total_tokens
        self.peak_seqs = max(self.peak_seqs, len(self.running))
        self.peak_reserved_tokens = max(self.peak_reserved_tokens,
                                        self.reserved_tokens)

    def _admit_paged(self, now_s):
        alloc = self.allocator
        committed = sum(
            max(0, alloc.blocks_for_tokens(s.prefill_target + 1)
                - alloc.holds(s.request.req_id))
            for s in self.running)
        while (len(self.running) < self.max_seqs
               and (self.preempted or self.waiting)):
            known = None
            if self.preempted:
                cand = self.preempted[0]
                req = cand.request
                target = cand.prefill_target
                if self.prefix_caching:
                    known = self._known_ids(req, cand.restart_tokens)
            else:
                req = self.waiting[0]
                target = req.prompt_tokens
                if self.prefix_caching:
                    known = self._known_ids(req, 0)
            cached_blocks = 0
            if known is not None:
                cached_blocks = alloc.peek(known) // alloc.block_tokens
            need = max(0, alloc.blocks_for_tokens(target + 1)
                       - cached_blocks)
            watermark = self._watermark_blocks if self.running else 0
            if committed + need + watermark > alloc.free_blocks:
                break
            if self.preempted:
                seq = self.preempted.popleft()
                if self.tracer.enabled:
                    self.tracer.event(EVT_ADMITTED, now_s,
                                      self.trace_replica,
                                      seq.request.req_id, 1)
            else:
                seq = self._new_sequence(self.waiting.popleft(), now_s)
            if alloc.sanitize:
                alloc.notify_admitted(req.req_id)
            if known is not None:
                cached = alloc.match_and_lock(req.req_id, known)
                seq.prefilled = cached
                seq.cached_tokens = cached
                if cached > 0:
                    self._ledger[req.req_id] = cached
            self.running.append(seq)
            committed += need

    def _preempt(self, victim, evicted_ids):
        self._release_blocks(victim)
        self.running.remove(victim)
        evicted_ids.add(id(victim))
        victim.prefilled = 0
        victim.restart_tokens = victim.generated
        victim.preemptions += 1
        pos = 0
        while (pos < len(self.preempted)
               and self.preempted[pos].admission_no < victim.admission_no):
            pos += 1
        self.preempted.insert(pos, victim)
        self.n_preemptions += 1
        if self.tracer.enabled:
            self.tracer.event(EVT_PREEMPTED, self._trace_now_s,
                              self.trace_replica, victim.request.req_id,
                              victim.restart_tokens)

    def _pick_victim(self, plan):
        planned = {id(s) for s in plan.decode}
        planned.update(id(s) for s, _ in plan.prefill)
        victim = None
        for cand in self.running:
            if id(cand) in planned:
                continue
            if victim is None or cand.admission_no > victim.admission_no:
                victim = cand
        return victim

    def _grow_for_decode(self, seq, plan, evicted_ids):
        rid = seq.request.req_id
        while not self._ensure_tokens(rid, seq.context_tokens + 1):
            victim = self._pick_victim(plan)
            if victim is None:
                return False
            self._preempt(victim, evicted_ids)
            if victim is seq:
                return False
        return True

    def _clip_prefill_chunk(self, seq, chunk):
        alloc = self.allocator
        rid = seq.request.req_id
        kv = seq.context_tokens
        capacity = (alloc.holds(rid) + alloc.free_blocks) * alloc.block_tokens
        avail = capacity - kv
        chunk = min(chunk, avail)
        if chunk < 1:
            return 0
        target = kv + chunk
        if chunk == seq.prefill_remaining and chunk + 1 <= avail:
            target += 1
        if not self._ensure_tokens(rid, target):
            return 0
        return chunk

    def schedule(self, now_s=0.0):
        if self.tracer.enabled:
            self._trace_now_s = now_s
        self._admit(now_s)
        plan = BatchPlan()
        budget = self.token_budget
        evicted_ids = set()
        candidates = [s for s in self.running if s.in_decode]
        if candidates and budget > 0:
            start = self._decode_offset % len(candidates)
            granted = 0
            for seq in candidates[start:] + candidates[:start]:
                if budget <= 0:
                    break
                if id(seq) in evicted_ids:
                    continue
                if (self.allocator is not None
                        and not self._grow_for_decode(seq, plan,
                                                      evicted_ids)):
                    continue
                plan.decode.append(seq)
                budget -= 1
                granted += 1
            self._decode_offset = (start + granted) % len(candidates)
        for seq in list(self.running):
            if budget <= 0:
                break
            if seq.prefill_remaining > 0:
                chunk = min(seq.prefill_remaining, budget)
                if self.allocator is not None:
                    chunk = self._clip_prefill_chunk(seq, chunk)
                    if chunk < 1:
                        continue
                plan.prefill.append((seq, chunk))
                budget -= chunk
        return plan

    def repeat_room(self, plan, limit):
        return 0  # the step-by-step reference never replays

    def complete(self, plan, now_s):
        finished = []
        for seq, chunk in plan.prefill:
            seq.prefilled += chunk
            if seq.prefill_remaining == 0:
                seq.generated += 1
                if seq.first_token_s is None:
                    seq.first_token_s = now_s
        for seq in plan.decode:
            seq.generated += 1
            if seq.first_token_s is None:
                seq.first_token_s = now_s
        self.peak_kv_occupancy = max(self.peak_kv_occupancy,
                                     self.kv_occupancy)
        for seq in list(self.running):
            if seq.finished:
                seq.finished_s = now_s
                self.running.remove(seq)
                if self.allocator is not None:
                    self._release_blocks(seq)
                else:
                    self.reserved_tokens -= seq.reserved_tokens
                finished.append(seq)
        return finished


_DIFF_STEP_S = 0.001


@st.composite
def _diff_scenarios(draw):
    """A scheduler configuration, a trace it can serve, and a cycle of
    per-iteration token budgets.

    Pools are sized from the largest request up, so the tight end
    preempts and clips prefill chunks.  A fixed token budget bounds
    the decode batch it builds, so the cycle is what drops budgets
    below the decode batch and makes decode grants rotate partially.
    """
    admission = draw(st.sampled_from(["reserve", "paged"]))
    prefix = admission == "paged" and draw(st.booleans())
    bt = draw(st.sampled_from([1, 4, 16]))
    n = draw(st.integers(1, 16))
    shared = tuple(range(1000, 1000 + 48))  # a common system prompt
    trace = []
    arrival = 0.0
    for i in range(n):
        arrival += draw(st.sampled_from([0.0, 0.0005, 0.002, 0.01]))
        prompt = draw(st.integers(1, 48))
        output = draw(st.integers(1, 32))
        prompt_ids = output_ids = None
        if prefix and draw(st.integers(0, 5)):
            head = draw(st.integers(0, min(prompt, len(shared))))
            prompt_ids = shared[:head] + tuple(
                draw(st.integers(0, 3)) for _ in range(prompt - head))
            output_ids = tuple(range(i * 100, i * 100 + output))
        trace.append(Request(req_id=i, arrival_s=arrival,
                             prompt_tokens=prompt, output_tokens=output,
                             prompt_ids=prompt_ids, output_ids=output_ids))
    largest = max(-(-r.total_tokens // bt) for r in trace)
    pool_blocks = largest + draw(st.integers(0, 2 * largest))
    budgets = draw(st.lists(st.sampled_from([1, 2, 3, 5, 8, 24, 512]),
                            min_size=1, max_size=3))
    config = SchedulerConfig(
        token_budget=budgets[0],
        max_seqs=draw(st.integers(1, 12)), admission=admission,
        block_tokens=bt, watermark_frac=draw(st.sampled_from([0.0, 0.1])),
        prefix_caching=prefix)
    budget = KVBudget(capacity_bytes=float(pool_blocks * bt),
                      bytes_per_token=1.0)
    return config, budget, trace, budgets


def _plan_key(plan):
    return ([(s.request.req_id, chunk) for s, chunk in plan.prefill],
            [s.request.req_id for s in plan.decode])


def _scheduler_state(sched):
    """Everything the two paths must agree on between iterations."""
    state = {
        "decode_offset": sched._decode_offset,
        "preempted": [s.request.req_id for s in sched.preempted],
        "waiting": [r.req_id for r in sched.waiting],
        "running": [(s.request.req_id, s.prefilled, s.generated,
                     s.restart_tokens, s.cached_tokens, s.preemptions,
                     s.first_token_s) for s in sched.running],
        "reserved_tokens": sched.reserved_tokens,
        "kv_occupancy": sched.kv_occupancy,
        "kv_fragmentation": sched.kv_fragmentation,
        "kv_pressure": sched.kv_pressure,
        "peak_kv_occupancy": sched.peak_kv_occupancy,
        "peak_seqs": sched.peak_seqs,
        "n_preemptions": sched.n_preemptions,
    }
    alloc = sched.allocator
    if alloc is not None:
        owners = set(alloc._held) | set(getattr(alloc, "_shared", ()))
        state.update(holds={o: alloc.holds(o) for o in owners},
                     free_blocks=alloc.free_blocks,
                     stats=alloc.stats())
        if sched.prefix_caching:
            state["prefix_stats"] = alloc.prefix_stats()
    return state


def _assert_incremental_state(sched):
    """The incremental state equals its re-derivation from ``running``."""
    running = sched.running
    assert ([id(s) for s in sched._prefilling]
            == [id(s) for s in running if s.prefill_remaining > 0])
    assert ([id(s) for s in sched._decoding]
            == [id(s) for s in running if s.in_decode])
    assert sched._running_ctx_sum == sum(s.context_tokens for s in running)
    assert sched._decode_ctx_sum == sum(s.context_tokens
                                        for s in sched._decoding)
    alloc = sched.allocator
    if alloc is not None:
        holds = [alloc.holds(s.request.req_id) for s in running]
        assert sched._committed == sum(
            max(0, alloc.blocks_for_tokens(s.prefill_target + 1) - h)
            for s, h in zip(running, holds))
        assert [s.kv_slots for s in running] == [
            h * alloc.block_tokens for h in holds]
        queued = sum(alloc.blocks_for_tokens(s.prefill_target + 1)
                     for s in sched.preempted)
        queued += sum(alloc.blocks_for_tokens(r.prompt_tokens + 1)
                      for r in sched.waiting)
    else:
        queued = sum(r.total_tokens for r in sched.waiting)
    assert sched._queued_demand == queued


def _run_lockstep(config, budget, trace, budgets):
    """Drive the scheduler and the oracle through ``trace`` side by
    side (the token budget cycling through ``budgets``), comparing
    plans and state after every iteration."""
    new = ContinuousBatchScheduler(budget, config=config)
    old = LegacyPagedScheduler(budget, config=config)
    pending = deque(trace)
    now = 0.0
    for it in range(20_000):
        while pending and pending[0].arrival_s <= now:
            req = pending.popleft()
            assert new.fits(req) == old.fits(req)
            if new.fits(req):
                new.submit(req)
                old.submit(req)
        new.token_budget = old.token_budget = budgets[it % len(budgets)]
        plan, want = new.schedule(now), old.schedule(now)
        assert _plan_key(plan) == _plan_key(want)
        assert plan.mean_context() == want.mean_context()
        if plan.empty:
            if not pending:
                break
            now = max(now, pending[0].arrival_s)
            continue
        now += _DIFF_STEP_S
        done, want_done = new.complete(plan, now), old.complete(want, now)
        assert ([s.request.req_id for s in done]
                == [s.request.req_id for s in want_done])
        assert _scheduler_state(new) == _scheduler_state(old)
        _assert_incremental_state(new)
    else:
        pytest.fail("differential trace failed to drain")
    assert not new.has_work and not old.has_work


class TestIncrementalSchedulerEquivalence:
    """The one incremental scheduler path must reproduce the object-path
    oracle exactly, iteration by iteration, in both admission modes."""

    @settings(max_examples=120, deadline=None)
    @given(scenario=_diff_scenarios())
    def test_matches_object_path_oracle(self, scenario):
        config, budget, trace, budgets = scenario
        _run_lockstep(config, budget, trace, budgets)
        reports = [ServingSimulator(cls(budget, config=config),
                                    ConstantCostModel()).run(trace)
                   for cls in (ContinuousBatchScheduler,
                               LegacyPagedScheduler)]
        assert reports[0].records == reports[1].records
        assert reports[0].metrics() == reports[1].metrics()

    @pytest.mark.parametrize("output", [4, 1])
    def test_deferred_sampled_slot_stays_committed(self, output):
        """A prompt that completes in the last free slot defers its
        sampled token's slot to its first decode.  Until then the
        sequence still owes a block, which the running ``committed``
        total must keep counting — and drop when the sequence finishes
        on that first token instead (``output=1``)."""
        config = SchedulerConfig(token_budget=64, max_seqs=2,
                                 admission="paged", block_tokens=4)
        budget = KVBudget(capacity_bytes=20.0, bytes_per_token=1.0)
        trace = [_req(0, prompt=4, output=12),
                 _req(1, prompt=8, output=output, arrival=0.0035)]
        sched = ContinuousBatchScheduler(budget, config=config)
        sched.submit(trace[0])
        for it in range(4):
            sched.complete(sched.schedule(it * 0.001), (it + 1) * 0.001)
        sched.submit(trace[1])
        # Request 0 decodes into a third block; request 1's 8-token
        # prompt then fills the last two free blocks exactly.
        plan = sched.schedule(0.004)
        assert plan.prefill[0][1] == 8 and sched.allocator.holds(1) == 2
        done = sched.complete(plan, 0.005)
        if output == 1:
            assert [s.request.req_id for s in done] == [1]
            assert sched._committed == 0
        else:
            assert sched._decoding[-1].request.req_id == 1
            assert sched._committed == 1
        _assert_incremental_state(sched)
        _run_lockstep(config, budget, trace, [64])
