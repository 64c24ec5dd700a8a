"""Prefix-cache tests: radix tree, ref counting, COW, LRU eviction,
scheduler integration, and the default-path equivalence guarantee.

The golden numbers in ``TestDefaultPathUnchanged`` were recorded on
main immediately before the prefix subsystem landed; with
``prefix_caching=False`` (the default) every one of them must stay
bit-identical, so PR 1-4 results do not shift.

``TestIncrementalLRUEquivalence`` drives random operation sequences
through :class:`PrefixCache` and :class:`LegacyPrefixCache`, a copy of
the earlier hash-keyed tree's logic with one node per block, that
rebuilt its eviction heap from a full DFS on every ``evict_lru`` call
and re-walked every insert from the root, and requires identical trees
after every step.  The path-compressed tree is compared through a
per-block view: each node expands into its blocks, each with the
node's ``ref`` and ``last_used``.  ``TestEachBlockOnce`` counts the
work itself: heap pushes per evicted chain, and slices of the token
ids per admission and per release.
"""

import heapq
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import prefix as prefix_module
from repro.serve.api import SchedulerConfig, SimConfig
from repro.serve.prefix import PrefixCache, PrefixCachingAllocator
from repro.serve.requests import Request, pack_ids, unpack_ids
from repro.serve.sanitize import SanitizeError
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget
from repro.serve.simulator import ServingSimulator


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


def _ids(*ranges):
    out = []
    for r in ranges:
        out.extend(r)
    return tuple(out)


def _req(i, prompt_ids, output_ids=None, output=8, arrival=0.0,
         session=None, turn=0):
    out_ids = tuple(output_ids) if output_ids is not None else None
    return Request(req_id=i, arrival_s=arrival,
                   prompt_tokens=len(prompt_ids),
                   output_tokens=len(out_ids) if out_ids else output,
                   prompt_ids=tuple(prompt_ids), output_ids=out_ids,
                   session_id=session, turn=turn)


def _prefix_sched(total_tokens=256, block_tokens=8, token_budget=256,
                  max_seqs=16, watermark_frac=0.0):
    budget = KVBudget(capacity_bytes=float(total_tokens),
                      bytes_per_token=1.0)
    return ContinuousBatchScheduler(budget, config=SchedulerConfig(
        token_budget=token_budget, max_seqs=max_seqs, admission="paged",
        block_tokens=block_tokens, watermark_frac=watermark_frac,
        prefix_caching=True))


class TestPrefixCache:
    def test_insert_then_match(self):
        cache = PrefixCache(block_tokens=4)
        ids = _ids(range(12))
        created, dups = cache.insert(ids, 3)
        assert (created, dups) == (3, 0)
        assert cache.n_blocks == 3
        assert len(cache.match(ids, 3)) == 3
        assert len(cache.match(ids, 2)) == 2          # cap respected
        assert len(cache.match(_ids(range(8), [99, 98, 97, 96]), 3)) == 2
        assert len(cache.match(tuple(range(100, 112)), 3)) == 0

    def test_insert_is_idempotent(self):
        cache = PrefixCache(block_tokens=4)
        ids = _ids(range(8))
        assert cache.insert(ids, 2) == (2, 0)
        assert cache.insert(ids, 2) == (0, 2)
        assert cache.n_blocks == 2

    def test_branching_prefixes_share_the_stem(self):
        cache = PrefixCache(block_tokens=4)
        a = _ids(range(4), [10, 11, 12, 13])
        b = _ids(range(4), [20, 21, 22, 23])
        cache.insert(a, 2)
        created, dups = cache.insert(b, 2)
        assert (created, dups) == (1, 1)               # stem shared
        assert cache.n_blocks == 3

    def test_lock_pins_against_eviction(self):
        cache = PrefixCache(block_tokens=4)
        ids = _ids(range(8))
        cache.insert(ids, 2)
        path = cache.match(ids, 2)
        cache.lock(path)
        assert cache.n_referenced == 2
        assert cache.evict_lru(10) == 0                # all pinned
        cache.unlock(path)
        assert cache.n_referenced == 0
        assert cache.evict_lru(10) == 2
        assert cache.n_blocks == 0

    def test_evicts_leaves_lru_first(self):
        cache = PrefixCache(block_tokens=2)
        old = _ids([0, 1], [2, 3])
        new = _ids([0, 1], [4, 5])
        cache.insert(old, 2)
        cache.insert(new, 2)
        cache.match(new, 2)                            # touch `new`
        assert cache.evict_lru(1) == 1
        assert len(cache.match(new, 2)) == 2           # survivor
        assert len(cache.match(old, 2)) == 1           # leaf gone
        # The shared stem only falls once its children are gone.
        assert cache.evict_lru(10) == 2
        assert cache.n_blocks == 0

    def test_touch_moves_a_leaf_behind_newer_ones(self):
        """A leaf's older LRU position dies with the touch, whether the
        touch is a bare match or a match-lock-unlock cycle."""
        for relock in (False, True):
            cache = PrefixCache(block_tokens=2)
            a, b = _ids([0, 1]), _ids([2, 3])
            cache.insert(a, 1)
            cache.insert(b, 1)
            path = cache.match(a, 1)
            if relock:
                cache.lock(path)
                cache.unlock(path)
            assert cache.evict_lru(1) == 1
            assert len(cache.match(a, 1)) == 1
            assert len(cache.match(b, 1)) == 0

    def test_partial_lock_leaves_tail_evictable(self):
        cache = PrefixCache(block_tokens=2)
        ids = _ids(range(6))
        cache.insert(ids, 3)
        stem = cache.match(ids, 1)
        cache.lock(stem)
        assert cache.n_blocks - cache.n_referenced == 2  # evictable
        assert cache.evict_lru(10) == 2                # tail falls
        assert cache.n_blocks == 1 and cache.n_referenced == 1

    def test_a_run_is_one_node_until_split(self):
        """An insert stores its new blocks as one node; a touch that
        ends inside it splits it once, and a lock that ends where a
        touch already split needs no split of its own."""
        cache = PrefixCache(block_tokens=2)
        ids = _ids(range(20))
        assert cache.insert(ids, 10) == (10, 0)
        assert cache.n_nodes_allocated == 1
        head = cache.match(ids, 4)
        assert len(head) == 4 and head.node.n == 4
        assert cache.n_nodes_allocated == 2            # one split
        cache.lock(head)
        assert cache.n_nodes_allocated == 2
        assert cache.n_referenced == 4
        assert cache.n_blocks - cache.n_referenced == 6  # evictable
        # Commit past the lock: the last 6 blocks are already there.
        assert cache.insert(ids, 10, head) == (0, 6)
        cache.unlock(head)
        assert cache.n_referenced == 0
        assert cache.n_nodes_allocated == 2

    def test_a_split_inside_a_locked_path_keeps_its_end(self):
        cache = PrefixCache(block_tokens=1)
        ids = _ids(range(8))
        cache.insert(ids, 8)
        path = cache._walk(ids, 8)
        cache.touch(path)
        cache.lock(path)
        end = path.node
        cache.match(ids, 3)                            # splits the run
        assert path.node is end and end.n == 5
        assert cache.path_tokens(path) == pack_ids(ids)
        assert unpack_ids(cache.path_tokens(path)) == ids
        cache.unlock(path)
        assert cache.n_referenced == 0
        assert cache.evict_lru(8) == 8

    def test_eviction_cuts_a_run_from_its_tail(self):
        """The last block a call may take falls inside a run: the run
        keeps its head as an unreferenced leaf with a fresh entry."""
        cache = PrefixCache(block_tokens=2)
        ids = _ids(range(12))
        cache.insert(ids, 6)
        pushes = cache.n_heap_pushes
        assert cache.evict_lru(2) == 2
        assert cache.n_blocks == 4
        assert cache.n_heap_pushes == pushes + 1
        assert len(cache.match(ids, 6)) == 4
        assert cache.evict_lru(10) == 4


class TestPrefixCachingAllocator:
    def _alloc(self, total=32, bt=4):
        return PrefixCachingAllocator(total_blocks=total, block_tokens=bt)

    def test_miss_then_commit_then_hit(self):
        alloc = self._alloc()
        ids = _ids(range(17))
        assert alloc.match_and_lock(1, ids) == 0       # cold
        assert alloc.ensure(1, 17)
        assert alloc.holds(1) == 5
        alloc.release(1, token_ids=ids)
        # 4 full blocks committed (resident, unreferenced), tail freed.
        assert alloc.cache.n_blocks == 4
        assert alloc.used_blocks == 0
        assert alloc.free_blocks == alloc.total_blocks
        assert alloc.raw_free_blocks == alloc.total_blocks - 4
        # Second request with the same prompt hits all matchable blocks.
        cached = alloc.match_and_lock(2, ids)
        assert cached == 16
        assert alloc.holds(2) == 4 and alloc.shared_blocks(2) == 4
        assert alloc.used_blocks == 4                  # shared, counted once
        alloc.check_conservation()

    def test_sharing_counts_blocks_once(self):
        alloc = self._alloc()
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        a = alloc.match_and_lock(2, _ids(range(16), [90]))
        b = alloc.match_and_lock(3, _ids(range(16), [91]))
        assert a == b == 16
        assert alloc.used_blocks == 4                  # not 8
        alloc.release(2)
        assert alloc.used_blocks == 4                  # still locked by 3
        alloc.release(3)
        assert alloc.used_blocks == 0
        assert alloc.cache.n_blocks == 4               # cached, evictable
        alloc.check_conservation()

    def test_peek_does_not_lock_or_count(self):
        alloc = self._alloc()
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        stats0 = alloc.prefix_stats()
        assert alloc.peek(ids) == 12                   # last block COW-capped
        assert alloc.peek(_ids(range(16), [7])) == 16
        assert alloc.prefix_stats() == stats0          # no stats change
        assert alloc.cache.n_referenced == 0           # no locks

    def test_full_prompt_hit_is_cow_capped(self):
        """A prompt entirely in cache still recomputes its last block
        (the final token's logits are needed) from a private copy."""
        alloc = self._alloc()
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        cached = alloc.match_and_lock(2, ids)
        assert cached == 12                            # 3 of 4 blocks
        assert alloc.prefix_stats().n_cow_copies == 1
        assert alloc.ensure(2, 16)                     # private copy
        assert alloc.holds(2) == 4
        alloc.release(2, token_ids=ids)
        assert alloc.cache.n_blocks == 4               # dedup: no growth
        alloc.check_conservation()

    def test_divergence_inside_a_block_is_a_miss(self):
        alloc = self._alloc()
        alloc.match_and_lock(1, _ids(range(8)))
        alloc.ensure(1, 8)
        alloc.release(1, token_ids=_ids(range(8)))
        # Shares block 0, diverges at token 5 (inside block 1).
        cached = alloc.match_and_lock(2, _ids(range(5), [99, 98, 97]))
        assert cached == 4
        assert alloc.prefix_stats().n_cow_copies == 0  # divergent, not COW

    def test_eviction_feeds_allocation(self):
        alloc = self._alloc(total=8, bt=4)
        ids = _ids(range(24))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 24)                            # 6 blocks
        alloc.release(1, token_ids=ids)
        assert alloc.cache.n_blocks == 6
        assert alloc.raw_free_blocks == 2
        assert alloc.free_blocks == 8                  # evictable counts
        # A disjoint request needs 7 blocks: 5 cached ones must fall.
        assert alloc.match_and_lock(2, tuple(range(100, 128))) == 0
        assert alloc.ensure(2, 28)
        assert alloc.holds(2) == 7
        assert alloc.prefix_stats().n_evicted_blocks == 5
        alloc.check_conservation()

    def test_referenced_blocks_never_evicted(self):
        alloc = self._alloc(total=6, bt=4)
        ids = _ids(range(16))
        alloc.match_and_lock(1, ids)
        alloc.ensure(1, 16)
        alloc.release(1, token_ids=ids)
        cached = alloc.match_and_lock(2, _ids(range(16), [50]))
        assert cached == 16                            # 4 blocks locked
        # Pool: 4 locked + 2 free; a 3-block demand must fail without
        # touching the locked tree.
        assert not alloc.ensure(3, 12)
        assert alloc.cache.n_blocks == 4
        assert alloc.shared_blocks(2) == 4
        alloc.check_conservation()

    def test_stats_fragmentation_stays_in_bounds(self):
        """Two sequences lock one cached 4-block prefix and each holds
        one private block: 6 blocks (24 slots) back the 16 shared tokens
        once plus 2 private tokens each, so the scheduler's
        fragmentation counts the shared blocks once."""
        sched = _prefix_sched(total_tokens=128, block_tokens=4)
        sched.submit(_req(0, _ids(range(16)), output=1))
        sched.complete(sched.schedule(), 0.0)  # commits 4 blocks
        for owner in (1, 2):
            sched.submit(_req(owner, _ids(range(16), [owner]), output=4))
        sched.complete(sched.schedule(1.0), 1.0)
        alloc = sched.allocator
        assert [s.context_tokens for s in sched.running] == [18, 18]
        assert [alloc.shared_blocks(o) for o in (1, 2)] == [4, 4]
        assert alloc.stats().used_blocks == 4 + 2      # shared once + tails
        assert sched.kv_fragmentation == 1 - 20 / 24


class TestOneIdFormat:
    """Every public entry point packs the ids it is given, so a tuple or
    a list finds the path its packed string finds, and ids no string
    can hold raise: one tree never mixes id types."""

    #: Four 4-token blocks, the second holding surrogate and four-byte
    #: code points.
    IDS = _ids(range(40, 44), [0xD800, 0xDFFF, 0x10000, 0x10FFFF],
               range(50, 58))

    @pytest.mark.parametrize("inserted", [tuple, list, pack_ids])
    @pytest.mark.parametrize("matched", [tuple, list, pack_ids])
    def test_tree_entry_points_agree(self, inserted, matched):
        cache = PrefixCache(block_tokens=4)
        assert cache.insert(inserted(self.IDS), 4) == (4, 0)
        assert cache.insert(matched(self.IDS), 4) == (0, 4)
        path = cache.match(matched(self.IDS), 4)
        assert len(path) == 4
        assert cache.path_tokens(path) == pack_ids(self.IDS)
        assert cache.n_blocks == 4

    @pytest.mark.parametrize("committed", [tuple, list, pack_ids])
    @pytest.mark.parametrize("looked_up", [tuple, list, pack_ids])
    def test_allocator_entry_points_agree(self, committed, looked_up):
        alloc = PrefixCachingAllocator(total_blocks=32, block_tokens=4)
        assert alloc.ensure(1, 16)
        alloc.release(1, token_ids=committed(self.IDS))  # 4 blocks
        ids = looked_up(self.IDS)
        path = alloc.lookup(ids)
        assert len(path) == 3                          # matchable blocks
        assert path == alloc.lookup(pack_ids(self.IDS))
        assert alloc.peek(ids) == 12
        assert alloc.match_and_lock(2, ids) == 12
        assert alloc.n_cow_copies == 1                 # tail block cached
        assert alloc.ensure(2, 16)
        alloc.release(2, token_ids=ids)
        assert alloc.cache.n_blocks == 4               # one copy, no branch
        assert alloc.n_committed_blocks == 4
        alloc.check_conservation()

    @pytest.mark.parametrize("bad", [(40, -1), (40, 0x110000)],
                             ids=["negative", "past-the-code-points"])
    def test_ids_no_string_holds_raise(self, bad):
        cache = PrefixCache(block_tokens=1)
        alloc = PrefixCachingAllocator(total_blocks=8, block_tokens=1)
        assert alloc.ensure(0, 2)
        alloc.release(0, token_ids=(40, 41))            # caches 2 blocks
        assert alloc.match_and_lock(1, (40, 41, 42)) == 2
        assert alloc.ensure(1, 3)
        stats = alloc.prefix_stats()
        for call in (lambda: cache.insert(bad, 2),
                     lambda: cache.match(bad, 2),
                     lambda: alloc.lookup(bad),
                     lambda: alloc.peek(bad),
                     lambda: alloc.match_and_lock(2, bad),
                     lambda: alloc.release(1, token_ids=bad)):
            with pytest.raises(ValueError, match="token ids"):
                call()
        # Each call raised before changing anything: owner 1 still
        # holds its lock and its private block.
        assert alloc.holds(1) == 3 and alloc.shared_blocks(1) == 2
        assert alloc.prefix_stats() == stats
        assert cache.n_blocks == 0
        alloc.check_conservation()


class TestSchedulerIntegration:
    def test_shared_prompt_blocks_are_shared(self):
        """Concurrent requests with one system prompt converge on one
        resident copy of its blocks."""
        sched = _prefix_sched(total_tokens=256, block_tokens=8)
        system = tuple(range(32))
        # Warm the tree.
        sched.submit(_req(0, _ids(system, [100, 101, 102, 103]), output=4))
        it = 0
        while sched.has_work:
            sched.complete(sched.schedule(float(it)), float(it))
            it += 1
        assert sched.allocator.cache.n_blocks >= 4
        # Two followers share the cached system blocks.
        sched.submit(_req(1, _ids(system, [110, 111, 112, 113]), output=4))
        sched.submit(_req(2, _ids(system, [120, 121, 122, 123]), output=4))
        sched.schedule(float(it))
        assert all(s.cached_tokens == 32 for s in sched.running)
        assert all(s.prefill_remaining == 4 for s in sched.running)
        shared = sum(sched.allocator.shared_blocks(i) for i in (1, 2))
        assert shared == 8                             # 4 blocks, twice
        assert sched.allocator.cache.n_referenced == 4  # resident once
        sched.allocator.check_conservation()

    def test_cached_tokens_skip_prefill_but_count_as_context(self):
        sched = _prefix_sched(total_tokens=512, block_tokens=8)
        ids = _ids(range(64))
        sched.submit(_req(0, ids, output=4))
        it = 0
        while sched.has_work:
            sched.complete(sched.schedule(float(it)), float(it))
            it += 1
        sched.submit(_req(1, _ids(range(56), [1, 2, 3, 4, 5, 6, 7, 8]),
                          output=4))
        plan = sched.schedule(float(it))
        (seq, chunk), = plan.prefill
        assert seq.cached_tokens == 56
        assert chunk == 8                              # only the suffix
        assert seq.context_tokens == 56                # cached counts
        sched.complete(plan, float(it))
        assert seq.in_decode
        assert seq.context_tokens == 65

    def test_release_decrements_instead_of_freeing(self):
        sched = _prefix_sched(total_tokens=256, block_tokens=8)
        ids = _ids(range(32))
        for i in range(2):
            sched.submit(_req(i, ids[:24 + 8 * i], output=4))
        it = 0
        while sched.has_work:
            plan = sched.schedule(float(it))
            sched.complete(plan, float(it))
            sched.allocator.check_conservation()
            it += 1
        alloc = sched.allocator
        assert alloc.used_blocks == 0
        assert alloc.cache.n_referenced == 0
        assert alloc.cache.n_blocks > 0                # cache survives
        assert alloc.free_blocks == alloc.total_blocks

    def test_preempted_sequence_rehits_its_own_blocks(self):
        """Recompute preemption commits the victim's blocks; its
        re-admission matches them, so the recompute is mostly free."""
        sched = _prefix_sched(total_tokens=64, block_tokens=8,
                              token_budget=64, max_seqs=4)
        ids_a = tuple(range(1000, 1024))
        ids_b = tuple(range(2000, 2024))
        sched.submit(_req(0, ids_a, output_ids=tuple(range(30))))
        sched.submit(_req(1, ids_b, output_ids=tuple(range(30))))
        preempted_rehit = False
        finished = []
        for it in range(500):
            if not sched.has_work:
                break
            plan = sched.schedule(float(it))
            finished.extend(sched.complete(plan, float(it)))
            for seq in sched.running:
                if seq.preemptions > 0 and seq.cached_tokens > 0:
                    preempted_rehit = True
        assert sched.n_preemptions >= 1
        assert len(finished) == 2
        assert preempted_rehit, \
            "a re-admitted victim should hit its own committed blocks"
        assert all(s.generated == 30 for s in finished)

    def test_requests_without_ids_run_unchanged(self):
        sched = _prefix_sched()
        sched.submit(Request(req_id=0, arrival_s=0.0, prompt_tokens=24,
                             output_tokens=4))
        it = 0
        while sched.has_work:
            sched.complete(sched.schedule(float(it)), float(it))
            it += 1
        stats = sched.allocator.prefix_stats()
        assert stats.n_lookups == 0
        assert sched.allocator.cache.n_blocks == 0

    def test_report_carries_prefix_metrics(self):
        sched = _prefix_sched(total_tokens=512, block_tokens=8)
        system = tuple(range(48))
        # Staggered arrivals: each request lands after its predecessor
        # has finished and committed its blocks (~5 ms at 1 ms/iter).
        trace = [_req(i, _ids(system, range(100 * i, 100 * i + 8)),
                      output=4, arrival=0.05 * i) for i in range(6)]
        report = ServingSimulator(sched, ConstantCostModel(), config=SimConfig(
            name="px")).run(trace)
        assert report.prefix_caching
        assert report.prefix_hit_rate > 0.5
        assert report.cached_token_fraction > 0.4
        assert report.records[0].cached_tokens == 0    # cold
        assert all(r.cached_tokens == 48 for r in report.records[1:])
        assert "prefix" in report.summary()

    def test_prefilling_sequences_never_wedge_a_full_pool(self):
        """Two prefilling sequences must not stall on a pool their
        private and locked shared blocks fill.

        Admission credits each prompt's cached blocks against
        ``free_blocks``, which counts them as evictable until the
        admission locks them.  Here the first prompt's 18-token suffix
        then takes all 15 blocks left after both prefixes are locked,
        short of finishing, and nothing decodes.  Preempting the
        youngest unlocks its prefix, so the first prompt completes."""
        p1, p2 = tuple(range(1, 6)), tuple(range(11, 21))
        trace = [_req(0, p1, output=1), _req(1, p2, output=1),
                 _req(2, _ids(p1, range(100, 118)), output=2, arrival=1.0),
                 _req(3, _ids(p2, (200, 201)), output=2, arrival=1.0)]
        sim = SimConfig(scheduler=SchedulerConfig(
            admission="paged", prefix_caching=True, block_tokens=1,
            watermark_frac=0.0, sanitize=True)).build(
                KVBudget(capacity_bytes=30.0, bytes_per_token=1.0),
                ConstantCostModel())
        report = sim.run(trace)
        assert report.n_requests == 4
        assert report.n_preempted == 1
        first = {r.req_id: r.first_token_s for r in report.records}
        assert first[2] < first[3]  # the older prompt went first

    def test_chat_trace_on_a_tight_pool_completes(self):
        """The end-to-end form of the stall above: ``fp16`` Llama-7B
        behind a 1 GB prefix-cached pool used to stop with two
        sequences wedged in prefill and 95 requests queued."""
        from repro.bench.serving import (make_cost_model, make_kv_budget,
                                         make_trace)
        from repro.core.engine import ComputeEngine
        from repro.gpu.spec import get_spec
        from repro.llm.config import llama_7b

        spec, config = get_spec("rtx4090"), llama_7b()
        trace = make_trace("chat", 8.0, 250, 256, 96, seed=5)
        sim = SimConfig(scheduler=SchedulerConfig(
            max_seqs=64, admission="paged", prefix_caching=True,
            sanitize=True)).build(
                make_kv_budget(config, "fp16", capacity_bytes=1e9,
                               spec=spec),
                make_cost_model(ComputeEngine(spec), config, "fp16"))
        report = sim.run(trace)
        assert report.n_requests + report.n_rejected == len(trace)
        assert report.n_requests > 0 and report.n_preempted > 0

    def test_prefix_requires_paged(self):
        budget = KVBudget(capacity_bytes=100.0, bytes_per_token=1.0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(budget, config=SchedulerConfig(
                prefix_caching=True))
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(budget, config=SchedulerConfig(
                admission="reserve", prefix_caching=True))


# ----------------------------------------------------------------------
# Default-path equivalence: prefix_caching=False must not move a number
# ----------------------------------------------------------------------
class TestDefaultPathUnchanged:
    """Golden metrics of the PR-1 seed scenario, recorded on main just
    before the prefix subsystem was added.  ``prefix_caching`` defaults
    off, so these must match bit-for-bit."""

    GOLDEN = {
        ("fp16", "reserve"): dict(
            makespan_s=4.199858866839502, n_iterations=3262,
            ttft_p50=0.00136487867396691,
            latency_p99=0.19312243251631156,
            peak_kv_occupancy=0.3177349587101848, n_preempted=0,
            peak_seqs=5),
        ("fp16", "paged"): dict(
            makespan_s=4.199858866839502, n_iterations=3262,
            ttft_p50=0.00136487867396691,
            latency_p99=0.19312243251631156,
            peak_kv_occupancy=0.3235294117647059, n_preempted=0,
            peak_seqs=5),
        ("kv-cq-4", "reserve"): dict(
            makespan_s=4.199858866839502, n_iterations=3262,
            ttft_p50=0.00136487867396691,
            latency_p99=0.19312243251631156,
            peak_kv_occupancy=0.07943113674345446, n_preempted=0,
            peak_seqs=5),
        ("kv-cq-4", "paged"): dict(
            makespan_s=4.199858866839502, n_iterations=3262,
            ttft_p50=0.00136487867396691,
            latency_p99=0.19312243251631156,
            peak_kv_occupancy=0.08075511274252753, n_preempted=0,
            peak_seqs=5),
    }

    BYTES_PER_TOKEN = {"fp16": 524288.0, "kv-cq-4": 131072.0}

    @pytest.mark.parametrize("mode,admission", sorted(GOLDEN))
    def test_seed_scenario_metrics_are_bit_identical(self, mode, admission):
        from repro.bench.serving import make_trace
        trace = make_trace("poisson", 16.0, 64, 384, 96, seed=0)
        budget = KVBudget(capacity_bytes=4e9,
                          bytes_per_token=self.BYTES_PER_TOKEN[mode])
        sched = ContinuousBatchScheduler(budget, config=SchedulerConfig(
            token_budget=2048, max_seqs=64, admission=admission))
        rep = ServingSimulator(sched, ConstantCostModel(), config=SimConfig(
            name="golden")).run(trace)
        want = self.GOLDEN[(mode, admission)]
        assert rep.makespan_s == want["makespan_s"]
        assert rep.n_iterations == want["n_iterations"]
        assert rep.ttft_s(50) == want["ttft_p50"]
        assert rep.latency_s(99) == want["latency_p99"]
        assert rep.peak_kv_occupancy == want["peak_kv_occupancy"]
        assert rep.n_preempted == want["n_preempted"]
        assert rep.peak_seqs == want["peak_seqs"]
        assert not rep.prefix_caching and rep.prefix_hit_rate == 0.0


# ----------------------------------------------------------------------
# Incremental LRU heap and token keys against the DFS reference
# ----------------------------------------------------------------------
_LEGACY_HASH_MULT = 1_000_003
_LEGACY_HASH_MOD = (1 << 61) - 1


def _legacy_rolling_hash(parent_hash, tokens):
    h = parent_hash
    for t in tokens:
        h = (h * _LEGACY_HASH_MULT + int(t) + 1) % _LEGACY_HASH_MOD
    return h


class _LegacyNode:
    __slots__ = ("key", "tokens", "parent", "children", "ref", "last_used")

    def __init__(self, key, tokens, parent):
        self.key = key
        self.tokens = tokens
        self.parent = parent
        self.children = {}
        self.ref = 0
        self.last_used = 0


class LegacyPrefixCache:
    """The earlier radix tree's logic, as the equivalence oracle:
    children keyed by a rolling hash chained from the parent, and a
    fresh DFS over the whole tree on every ``evict_lru`` call.
    """

    def __init__(self, block_tokens):
        self.block_tokens = block_tokens
        self._root = _LegacyNode(key=0, tokens=(), parent=None)
        self._n_nodes = 0
        self._n_referenced = 0
        self._tick = 0

    @property
    def n_blocks(self):
        return self._n_nodes

    @property
    def n_referenced(self):
        return self._n_referenced

    def _walk(self, token_ids, max_blocks):
        bt = self.block_tokens
        node = self._root
        path = []
        for b in range(max_blocks):
            tokens = tuple(token_ids[b * bt:(b + 1) * bt])
            child = node.children.get(_legacy_rolling_hash(node.key, tokens))
            if child is None or child.tokens != tokens:
                break
            path.append(child)
            node = child
        return path

    def match(self, token_ids, max_blocks):
        path = self._walk(token_ids, max_blocks)
        self._tick += 1
        for node in path:
            node.last_used = self._tick
        return path

    def lock(self, nodes):
        for node in nodes:
            if node.ref == 0:
                self._n_referenced += 1
            node.ref += 1

    def unlock(self, nodes):
        for node in nodes:
            node.ref -= 1
            if node.ref == 0:
                self._n_referenced -= 1

    def insert(self, token_ids, n_blocks):
        bt = self.block_tokens
        node = self._root
        created = 0
        dups = 0
        self._tick += 1
        for b in range(n_blocks):
            tokens = tuple(token_ids[b * bt:(b + 1) * bt])
            key = _legacy_rolling_hash(node.key, tokens)
            child = node.children.get(key)
            if child is not None and child.tokens == tokens:
                dups += 1
            else:
                if child is not None:
                    break
                child = _LegacyNode(key=key, tokens=tokens, parent=node)
                node.children[key] = child
                self._n_nodes += 1
                created += 1
            child.last_used = self._tick
            node = child
        return created, dups

    def evict_lru(self, n):
        if n <= 0:
            return 0
        heap = []
        order = itertools.count()
        stack = [self._root]
        while stack:
            node = stack.pop()
            for child in node.children.values():
                if child.children:
                    stack.append(child)
                elif child.ref == 0:
                    heapq.heappush(heap,
                                   (child.last_used, next(order), child))
        evicted = 0
        while evicted < n and heap:
            _, _, victim = heapq.heappop(heap)
            parent = victim.parent
            del parent.children[victim.key]
            self._n_nodes -= 1
            evicted += 1
            if (parent is not self._root and not parent.children
                    and parent.ref == 0):
                heapq.heappush(heap,
                               (parent.last_used, next(order), parent))
        return evicted


def _tree(cache):
    """Nested ``{block tokens: (ref, last_used, subtree)}`` view of a
    tree, one entry per block: a node holding a run of blocks expands
    into a chain of blocks that share its ``ref`` and ``last_used``.
    Block tokens are int tuples, whether the tree packs them (the
    radix tree) or not (the reference)."""
    return _blocks(cache._root, cache.block_tokens)


def _as_ints(tokens):
    return unpack_ids(tokens) if isinstance(tokens, str) else tokens


def _blocks(node, bt):
    out = {}
    for child in node.children.values():
        sub = _blocks(child, bt)
        for b in reversed(range(len(child.tokens) // bt)):
            sub = {_as_ints(child.tokens[b * bt:(b + 1) * bt]):
                   (child.ref, child.last_used, sub)}
        out.update(sub)
    return out


def _same_path(cache, path, legacy_path):
    """Whether ``path`` spells the blocks of the reference's node list."""
    return (len(path) == len(legacy_path)
            and unpack_ids(cache.path_tokens(path))
            == sum((node.tokens for node in legacy_path), ()))


#: A few prompts over a 3-symbol alphabet: ops reuse them, so siblings
#: share stems and matches hit leaves that earlier inserts created.
_PROMPTS = st.lists(st.lists(st.integers(0, 2), max_size=8).map(tuple),
                    min_size=1, max_size=4)
#: (kind, prompt index or lock index, block count or evict n).  A
#: ``lock`` is what ``match_and_lock`` does (walk, touch, lock, no heap
#: entry); a ``commit`` is what ``release`` does with a lock (insert
#: from the locked path, then unlock).
_OP = st.tuples(
    st.sampled_from(("insert", "match", "lock", "commit", "unlock",
                     "evict")),
    st.integers(0, 4), st.integers(0, 3))


#: Prompts long enough for one node to hold many blocks: each keeps a
#: random share of one stem and then goes its own way, so runs end and
#: diverge at every depth.
_LONG_PROMPTS = st.tuples(
    st.lists(st.integers(0, 2), min_size=12, max_size=40),
    st.lists(st.tuples(st.integers(0, 40),
                       st.lists(st.integers(0, 2), max_size=12)),
             min_size=1, max_size=4),
).map(lambda drawn: [tuple(drawn[0][:cut] + tail)[:40]
                     for cut, tail in drawn[1]])
#: (kind, prompt index or lock index, block count).  ``touch`` is a
#: bare match; ``lock`` is what ``match_and_lock`` does (walk, touch,
#: lock); ``pin`` locks a walked path without touching it; an
#: ``evict`` takes the count modulo 6, mostly less than a run.
_LONG_OP = st.tuples(
    st.sampled_from(("insert", "touch", "lock", "pin", "commit",
                     "unlock", "evict")),
    st.integers(0, 3), st.integers(0, 40))


class TestIncrementalLRUEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(block_tokens=st.integers(1, 3), prompts=_PROMPTS,
           ops=st.lists(_OP, min_size=1, max_size=60))
    def test_trees_match_dfs_reference_after_every_op(
            self, block_tokens, prompts, ops):
        cache = PrefixCache(block_tokens)
        legacy = LegacyPrefixCache(block_tokens)
        locks = []
        for kind, i, k in ops:
            ids = prompts[i % len(prompts)]
            blocks = min(k, len(ids) // block_tokens)
            if kind == "insert":
                assert cache.insert(ids, blocks) == legacy.insert(ids,
                                                                  blocks)
            elif kind == "match":
                path = cache.match(ids, blocks)
                legacy_path = legacy.match(ids, blocks)
                assert _same_path(cache, path, legacy_path)
            elif kind == "lock":
                path = cache._walk(ids, blocks)
                cache.touch(path)
                cache.lock(path)
                legacy_path = legacy.match(ids, blocks)
                legacy.lock(legacy_path)
                assert _same_path(cache, path, legacy_path)
                locks.append((ids, path, legacy_path))
            elif kind in ("commit", "unlock"):
                if locks:
                    ids, path, legacy_path = locks.pop(i % len(locks))
                    if kind == "commit":
                        n = min(len(path) + k, len(ids) // block_tokens)
                        created, dups = cache.insert(ids, n, path)
                        legacy_created, legacy_dups = legacy.insert(ids, n)
                        assert created == legacy_created
                        assert dups == legacy_dups - len(path)
                    cache.unlock(path)
                    legacy.unlock(legacy_path)
            else:
                assert cache.evict_lru(k) == legacy.evict_lru(k)
            assert _tree(cache) == _tree(legacy)
            assert cache.n_blocks == legacy.n_blocks
            assert cache.n_referenced == legacy.n_referenced
            assert len(cache._lru) <= cache.lru_heap_bound

    @settings(max_examples=200, deadline=None)
    @given(block_tokens=st.integers(1, 3), prompts=_LONG_PROMPTS,
           ops=st.lists(_LONG_OP, min_size=1, max_size=40))
    def test_runs_match_the_per_block_reference(
            self, block_tokens, prompts, ops):
        """Nodes span many blocks here: partial touches and locks,
        commits from a lock and inserts that end or diverge inside a
        run split it, and evictions cut runs short.  The per-block
        trees, the counts and the victims match the reference after
        every op."""
        cache = PrefixCache(block_tokens)
        legacy = LegacyPrefixCache(block_tokens)
        for ids in prompts:  # start from long runs
            full = len(ids) // block_tokens
            assert cache.insert(ids, full) == legacy.insert(ids, full)
        locks = []
        for kind, i, k in ops:
            ids = prompts[i % len(prompts)]
            blocks = min(k, len(ids) // block_tokens)
            if kind == "insert":
                assert cache.insert(ids, blocks) == legacy.insert(ids,
                                                                  blocks)
            elif kind == "touch":
                assert _same_path(cache, cache.match(ids, blocks),
                                  legacy.match(ids, blocks))
            elif kind in ("lock", "pin"):
                path = cache._walk(ids, blocks)
                if kind == "lock":
                    cache.touch(path)
                    legacy_path = legacy.match(ids, blocks)
                else:
                    legacy_path = legacy._walk(ids, blocks)
                cache.lock(path)
                legacy.lock(legacy_path)
                assert _same_path(cache, path, legacy_path)
                locks.append((ids, path, legacy_path))
            elif kind in ("commit", "unlock"):
                if locks:
                    ids, path, legacy_path = locks.pop(i % len(locks))
                    if kind == "commit":
                        n = min(len(path) + k, len(ids) // block_tokens)
                        created, dups = cache.insert(ids, n, path)
                        assert ((created, dups + len(path))
                                == legacy.insert(ids, n))
                    cache.unlock(path)
                    legacy.unlock(legacy_path)
            else:
                assert cache.evict_lru(k % 6) == legacy.evict_lru(k % 6)
            assert _tree(cache) == _tree(legacy)
            assert cache.n_blocks == legacy.n_blocks
            assert cache.n_referenced == legacy.n_referenced
            assert len(cache._lru) <= cache.lru_heap_bound

    def test_heap_is_rebuilt_within_its_bound(self):
        """Lock/unlock churn on one leaf pushes an entry per unlock;
        the heap is rebuilt instead of growing past its bound."""
        cache = PrefixCache(block_tokens=2)
        ids = _ids(range(6))
        cache.insert(ids, 3)
        for _ in range(50):
            path = cache.match(ids, 3)
            cache.lock(path)
            cache.unlock(path)
            assert len(cache._lru) <= cache.lru_heap_bound
        assert cache.evict_lru(10) == 3
        assert cache._lru == []


class _CountingIds(str):
    """Packed token ids that count the slices taken of them.  Being a
    ``str``, they pass every entry point's packing unchanged."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices += 1
        return super().__getitem__(key)


class _CountingHeapq:
    """Stands in for :mod:`heapq` in the prefix module; counts pushes."""

    def __init__(self):
        self.pushes = 0

    def __getattr__(self, name):
        return getattr(heapq, name)

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)


class TestEachBlockOnce:
    @pytest.fixture(autouse=True)
    def _unsanitized(self, monkeypatch):
        """Sanitize mode walks and slices again to check; these tests
        count the work of a plain run unless they arm it themselves."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    @staticmethod
    def _chains_beside_older_leaves(tree):
        """Unreferenced chains beside leaves on other branches, one
        token per block; ``last_used`` ticks in brackets:
        ``c`` 5[4] → 6[1] → 7[1], ``a`` 0 → 1 → 2 → 3 (all [2]),
        ``z`` 9[3], ``y`` 20 → 21 (both [5])."""
        tree.insert((5, 6, 7), 3)
        tree.insert((0, 1, 2, 3), 4)
        tree.insert((9,), 1)
        tree.match((5,), 1)
        tree.insert((20, 21), 2)

    def test_chains_skip_the_heap_only_when_oldest(self, monkeypatch):
        """A parent strictly older than every live heap entry, or left
        with an empty heap, is evicted at once with no entry.  A parent
        newer than a live entry is pushed, as is one exposed by the
        last block a call may take.  Victims, order and ticks match the
        reference after every call."""
        cache = PrefixCache(block_tokens=1)
        legacy = LegacyPrefixCache(block_tokens=1)
        self._chains_beside_older_leaves(cache)
        self._chains_beside_older_leaves(legacy)
        counting = _CountingHeapq()
        monkeypatch.setattr(prefix_module, "heapq", counting)
        pushes_before = cache.n_heap_pushes
        # Block 7 is the one block allowed: 6[1] is pushed.
        assert cache.evict_lru(1) == legacy.evict_lru(1) == 1
        assert _tree(cache) == _tree(legacy)
        assert counting.pushes == 1
        # 6[1] pops and exposes 5[4], newer than 3[2]: pushed.  Then
        # 3, 2, 1, 0 fall for one pop (each [2] < 9[3]), 9 and 5 pop,
        # and 21 pops and exposes 20 beside an empty heap: no entry.
        assert cache.evict_lru(9) == legacy.evict_lru(9) == 9
        assert _tree(cache) == _tree(legacy) == {}
        assert counting.pushes == 2
        assert cache.n_heap_pushes - pushes_before == 2

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 3),
                                  st.integers(1, 5)),
                        min_size=1, max_size=12))
    def test_chain_victims_match_the_reference_at_every_cut(self, ops):
        """Chains on four branches (one token per block), built by
        inserting branch ``b`` to depth ``d`` or touching its first
        ``d`` blocks, in random order.  Evicting the first ``n`` blocks
        leaves the reference's tree for every ``n``, so the order within
        one call matches too."""
        def build(tree):
            for insert, b, d in ops:
                ids = tuple(range(10 * b, 10 * b + d))
                if insert:
                    tree.insert(ids, d)
                else:
                    tree.match(ids, d)
            return tree

        total = build(PrefixCache(block_tokens=1)).n_blocks
        for n in range(1, total + 1):
            cache = build(PrefixCache(block_tokens=1))
            legacy = build(LegacyPrefixCache(block_tokens=1))
            assert cache.evict_lru(n) == legacy.evict_lru(n) == n
            assert _tree(cache) == _tree(legacy)

    def test_release_slices_only_blocks_past_its_lock(self):
        alloc = PrefixCachingAllocator(total_blocks=32, block_tokens=4)
        ids = _ids(range(20))
        alloc.match_and_lock(1, ids[:12])
        assert alloc.ensure(1, 12)
        alloc.release(1, token_ids=ids[:12])           # commits 3 blocks
        assert alloc.match_and_lock(2, ids) == 12      # locks 3 blocks
        assert alloc.ensure(2, 20)
        counting = _CountingIds(pack_ids(ids))
        allocated = alloc.cache.n_nodes_allocated
        alloc.release(2, token_ids=counting)
        # Block 3's key, then blocks 3-4 as one new node's run.
        assert counting.slices == 2
        assert alloc.cache.n_nodes_allocated == allocated + 1
        assert alloc.cache.n_blocks == 5
        assert alloc.n_committed_blocks == 5
        alloc.check_conservation()

    def test_admission_walks_its_prompt_once(self):
        sched = _prefix_sched(total_tokens=256, block_tokens=8)
        system = tuple(range(32))
        sched.submit(_req(0, _ids(system, [100]), output=4))
        it = 0
        while sched.has_work:
            sched.complete(sched.schedule(float(it)), float(it))
            it += 1
        ids = _CountingIds(pack_ids(_ids(system, [110, 111, 112, 113])))
        sched.submit(Request(req_id=1, arrival_s=float(it),
                             prompt_tokens=len(ids), output_tokens=4,
                             prompt_ids=ids))
        walks = sched.allocator.cache.n_walks
        sched.schedule(float(it))
        (seq,) = sched.running
        assert seq.cached_tokens == 32
        # One walk over the 4 matchable blocks, which the first request
        # committed as one node: its first block's key and its whole
        # run.  Then the copy-on-write probe of the block holding the
        # tail.
        assert ids.slices == 2 + 1
        assert sched.allocator.cache.n_walks == walks + 1

    def test_sanitize_rejects_a_path_the_tree_no_longer_holds(self):
        alloc = PrefixCachingAllocator(total_blocks=32, block_tokens=4,
                                       sanitize=True)
        ids = _ids(range(12))
        alloc.notify_admitted(1)
        assert alloc.ensure(1, 12)
        alloc.release(1, token_ids=ids)                # commits 3 blocks
        path = alloc.lookup(ids)
        assert len(path) == 2
        assert alloc.cache.evict_lru(3) == 3
        alloc.notify_admitted(2)
        with pytest.raises(SanitizeError, match="not the tree's cached"):
            alloc.match_and_lock(2, ids, path)

    def test_release_raises_when_commits_exceed_private_blocks(self):
        """Blocks committed past the lock were each one of the owner's
        private blocks; a commit that moves more of them is an
        accounting bug, and the check holds without sanitize mode."""
        alloc = PrefixCachingAllocator(total_blocks=32, block_tokens=4)
        ids = _ids(range(12))
        assert alloc.ensure(1, 12)
        insert = alloc.cache.insert

        def one_dup_too_many(*args):
            created, dups = insert(*args)
            return created, dups + 1

        alloc.cache.insert = one_dup_too_many
        with pytest.raises(SanitizeError, match="holds only 3 private"):
            alloc.release(1, token_ids=ids)


#: A prefix-cached chat run, single engine and a 2-replica
#: ``prefix-affinity`` fleet, printed as JSON: metrics, per-request
#: records, and the hash of one packed id string (which must differ
#: across hash seeds, or the comparison proves nothing).
_HASH_SEED_SCRIPT = """
import dataclasses, json, math
from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig
from repro.serve.requests import multi_turn_chat_trace, pack_ids
from repro.serve.scheduler import KVBudget


class Cost:
    def step_us(self, plan):
        return 500.0 + 2.0 * plan.prefill_tokens + 40.0 * plan.decode_batch

    def repeat_room(self, plan):
        return math.inf


trace = multi_turn_chat_trace(12, 4, rate_rps=6.0, think_s=0.5,
                              system_tokens=96, seed=3)
budget = KVBudget(capacity_bytes=3072.0, bytes_per_token=1.0)
scheduler = SchedulerConfig(token_budget=256, max_seqs=8,
                            admission="paged", prefix_caching=True)
single = SimConfig(scheduler=scheduler, name="h").build(budget, Cost())
fleet = FleetConfig(scheduler=scheduler, policy="prefix-affinity",
                    name="h").build(2, budget, Cost())
out = {"hash": hash(pack_ids(range(40, 56)))}
for label, sim in (("single", single), ("fleet", fleet)):
    report = sim.run(trace)
    out[label] = {"metrics": report.metrics(),
                  "records": [dataclasses.astuple(r)
                              for r in report.records],
                  "evicted": report.n_evicted_blocks}
print(json.dumps(out, sort_keys=True))
"""


class TestHashSeedIndependence:
    def test_runs_match_across_hash_seeds(self):
        """``str`` hashes are salted per process; the tree iterates
        only insertion-ordered dicts and orders eviction by tick, so
        two processes with different hash seeds give identical runs."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (src, env.get("PYTHONPATH"))))
            done = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT],
                                  env=env, capture_output=True, text=True,
                                  timeout=120, check=True)
            outs.append(json.loads(done.stdout))
        one, two = outs
        assert one.pop("hash") != two.pop("hash")
        assert one == two
        for label in ("single", "fleet"):
            run = one[label]
            assert len(run["records"]) == 48
            assert run["metrics"]["prefix_hit_rate"] > 0.9
            assert run["evicted"] > 0
