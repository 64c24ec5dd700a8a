"""Tests of the allocator sanitizer (:mod:`repro.serve.sanitize`).

Two promises are under test:

1. **Transparency** — arming sanitize mode changes no metric: a
   sanitized run's report is bit-identical to the unsanitized run on
   the same trace (checked on paged, prefix-caching and fleet runs,
   including a 10k-request soak).
2. **Sensitivity** — injected corruption (double-free, refcount
   decrement, counter drift, tree rewiring, a node's run length, a
   child used after its parent, a locked path's block count, a leaf
   dropped from the LRU heap, a block's worth of a sequence's
   ``kv_slots`` gained or lost) raises :class:`SanitizeError` instead
   of silently skewing results; a hypothesis property test drives
   random op sequences and corruption kinds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig
from repro.serve.paging import PagedKVAllocator
from repro.serve.prefix import PrefixCachingAllocator
from repro.serve.requests import (
    Request,
    multi_turn_chat_trace,
    pack_ids,
    poisson_trace,
    unpack_ids,
)
from repro.serve.sanitize import SanitizeError, sanitize_enabled
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def step_us(self, plan):
        return 1000.0

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


def _budget(tokens=4096):
    return KVBudget(capacity_bytes=float(tokens * 2048),
                    bytes_per_token=2048.0)


def _run(trace, *, sanitize, prefix=False, budget_tokens=4096):
    config = SimConfig(
        scheduler=SchedulerConfig(admission="paged", max_seqs=32,
                                  prefix_caching=prefix, sanitize=sanitize))
    sim = config.build(_budget(budget_tokens), ConstantCostModel())
    return sim.run(trace)


class TestActivation:
    def test_config_flag_arms_allocator(self):
        alloc = PagedKVAllocator(8, 4, sanitize=True)
        assert alloc.sanitize

    def test_env_var_arms_allocator(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert PagedKVAllocator(8, 4).sanitize
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not PagedKVAllocator(8, 4).sanitize

    def test_flag_or_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_enabled(True)
        assert not sanitize_enabled(False)


class TestTransparency:
    """Sanitized runs are bit-identical on metrics."""

    def test_paged_run_metric_identical(self):
        trace = poisson_trace(24.0, 200, seed=3)
        plain = _run(trace, sanitize=False, budget_tokens=1024)
        armed = _run(trace, sanitize=True, budget_tokens=1024)
        assert plain.metrics() == armed.metrics()

    def test_prefix_run_metric_identical(self):
        trace = multi_turn_chat_trace(12, 5, seed=5)
        plain = _run(trace, sanitize=False, prefix=True, budget_tokens=2048)
        armed = _run(trace, sanitize=True, prefix=True, budget_tokens=2048)
        assert plain.metrics() == armed.metrics()

    def test_preemption_heavy_run_metric_identical(self):
        # A pool this tight forces recompute preemptions; the sanitizer
        # must survive the release/re-admit churn without drift.
        trace = poisson_trace(32.0, 100, seed=7)
        plain = _run(trace, sanitize=False, budget_tokens=640)
        armed = _run(trace, sanitize=True, budget_tokens=640)
        assert plain.n_preempted > 0
        assert plain.metrics() == armed.metrics()

    def test_fleet_run_metric_identical(self):
        trace = poisson_trace(24.0, 150, seed=9)

        def fleet(sanitize):
            return FleetConfig(
                scheduler=SchedulerConfig(admission="paged", max_seqs=16,
                                          sanitize=sanitize)).build(
                    3, _budget(1024), ConstantCostModel()).run(trace)

        assert fleet(False).metrics() == fleet(True).metrics()

    def test_10k_request_soak_metric_identical(self):
        # The ISSUE-level soak: a 10k-request sanitized run drains
        # clean (per-op checks plus the full audit) and matches the
        # unsanitized goldens bit for bit.
        trace = poisson_trace(200.0, 10_000, seed=11,
                              prompt=_short(64), output=_short(8))
        plain = _run(trace, sanitize=False, budget_tokens=4096)
        armed = _run(trace, sanitize=True, budget_tokens=4096)
        assert plain.metrics() == armed.metrics()


def _short(mean):
    from repro.serve.requests import LengthSampler
    return LengthSampler(mean=mean, cv=0.3, lo=1, hi=4 * mean)


class TestSensitivity:
    """Injected corruption raises instead of skewing metrics."""

    def _armed(self, total=32, bt=4):
        return PagedKVAllocator(total, bt, sanitize=True)

    def test_double_free_raises(self):
        alloc = self._armed()
        assert alloc.ensure(1, 10)
        alloc.release(1)
        with pytest.raises(SanitizeError, match="double free"):
            alloc.release(1)

    def test_realloc_after_free_is_fine(self):
        alloc = self._armed()
        assert alloc.ensure(1, 10)
        alloc.release(1)
        assert alloc.ensure(1, 10)
        alloc.release(1)
        alloc.audit_drained()

    def test_double_admission_raises(self):
        alloc = self._armed()
        alloc.notify_admitted(1)
        with pytest.raises(SanitizeError, match="already live"):
            alloc.notify_admitted(1)

    def test_counter_drift_caught_by_audit(self):
        alloc = self._armed()
        assert alloc.ensure(1, 10)
        alloc._used_blocks += 1  # inject drift
        with pytest.raises(SanitizeError, match="used_blocks counter"):
            alloc.audit()

    @pytest.mark.parametrize("prefix", [False, True],
                             ids=["paged", "prefix"])
    @pytest.mark.parametrize("blocks", [1, -1],
                             ids=["block_gained", "block_lost"])
    def test_kv_slots_drift_caught(self, prefix, blocks):
        """The scheduler is the token ledger: sanitize mode checks each
        sequence's ``kv_slots`` against the pool's block count at every
        growth, granted decode and release, so a block's worth of slots
        gained or lost raises before the run drains."""
        bt = 4
        sched = ContinuousBatchScheduler(
            KVBudget(capacity_bytes=256.0, bytes_per_token=1.0),
            config=SchedulerConfig(admission="paged", block_tokens=bt,
                                   prefix_caching=prefix, sanitize=True))
        for i, prompt in enumerate((9, 14, 6)):
            sched.submit(Request(req_id=i, arrival_s=0.0,
                                 prompt_tokens=prompt, output_tokens=12,
                                 prompt_ids=tuple(range(prompt))))
        for it in range(2):
            sched.complete(sched.schedule(float(it)), float(it))
        sched.running[1].kv_slots += blocks * bt
        with pytest.raises(SanitizeError, match="KV slots"):
            for it in range(2, 100):
                sched.complete(sched.schedule(float(it)), float(it))

    def test_kv_slots_drift_caught_at_release(self):
        """Slots that drift after the last decode was granted are
        caught when the finished sequence releases its blocks."""
        sched = ContinuousBatchScheduler(
            KVBudget(capacity_bytes=256.0, bytes_per_token=1.0),
            config=SchedulerConfig(admission="paged", block_tokens=4,
                                   sanitize=True))
        sched.submit(Request(req_id=0, arrival_s=0.0, prompt_tokens=9,
                             output_tokens=3))
        for it in range(2):
            sched.complete(sched.schedule(float(it)), float(it))
        plan = sched.schedule(2.0)  # the last token, inside block 3
        seq = sched.running[0]
        assert (seq.context_tokens, seq.kv_slots) == (11, 12)
        seq.kv_slots += 4
        with pytest.raises(SanitizeError, match="KV slots at release"):
            sched.complete(plan, 2.0)

    def test_leak_at_drain_caught(self):
        alloc = self._armed()
        assert alloc.ensure(1, 10)
        with pytest.raises(SanitizeError, match="still hold"):
            alloc.audit_drained()

    def _warm_prefix(self):
        """Owner 1 commits 3 blocks as one node; owner 2 locks the
        first 2, which splits them off into a referenced parent of the
        unreferenced third."""
        alloc = PrefixCachingAllocator(64, 4, sanitize=True)
        ids = tuple(range(12))
        alloc.notify_admitted(1)
        assert alloc.ensure(1, len(ids))
        alloc.release(1, token_ids=ids)  # commits 3 blocks
        alloc.notify_admitted(2)
        assert alloc.match_and_lock(2, ids) == 8
        return alloc, ids

    @staticmethod
    def _head_and_tail(alloc):
        """The locked 2-block head and its unreferenced 1-block tail."""
        (head,) = alloc.cache._root.children.values()
        (tail,) = head.children.values()
        assert (head.n, head.ref, tail.n, tail.ref) == (2, 1, 1, 0)
        return head, tail

    def test_refcount_decrement_caught(self):
        alloc, ids = self._warm_prefix()
        node = next(iter(alloc.cache._root.children.values()))
        node.ref -= 1  # inject refcount corruption
        with pytest.raises(SanitizeError):
            alloc.audit()

    def test_referenced_tally_drift_caught(self):
        alloc, _ = self._warm_prefix()
        alloc.cache._n_referenced += 1
        with pytest.raises(SanitizeError):
            alloc.audit()

    def test_tree_rewiring_caught(self):
        alloc, _ = self._warm_prefix()
        node = next(iter(alloc.cache._root.children.values()))
        # Key mismatch: every id of the run moves up by one.
        node.tokens = pack_ids([t + 1 for t in unpack_ids(node.tokens)])
        with pytest.raises(SanitizeError,
                           match="no longer match its lookup key"):
            alloc.audit()

    def test_leaf_missing_from_lru_heap_caught(self):
        """A leaf without a heap entry counts as free but can never be
        reclaimed, so admission would promise unallocatable blocks."""
        alloc, ids = self._warm_prefix()
        leaf = alloc.cache._walk(ids, 3).node
        assert leaf.ref == 0 and not leaf.children
        alloc.cache._lru[:] = [e for e in alloc.cache._lru
                               if e[2] is not leaf]  # drop its entry
        with pytest.raises(SanitizeError, match="no LRU heap entry"):
            alloc.audit()

    def test_lru_heap_over_bound_caught(self):
        alloc, _ = self._warm_prefix()
        cache = alloc.cache
        cache._lru.extend([cache._lru[-1]] * (cache.lru_heap_bound + 1))
        with pytest.raises(SanitizeError, match="rebuild bound"):
            alloc.audit()

    def test_run_length_mismatch_caught(self):
        alloc, _ = self._warm_prefix()
        head, _ = self._head_and_tail(alloc)
        head.n += 1  # tokens now short of n full blocks
        with pytest.raises(SanitizeError, match="a run of whole"):
            alloc.audit()

    def test_child_used_after_parent_caught(self):
        alloc, _ = self._warm_prefix()
        head, tail = self._head_and_tail(alloc)
        head.last_used = tail.last_used - 1  # a touch that skipped it
        with pytest.raises(SanitizeError, match="after its parent"):
            alloc.audit()

    def test_block_tally_drift_caught(self):
        alloc, _ = self._warm_prefix()
        alloc.cache._n_blocks += 1
        with pytest.raises(SanitizeError, match="n_blocks tally"):
            alloc.audit()

    def test_refs_beyond_the_locked_blocks_caught(self):
        alloc, _ = self._warm_prefix()
        head, _ = self._head_and_tail(alloc)
        head.ref += 1  # still referenced, so the tallies hold
        with pytest.raises(SanitizeError, match="refcount leak"):
            alloc.audit()

    def test_locked_path_block_count_caught(self):
        alloc, _ = self._warm_prefix()
        alloc._shared[2].n_blocks += 1
        with pytest.raises(SanitizeError, match="end node reaches"):
            alloc.audit()

    def test_release_of_a_respelled_locked_path_caught(self):
        """The locked runs, joined end to end, must spell the first
        blocks of the ids a release commits."""
        alloc, ids = self._warm_prefix()
        head, _ = self._head_and_tail(alloc)
        # The key (the first block) stays intact; the second block moves.
        head.tokens = head.tokens[:4] + pack_ids((99, 98, 97, 96))
        assert alloc.ensure(2, len(ids))
        with pytest.raises(SanitizeError, match="does not spell"):
            alloc.release(2, token_ids=ids)

    def test_lock_leak_at_drain_caught(self):
        alloc, _ = self._warm_prefix()
        with pytest.raises(SanitizeError, match="still lock"):
            alloc.audit_drained()

    def test_clean_prefix_lifecycle_audits_green(self):
        alloc, ids = self._warm_prefix()
        alloc.audit()  # mid-run: live locks are fine for audit()
        alloc.release(2, token_ids=ids)
        alloc.audit_drained()  # warm tree, no live owners: green
        assert alloc.cache.n_blocks > 0


#: (name, corrupt(alloc) -> None) pairs the property test draws from.
_CORRUPTIONS = [
    ("double_free", lambda a, o: (a.release(o), a.release(o))),
    ("counter_up", lambda a, o: setattr(a, "_used_blocks",
                                        a._used_blocks + 1)),
    ("counter_down", lambda a, o: setattr(a, "_used_blocks",
                                          a._used_blocks - 1)),
    ("phantom_hold", lambda a, o: a._held.__setitem__(99_999, 0)),
]


class TestPropertySanitizer:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**16), n_owners=st.integers(2, 12),
           kind=st.integers(0, len(_CORRUPTIONS) - 1))
    def test_random_workload_then_corruption_always_raises(
            self, seed, n_owners, kind):
        rng = np.random.default_rng(seed)
        alloc = PagedKVAllocator(total_blocks=64, block_tokens=4,
                                 sanitize=True)
        live = []
        for owner in range(n_owners):
            if alloc.ensure(owner, int(rng.integers(1, 40))):
                live.append(owner)
        for owner in list(live):
            if rng.random() < 0.5:
                alloc.release(owner)
                live.remove(owner)
        alloc.audit()  # uncorrupted state must audit green
        victim = live[0] if live else None
        name, corrupt = _CORRUPTIONS[kind]
        if victim is None and name == "double_free":
            return  # it needs a live owner to corrupt
        with pytest.raises(SanitizeError):
            corrupt(alloc, victim)
            alloc.audit()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_random_workload_uncorrupted_audits_green(self, seed):
        rng = np.random.default_rng(seed)
        alloc = PagedKVAllocator(total_blocks=64, block_tokens=4,
                                 sanitize=True)
        for op in range(60):
            owner = int(rng.integers(0, 8))
            if rng.random() < 0.6:
                alloc.ensure(owner, int(rng.integers(1, 30)))
            elif alloc.holds(owner):
                alloc.release(owner)
        alloc.audit()
