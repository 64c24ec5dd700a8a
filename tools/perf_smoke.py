"""Wall-clock performance gate for the fast-path simulation core.

CI runs this after the functional suites: it exercises the two perf
targets of the event-core PR and fails loudly when either regresses by
more than ~2x, catching accidental slow-path reintroductions (a
scheduler falling off the full-rotation fast path, the sample disk
cache breaking, an O(n) scan reappearing per iteration).

Checks:

1. ``examples/cluster_serving.py`` warm wall clock.  The first run
   trains/loads quantized samples (cold); the timed second run is the
   steady state the 18x speedup claim is about (~0.7 s locally).  The
   default budget allows roughly 2x for slower CI hardware on top of
   the 2x regression allowance.
2. Event-core throughput: a large constant-cost serving simulation must
   sustain a floor in simulated requests per wall-clock second (the
   1M-requests-under-60 s target runs at ~21 k req/s locally; the
   floor is ~2x CI slack on top of a 2x regression allowance).
3. Tracing overhead: the same constant-cost simulation with
   :mod:`repro.obs` timeline recording enabled must stay within
   ``--trace-factor`` (default 1.5x) of the untraced wall clock —
   the "near-zero-cost when disabled, cheap when enabled" contract
   of the tracer's column-oriented buffers.
4. Timeline-sampling overhead: the same simulation with windowed
   time-series telemetry (``SimConfig(timeline=...)``) enabled must
   stay within the same 1.5x allowance — SAMPLE events on the heap
   plus per-window accumulation are O(windows), not O(events).
   Checks 3 and 4 run the untraced, traced and sampled simulations
   three times each, interleaved, and compare the best run of each
   side, as check 6 does: one run per side lets a noisy neighbour on
   a shared host fail the ratio by chance.
5. Conflict-degree evaluations, an exact count rather than a time: a
   fresh engine costing a kv-cq-4 decode sweep (every batch bucket,
   four sequence buckets) may call
   :meth:`~repro.gpu.banks.BankConflictModel.average_degree` at most
   once per distinct input (index stream, cache bounds, bank
   geometry).  Recomputing per shape or per candidate fails it
   deterministically.
6. Prefix-cache eviction scaling: the wall time per block of
   ``PrefixCache.evict_lru(1)`` on a tree of 25,000 unreferenced
   leaves over the same on 2,500 leaves must stay within 5x.  Host
   speed cancels in the ratio.  An LRU heap pop grows with the log of
   the tree (~1.6x on a 2-vCPU Xeon VM); a tree walk per call grows
   with its size (10x the node visits, ~26x on the same VM).
7. Paged ``ensure`` calls, an exact count rather than a time: in a
   fixed constant-cost paged run (3,000 requests, a 6,000-token pool,
   hundreds of preemptions) every
   :meth:`~repro.serve.paging.PagedKVAllocator.ensure` call must fail
   or allocate a block, read from the pool's ``n_ensure_calls`` and
   ``n_idle_ensures`` work counters.  The scheduler is the token
   ledger and calls the pool only to change a block count, so no call
   succeeds without allocating: the run makes 0 such calls for 4,043
   prefill chunks.  Calling ``ensure`` for a prefill chunk its blocks
   already back (15 calls) or for every decode token (~220k) fails it
   deterministically.
8. Decode-run replay, an exact count rather than a time: in a fixed
   ``kv-cq-4`` paged, prefix-cached chat run on the real cost model
   (300 requests at 2 req/s, 4 GB of KV, seed 0),
   :meth:`~repro.serve.scheduler.ContinuousBatchScheduler.schedule`
   may be called for at most half of the iterations, read from the
   scheduler's ``n_schedule_calls`` work counter.  A run of
   identical decode-only iterations is planned once and replayed, so
   797 calls plan its 7,389 iterations; planning every iteration
   (7,412 calls) fails it deterministically.
9. Fleet decode runs across arrivals, an exact count rather than a
   time: in a fixed 8-replica ``fp16`` ``least-kv`` paged fleet on the
   real cost model (bursty traffic at 24 req/s, 1,000 requests, seed
   0), ``schedule`` may be called for at most a quarter of the
   iterations, summed over the replicas' ``n_schedule_calls``.  An
   arrival routed to another replica leaves a
   replica's decode run in flight (the router reads it in place), so
   2,308 calls plan its 15,460 iterations; ending every run at every
   arrival (5,338 calls) fails it deterministically.
10. Cold kernel generation, an exact count rather than a time: the
    same kv-cq-4 decode sweep as check 5, on a fresh engine, may call
    :func:`~repro.core.slack.find_slack` at most once per operation it
    generates, and :func:`~repro.core.template.build_template` and
    :func:`~repro.core.emitter.emit_cuda` not at all.  Slack depends on
    the spec and the operation only, and a latency needs no template
    or source.  The sweep generates 48 attention kernels with 1
    ``find_slack`` call; a search per candidate plus one per kernel,
    and an eager template and source per kernel (96, 48 and 48 calls),
    fail it deterministically.
11. Prefix-cache work per block, exact counts rather than times, on
    check 8's fixed chat run, read from work counters.  Each admission
    walks its prompt once: ``PrefixCache.n_walks`` may be at most one
    per lookup (``PrefixCachingAllocator.n_lookup_calls``; ``peek``
    goes through ``lookup``), because ``match_and_lock`` locks the path
    the admission's lookup walked.  And an unreferenced chain falls for
    one heap pop: ``n_heap_pushes`` may be at most half the evicted
    blocks, because ``evict_lru`` evicts a parent older than every heap
    entry at once.  The run walks 300 prompts for 300 lookups and makes
    1,306 pushes for 9,013 evicted blocks; walking again to lock (600
    walks) and pushing every exposed parent (9,360 pushes) fail it
    deterministically.
12. Radix nodes per committed block, an exact count rather than a
    time, on the same run: ``n_nodes_allocated`` (nodes created plus
    nodes split) may be at most a quarter of the blocks committed into
    the tree.  The tree is path-compressed, so a release stores the
    blocks past its lock as one node, and only a touch, lock or insert
    that ends or diverges inside a node splits it.  The run allocates
    301 nodes for 10,855 committed blocks; one node per block (10,855)
    fails it deterministically.
13. Token-id bytes, an exact count rather than a time, on check 8's
    fixed chat trace: ``sys.getsizeof`` summed over every request's
    ``prompt_ids`` and ``output_ids``, over the ids they hold, may be
    at most 4 bytes per id.  Ids are packed two bytes each below
    65,536, so the trace reads 2.09 (1,022,878 B for 489,239 ids);
    tuples of ints (8.05 for their slots alone) fail it
    deterministically.
14. Sample bytes per code position, an exact count rather than a
    time: the quantized samples of the four serving modes the host
    benchmark loads (``kv-cq-4``, ``kv-cq-2``, ``vq4``, ``vq2``),
    loaded from a warm store after
    :func:`~repro.bench.workloads.clear_cache`, may retain at most 6
    bytes per (row, sub-vector) code position, read with
    :mod:`tracemalloc` after ``gc.collect()``.  Codes are kept at
    their index width (1 byte per residual for CQ and GPTVQ, 2 for
    QuiP#) and the scope group map is derived, so the samples read
    3.63 (3,563,610 B for 983,040 positions, codebooks included);
    int64 codes beside a stored int64 group map (18.96) fail it
    deterministically.

Run with::

    PYTHONPATH=src python tools/perf_smoke.py
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import random
import runpy
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.cluster import replica_kv_budget  # noqa: E402
from repro.bench.serving import (make_cost_model, make_kv_budget,  # noqa: E402
                                 make_trace, mode_cost_kwargs)
from repro.bench.workloads import clear_cache  # noqa: E402
from repro.core.codegen import VQLLMCodeGenerator  # noqa: E402
from repro.core.emitter import emit_cuda  # noqa: E402
from repro.core.engine import ComputeEngine  # noqa: E402
from repro.core.slack import find_slack  # noqa: E402
from repro.core.template import build_template  # noqa: E402
from repro.gpu.banks import BankConflictModel  # noqa: E402
from repro.gpu.spec import RTX4090  # noqa: E402
from repro.llm.config import llama_7b  # noqa: E402
from repro.obs.slo import SLO  # noqa: E402
from repro.obs.timeline import TimelineConfig  # noqa: E402
from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig  # noqa: E402
from repro.serve.costs import BATCH_BUCKETS  # noqa: E402
from repro.serve.prefix import PrefixCache  # noqa: E402
from repro.serve.requests import Request  # noqa: E402
from repro.serve.scheduler import KVBudget  # noqa: E402

#: Unreferenced-leaf counts of the eviction-scaling check's two trees,
#: the ``evict_lru(1)`` calls timed on each, and the largest allowed
#: per-block time ratio of the large tree over the small one.
EVICT_SMALL, EVICT_LARGE = 2_500, 25_000
EVICT_TIMED = 1_000
EVICT_MAX_RATIO = 5.0

#: Interleaved rounds of the untraced, traced and timeline-sampled
#: simulations in checks 3 and 4; each side's best round is compared.
OVERHEAD_ROUNDS = 3

#: The paged ensure-count run: requests, and the KV pool in tokens
#: (16-token blocks), tight enough to preempt.
ENSURE_REQUESTS = 3_000
ENSURE_POOL_TOKENS = 6_000

#: The replay-count run's chat trace: requests at 2 req/s.
REPLAY_REQUESTS = 300

#: Most bytes per token id the replay-count trace may hold.
MAX_ID_BYTES = 4

#: The fleet replay-count run: replicas, and bursty requests at 24 req/s.
FLEET_REPLICAS, FLEET_REQUESTS = 8, 1_000

#: Serving modes whose quantized samples the host benchmark loads, and
#: the most bytes per code position they may retain once loaded.
SAMPLE_MODES = ("kv-cq-4", "kv-cq-2", "vq4", "vq2")
MAX_SAMPLE_BYTES = 6


class _ConstantCostModel:
    """Fixed step cost: isolates scheduler/event-core overhead."""

    def step_us(self, plan):
        return 150.0

    def repeat_room(self, plan):
        return float("inf")  # a constant cost never changes


def _run_example(path: Path) -> float:
    """Run one example silently; return its wall clock in seconds."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(path), run_name="__main__")
    return time.perf_counter() - t0


def _event_core_elapsed(n_requests: int, trace: bool = False,
                        timeline: TimelineConfig | None = None) -> float:
    """Wall-clock seconds for a constant-cost sim of ``n_requests``."""
    requests = [Request(req_id=i, arrival_s=i * 0.0002, prompt_tokens=32,
                        output_tokens=8) for i in range(n_requests)]
    budget = KVBudget(capacity_bytes=4e6, bytes_per_token=1.0)
    sim = SimConfig(scheduler=SchedulerConfig(token_budget=4096,
                                              max_seqs=256),
                    name="perf-smoke", trace=trace, timeline=timeline,
                    max_iterations=50_000_000).build(budget,
                                                     _ConstantCostModel())
    t0 = time.perf_counter()
    report = sim.run(requests)
    elapsed = time.perf_counter() - t0
    assert report.n_requests == n_requests
    return elapsed


def _overhead_best_s(n_requests: int) -> tuple:
    """Best-of-:data:`OVERHEAD_ROUNDS` wall seconds of the untraced,
    traced and timeline-sampled simulations, run interleaved so a
    slow stretch of a shared host hits every side alike."""
    timeline = TimelineConfig(window_s=0.25, slo=SLO(ttft_s=0.5))
    best = [float("inf")] * 3
    for _ in range(OVERHEAD_ROUNDS):
        for i, kwargs in enumerate(({}, {"trace": True},
                                    {"timeline": timeline})):
            best[i] = min(best[i], _event_core_elapsed(n_requests,
                                                       **kwargs))
    return tuple(best)


def _evict_s_per_block(n_leaves: int) -> float:
    """Best-of-3 wall seconds per block of ``evict_lru(1)`` on a tree
    of ``n_leaves`` unreferenced one-block leaves."""
    best = float("inf")
    for _ in range(3):
        cache = PrefixCache(block_tokens=1)
        for token in range(n_leaves):
            cache.insert((token,), 1)
        t0 = time.perf_counter()
        for _ in range(EVICT_TIMED):
            cache.evict_lru(1)
        best = min(best, time.perf_counter() - t0)
    return best / EVICT_TIMED


def _paged_ensure_counts() -> tuple:
    """``(idle ensure calls, ensure calls, prefill chunks,
    preemptions)`` of one constant-cost paged run; an idle call
    succeeds without allocating."""
    rng = random.Random(0)
    requests = [Request(req_id=i, arrival_s=i * 0.0002,
                        prompt_tokens=rng.randint(40, 239),
                        output_tokens=rng.randint(20, 139))
                for i in range(ENSURE_REQUESTS)]
    chunks = 0

    class ChunkCounting(_ConstantCostModel):
        def step_us(self, plan):
            nonlocal chunks
            chunks += len(plan.prefill)
            return super().step_us(plan)

    budget = KVBudget(capacity_bytes=float(ENSURE_POOL_TOKENS),
                      bytes_per_token=1.0)
    sim = SimConfig(scheduler=SchedulerConfig(token_budget=512,
                                              max_seqs=64,
                                              admission="paged"),
                    name="perf-smoke-paged").build(budget, ChunkCounting())
    report = sim.run(requests)
    assert report.n_requests == ENSURE_REQUESTS
    alloc = sim.scheduler.allocator
    return (alloc.n_idle_ensures, alloc.n_ensure_calls, chunks,
            report.n_preempted)


def _replay_counts() -> dict:
    """Work counts of one fixed ``kv-cq-4`` paged, prefix-cached chat
    run on the real cost model: ``schedule`` calls and iterations
    (check 8); prompt walks, lookups, LRU heap pushes and evicted
    blocks (check 11); radix nodes allocated and blocks committed
    (check 12), all read from work counters; and the trace's token-id
    bytes and ids (check 13)."""
    config = llama_7b()
    trace = make_trace("chat", 2.0, REPLAY_REQUESTS, 384, 96, seed=0)
    budget = make_kv_budget(config, "kv-cq-4", capacity_bytes=4e9,
                            spec=RTX4090)
    cost = make_cost_model(ComputeEngine(RTX4090), config, "kv-cq-4")
    sim = SimConfig(scheduler=SchedulerConfig(max_seqs=64,
                                              admission="paged",
                                              prefix_caching=True),
                    name="perf-smoke-replay").build(budget, cost)
    report = sim.run(trace)
    assert report.n_requests == REPLAY_REQUESTS
    alloc = sim.scheduler.allocator
    id_seqs = [ids for r in trace for ids in (r.prompt_ids, r.output_ids)]
    return {"schedule_calls": sim.scheduler.n_schedule_calls,
            "iterations": report.n_iterations,
            "walks": alloc.cache.n_walks, "lookups": alloc.n_lookup_calls,
            "heap_pushes": alloc.cache.n_heap_pushes,
            "evicted_blocks": report.n_evicted_blocks,
            "nodes_allocated": alloc.cache.n_nodes_allocated,
            "committed_blocks": alloc.n_committed_blocks,
            "id_bytes": sum(map(sys.getsizeof, id_seqs)),
            "ids": sum(map(len, id_seqs))}


def _fleet_schedule_calls() -> tuple:
    """``(schedule calls, iterations)`` of one fixed ``fp16`` paged
    fleet behind ``least-kv`` on the real cost model."""
    config = llama_7b()
    trace = make_trace("bursty", 24.0, FLEET_REQUESTS, 384, 96, seed=0)
    budget = replica_kv_budget(config, "fp16", RTX4090)
    cost = make_cost_model(ComputeEngine(RTX4090), config, "fp16")
    sim = FleetConfig(scheduler=SchedulerConfig(max_seqs=64,
                                                admission="paged"),
                      policy="least-kv", name="perf-smoke-fleet").build(
                          FLEET_REPLICAS, budget, cost)
    report = sim.run(trace)
    assert report.n_requests == FLEET_REQUESTS
    return (sum(rep.scheduler.n_schedule_calls for rep in sim.replicas),
            sum(s.n_iterations for s in report.replica_stats))


def _sample_bytes() -> tuple:
    """``(retained bytes, code positions)`` of the :data:`SAMPLE_MODES`
    samples, loaded from a warm store into an empty in-process cache."""
    for mode in SAMPLE_MODES:
        mode_cost_kwargs(mode)  # warm the store (trains on a fresh one)
    clear_cache()
    gc.collect()
    tracemalloc.start()
    try:
        loaded = [mode_cost_kwargs(mode) for mode in SAMPLE_MODES]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tensors = {id(qt): qt for kwargs in loaded
               for qt in (kwargs.get("weight_qt"), *kwargs.get("kv_qt", ()))
               if qt is not None}
    return retained, sum(qt.rows * qt.n_subvectors
                         for qt in tensors.values())


def _decode_sweep() -> None:
    """Cost a kv-cq-4 decode step at every batch bucket and four
    sequence buckets on a fresh engine."""
    cost = make_cost_model(ComputeEngine(RTX4090), llama_7b(), "kv-cq-4")
    for batch in BATCH_BUCKETS:
        for seq in (512, 1024, 2048, 4096):
            cost.decode_step_us(batch, seq)


def _decode_sweep_degree_calls() -> tuple:
    """``(calls, distinct keys)`` of ``average_degree`` in one sweep."""
    calls: Counter = Counter()
    original = BankConflictModel.average_degree

    def counted(self, stream, register_resident=0, shared_resident=None,
                **kwargs):
        spec = self.spec
        calls[(hashlib.sha256(stream.tobytes()).hexdigest(),
               register_resident, shared_resident, self.entry_bytes,
               spec.warp_size, spec.smem_banks, spec.smem_bank_bytes)] += 1
        return original(self, stream, register_resident, shared_resident,
                        **kwargs)

    BankConflictModel.average_degree = counted
    try:
        _decode_sweep()
    finally:
        BankConflictModel.average_degree = original
    return sum(calls.values()), len(calls)


def _decode_sweep_codegen_calls() -> tuple:
    """``(kernels by operation, calls by function)`` of one sweep.

    The functions are counted through every ``repro`` module that binds
    them, so a call moved to another module is still counted.
    """
    generated: Counter = Counter()
    calls: Counter = Counter()
    patches = []
    for attr in ("generate_gemm", "generate_gemv", "generate_attention"):
        original = VQLLMCodeGenerator.__dict__[attr]

        def generate(self, *args, _attr=attr, _original=original,
                     **kwargs):
            generated[_attr.removeprefix("generate_")] += 1
            return _original(self, *args, **kwargs)

        patches.append((VQLLMCodeGenerator, attr, original, generate))
    for fn in (find_slack, build_template, emit_cuda):
        def call(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        patches.extend((module, fn.__name__, fn, call)
                       for name, module in list(sys.modules.items())
                       if name.startswith("repro.")
                       and vars(module).get(fn.__name__) is fn)
    for target, attr, _, replacement in patches:
        setattr(target, attr, replacement)
    try:
        _decode_sweep()
    finally:
        for target, attr, original, _ in reversed(patches):
            setattr(target, attr, original)
    return generated, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/perf_smoke.py",
        description="Fail on >~2x wall-clock regression of the "
                    "fast-path simulation core.")
    parser.add_argument("--budget-s", type=float, default=3.0,
                        help="warm cluster_serving.py wall-clock budget "
                             "(default 3.0 s; ~0.7 s locally)")
    parser.add_argument("--min-rps", type=float, default=5000.0,
                        help="event-core floor, simulated requests per "
                             "second (default 5000; ~21k locally)")
    parser.add_argument("--requests", type=int, default=200_000,
                        help="trace size for the event-core check")
    parser.add_argument("--trace-requests", type=int, default=50_000,
                        help="trace size for the tracing-overhead check")
    parser.add_argument("--trace-factor", type=float, default=1.5,
                        help="max traced/untraced wall-clock ratio "
                             "(default 1.5x)")
    args = parser.parse_args(argv)

    example = ROOT / "examples" / "cluster_serving.py"
    cold_s = _run_example(example)
    warm_s = _run_example(example)
    print(f"cluster_serving.py: cold {cold_s:.2f} s, warm {warm_s:.2f} s "
          f"(budget {args.budget_s:.2f} s)")

    rps = args.requests / _event_core_elapsed(args.requests)
    print(f"event core: {args.requests:,} requests at {rps:,.0f} req/s "
          f"(floor {args.min_rps:,.0f})")

    off_s, on_s, tl_s = _overhead_best_s(args.trace_requests)
    factor = on_s / off_s
    print(f"tracing overhead: {args.trace_requests:,} requests, best of "
          f"{OVERHEAD_ROUNDS}: untraced {off_s:.2f} s, traced {on_s:.2f} s "
          f"({factor:.2f}x, max {args.trace_factor:.2f}x)")
    tl_factor = tl_s / off_s
    print(f"timeline overhead: {args.trace_requests:,} requests, best of "
          f"{OVERHEAD_ROUNDS}: plain {off_s:.2f} s, sampled {tl_s:.2f} s "
          f"({tl_factor:.2f}x, max {args.trace_factor:.2f}x)")

    degree_calls, degree_keys = _decode_sweep_degree_calls()
    print(f"conflict degrees: kv-cq-4 decode sweep made {degree_calls} "
          f"average_degree calls for {degree_keys} distinct inputs "
          f"(max one per input)")

    generated, codegen_calls = _decode_sweep_codegen_calls()
    n_kernels = sum(generated.values())
    slack_calls = codegen_calls["find_slack"]
    templates = codegen_calls["build_template"]
    emits = codegen_calls["emit_cuda"]
    print(f"kernel generation: kv-cq-4 decode sweep generated "
          f"{n_kernels} kernels of {len(generated)} operation(s) with "
          f"{slack_calls} find_slack calls, {templates} templates and "
          f"{emits} emitted sources (max one find_slack per operation, "
          f"no templates or sources)")

    small_s = _evict_s_per_block(EVICT_SMALL)
    large_s = _evict_s_per_block(EVICT_LARGE)
    evict_ratio = large_s / small_s
    print(f"prefix eviction: {large_s * 1e6:.2f} us/block on "
          f"{EVICT_LARGE:,} leaves, {small_s * 1e6:.2f} us/block on "
          f"{EVICT_SMALL:,} ({evict_ratio:.2f}x, max "
          f"{EVICT_MAX_RATIO:.1f}x)")

    idle_ensures, ensures, chunks, preempted = _paged_ensure_counts()
    print(f"paged ensure: {idle_ensures:,} of {ensures:,} calls allocated "
          f"nothing, for {chunks:,} prefill chunks ({preempted:,} "
          f"preemptions; max none)")

    replay = _replay_counts()
    schedule_calls, iterations = (replay["schedule_calls"],
                                  replay["iterations"])
    print(f"decode replay: {schedule_calls:,} schedule calls planned "
          f"{iterations:,} iterations (max half)")
    walks, lookups = replay["walks"], replay["lookups"]
    pushes, evicted = replay["heap_pushes"], replay["evicted_blocks"]
    print(f"prefix work: {walks:,} prompt walks for {lookups:,} lookups "
          f"(max one each); {pushes:,} LRU heap pushes for {evicted:,} "
          f"evicted blocks (max half)")
    nodes, committed = replay["nodes_allocated"], replay["committed_blocks"]
    print(f"prefix nodes: {nodes:,} radix nodes allocated for "
          f"{committed:,} committed blocks (max a quarter)")
    id_bytes, n_ids = replay["id_bytes"], replay["ids"]
    print(f"token ids: {id_bytes:,} B for {n_ids:,} ids "
          f"({id_bytes / n_ids:.2f} B per id, max {MAX_ID_BYTES})")

    fleet_calls, fleet_iterations = _fleet_schedule_calls()
    print(f"fleet decode runs: {fleet_calls:,} schedule calls planned "
          f"{fleet_iterations:,} iterations (max a quarter)")

    sample_bytes, positions = _sample_bytes()
    print(f"sample tensors: {sample_bytes:,} B retained for "
          f"{positions:,} code positions ({sample_bytes / positions:.2f} "
          f"B per position, max {MAX_SAMPLE_BYTES})")

    failed = False
    if sample_bytes > MAX_SAMPLE_BYTES * positions:
        print(f"PERF REGRESSION: loaded samples retain "
              f"{sample_bytes / positions:.2f} B per code position; codes "
              f"should be stored at their index width and the scope "
              f"group map derived, not stored")
        failed = True
    if id_bytes > MAX_ID_BYTES * n_ids:
        print(f"PERF REGRESSION: token ids cost {id_bytes / n_ids:.2f} B "
              f"each; a trace's ids should be packed two bytes each")
        failed = True
    if 4 * nodes > committed:
        print(f"PERF REGRESSION: {nodes:,} radix nodes allocated for "
              f"{committed:,} committed blocks; a commit should store "
              f"its new blocks as one node")
        failed = True
    if walks > lookups:
        print(f"PERF REGRESSION: {walks:,} prompt walks for {lookups:,} "
              f"lookups; match_and_lock should lock the path the "
              f"admission's lookup walked")
        failed = True
    if 2 * pushes > evicted:
        print(f"PERF REGRESSION: {pushes:,} LRU heap pushes for "
              f"{evicted:,} evicted blocks; a parent older than every "
              f"heap entry should be evicted without one")
        failed = True
    if slack_calls > len(generated):
        print(f"PERF REGRESSION: {slack_calls} find_slack calls for "
              f"{len(generated)} generated operation(s); the generator "
              f"should search each operation's slack once")
        failed = True
    if templates or emits:
        print(f"PERF REGRESSION: {templates} templates and {emits} "
              f"sources built while costing; a latency needs neither, "
              f"so both should wait for first access")
        failed = True
    if 4 * fleet_calls > fleet_iterations:
        print(f"PERF REGRESSION: {fleet_calls:,} schedule calls for "
              f"{fleet_iterations:,} fleet iterations; an arrival routed "
              f"to another replica should not end a replica's decode run")
        failed = True
    if 2 * schedule_calls > iterations:
        print(f"PERF REGRESSION: {schedule_calls:,} schedule calls for "
              f"{iterations:,} iterations; runs of identical decode-only "
              f"iterations should be planned once and replayed")
        failed = True
    if idle_ensures:
        print(f"PERF REGRESSION: {idle_ensures:,} ensure calls allocated "
              f"nothing; the scheduler's token ledger should call the "
              f"pool only to change a block count")
        failed = True
    if evict_ratio > EVICT_MAX_RATIO:
        print(f"PERF REGRESSION: evict_lru costs {evict_ratio:.2f}x more "
              f"per block on a {EVICT_LARGE // EVICT_SMALL}x larger tree; "
              f"eviction should pop a heap, not walk the tree")
        failed = True
    if degree_calls > degree_keys:
        print(f"PERF REGRESSION: {degree_calls} average_degree calls for "
              f"{degree_keys} distinct inputs; the codebook memo should "
              f"evaluate each once per engine")
        failed = True
    if warm_s > args.budget_s:
        print(f"PERF REGRESSION: warm cluster_serving.py took "
              f"{warm_s:.2f} s > {args.budget_s:.2f} s budget")
        failed = True
    if rps < args.min_rps:
        print(f"PERF REGRESSION: event core at {rps:,.0f} req/s < "
              f"{args.min_rps:,.0f} floor")
        failed = True
    if factor > args.trace_factor:
        print(f"PERF REGRESSION: tracing costs {factor:.2f}x > "
              f"{args.trace_factor:.2f}x allowance")
        failed = True
    if tl_factor > args.trace_factor:
        print(f"PERF REGRESSION: timeline sampling costs "
              f"{tl_factor:.2f}x > {args.trace_factor:.2f}x allowance")
        failed = True
    if not failed:
        print("perf smoke passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
