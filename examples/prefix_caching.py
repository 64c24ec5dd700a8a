"""Shared-prefix KV reuse: radix-tree prefix caching over paged blocks.

PR 4's paged allocator made KV *occupancy* real; this example shows the
next multiplier: requests that share a prompt prefix — a fleet-wide
system prompt, or a chat session re-sending its whole history every
turn — can share the prefix's KV blocks instead of recomputing them
(`repro.serve.prefix`: ref-counted blocks keyed by their token ids in a
radix tree, LRU eviction of unreferenced leaves, copy-on-write on
divergence).

Three claims, all asserted:

1. **Chat turns get cheaper, not dearer.**  On a multi-turn chat trace
   turn *k*'s prompt is the whole history — longer every turn — yet
   with prefix caching its TTFT is *below* turn 0's, because only the
   new user message misses the cache.
2. **Shared system prompts mostly hit.**  On a shared-system-prompt
   trace the hit rate exceeds 50%: after the first request warms the
   tree, only each request's unique suffix prefills.
3. **Compression deepens the tree.**  At *equal HBM*, a CQ-4 cache
   holds ~4x the blocks of FP16, so under memory pressure it keeps the
   session trees resident where FP16 must evict them: kv-cq-4 + prefix
   caching beats FP16 + prefix caching on TTFT p50 *and* sustains an
   equal-or-higher cached-token fraction.

Ref-count conservation (no leaked blocks once every request finished)
is asserted after every run.

Run with::

    PYTHONPATH=src python examples/prefix_caching.py
"""

from repro.bench.serving import make_cost_model, make_kv_budget
from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.llm.config import llama_7b
from repro.serve.api import SchedulerConfig, SimConfig
from repro.serve.requests import (
    LengthSampler,
    multi_turn_chat_trace,
    shared_prefix_trace,
)
from repro.serve.scheduler import ContinuousBatchScheduler
from repro.serve.simulator import ServingSimulator

#: Equal HBM allowance for the KV cache of every mode.
KV_HBM_GB = 1.0

#: Multi-turn chat: per-session system prompts (``shared_system=False``
#: — a multi-tenant assistant), growing history each turn.
CHAT = dict(n_sessions=8, turns=4, rate_rps=2.0, think_s=4.0,
            system_tokens=256,
            user=LengthSampler(mean=64, cv=0.5, hi=256),
            output=LengthSampler(mean=64, cv=0.5, hi=256),
            shared_system=False, seed=0)

#: Shared-system-prompt trace: one 512-token system prompt, unique
#: ~128-token user suffixes.
SHARED = dict(rate_rps=8.0, n_requests=48, system_tokens=512,
              prompt=LengthSampler(mean=128, cv=0.5, hi=512),
              output=LengthSampler(mean=64, cv=0.5, hi=256), seed=0)


def run(mode, trace, engine, config, prefix_caching, name):
    budget = make_kv_budget(config, mode, capacity_bytes=KV_HBM_GB * 1e9)
    sched = ContinuousBatchScheduler(budget, config=SchedulerConfig(
        token_budget=2048, max_seqs=64, admission="paged", block_tokens=16,
        prefix_caching=prefix_caching))
    report = ServingSimulator(sched, make_cost_model(engine, config, mode),
                              config=SimConfig(name=name)).run(trace)
    # Ref-count conservation: every request finished, so no sequence
    # may still hold or reference a block (cached blocks may stay
    # resident — that is the cache — but nothing may leak).
    alloc = sched.allocator
    assert alloc.used_blocks == 0, "leaked blocks after drain"
    if prefix_caching:
        alloc.check_conservation()
        assert alloc.cache.n_referenced == 0, "leaked block references"
        assert not alloc._shared and not alloc._held, "leaked owners"
    return report


def main():
    spec, config = RTX4090, llama_7b()
    engine = ComputeEngine(spec)
    print(f"{config.name} on {spec.name}, {KV_HBM_GB:.0f} GB KV budget, "
          f"paged admission (16-token blocks)\n")

    # -- claim 1+3: multi-turn chat, FP16 vs CQ-4, prefix on/off -------
    chat = multi_turn_chat_trace(**CHAT)
    print(f"--- multi-turn chat: {CHAT['n_sessions']} sessions x "
          f"{CHAT['turns']} turns, per-session system prompts ---\n")
    reports = {}
    for mode in ("fp16", "kv-cq-4"):
        for prefix in (False, True):
            key = f"{mode}{'+prefix' if prefix else ''}"
            reports[key] = run(mode, chat, engine, config, prefix, key)
            print(reports[key].summary())
            print()

    cq, fp = reports["kv-cq-4+prefix"], reports["fp16+prefix"]
    by_turn = {}
    for rec in cq.records:
        by_turn.setdefault(chat[rec.req_id].turn, []).append(rec.ttft_s)
    turn0 = sorted(by_turn[0])[len(by_turn[0]) // 2]
    last = max(by_turn)
    turnk = sorted(by_turn[last])[len(by_turn[last]) // 2]
    print(f"kv-cq-4+prefix TTFT p50 by turn: turn 0 {turn0 * 1e3:.1f} ms "
          f"-> turn {last} {turnk * 1e3:.1f} ms "
          f"(prompts grew {chat[0].prompt_tokens} -> "
          f"{max(r.prompt_tokens for r in chat)} tokens)")
    assert turnk < turn0, \
        "turn-k TTFT should drop below turn-0 despite longer prompts"

    print(f"equal HBM, prefix on: TTFT p50 fp16 {fp.ttft_s(50) * 1e3:.1f} "
          f"ms vs kv-cq-4 {cq.ttft_s(50) * 1e3:.1f} ms; cached fraction "
          f"fp16 {fp.cached_token_fraction:.0%} (evicted "
          f"{fp.n_evicted_blocks} blocks) vs kv-cq-4 "
          f"{cq.cached_token_fraction:.0%} (evicted "
          f"{cq.n_evicted_blocks} blocks)")
    assert cq.ttft_s(50) < fp.ttft_s(50), \
        "kv-cq-4 + prefix should beat FP16 + prefix on TTFT p50"
    assert cq.cached_token_fraction >= fp.cached_token_fraction, \
        "kv-cq-4 should sustain at least FP16's cached-token fraction"

    off, on = reports["kv-cq-4"], reports["kv-cq-4+prefix"]
    print(f"prefix caching itself: kv-cq-4 TTFT p50 "
          f"{off.ttft_s(50) * 1e3:.1f} -> {on.ttft_s(50) * 1e3:.1f} ms, "
          f"{on.cached_token_fraction:.0%} of prompt tokens cached\n")
    assert on.ttft_s(50) < off.ttft_s(50), \
        "prefix caching should cut chat TTFT"

    # -- claim 2: shared system prompt ---------------------------------
    shared = shared_prefix_trace(**SHARED)
    print(f"--- shared system prompt: {SHARED['n_requests']} requests "
          f"behind one {SHARED['system_tokens']}-token prefix ---\n")
    rep = run("kv-cq-4", shared, engine, config, True, "kv-cq-4+prefix")
    print(rep.summary())
    print(f"\nhit rate {rep.prefix_hit_rate:.0%} "
          f"({rep.cached_token_fraction:.0%} of prompt tokens cached)")
    assert rep.prefix_hit_rate > 0.5, \
        "shared-system-prompt trace should mostly hit"


if __name__ == "__main__":
    main()
