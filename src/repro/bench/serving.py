"""Serving-level experiment: FP16 vs quantized KV caches at equal HBM.

This wires the kernel-level reproduction into :mod:`repro.serve`: the
same serving modes as the E2E ledger (:data:`repro.bench.e2e.MODES`)
are simulated under continuous batching with a *fixed* HBM allowance
for the KV cache.  Compression changes two things at once:

- decode kernels get cheaper (fused VQ attention reads fewer bytes);
- bytes-per-token shrinks, so admission control packs 4-8x more
  concurrent sequences into the same memory.

The second effect dominates at high offered load — FP16 saturates its
KV budget and queues, while the VQ modes keep admitting — which is the
system-level argument for VQ caches that per-kernel latency sweeps
cannot show.

Two mode families are supported:

- the full-stack E2E modes (``fp16`` / ``qserve`` / ``vq4`` / ``vq2``),
  which also quantize weights.  Note that VQ *weights* slow down the
  compute-bound prefill GEMMs (dequantization adds scalar work that the
  tensor cores cannot hide there), so full-stack throughput mixes two
  opposing effects;
- KV-only modes (``kv-cq-4`` / ``kv-cq-2``: FP16 weights, CQ-compressed
  cache), which isolate exactly the cache-compression effect the
  serving comparison is about and are the default.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence

from repro.bench.e2e import _VQ_KV_ALGO, _VQ_WEIGHT_ALGO, MODES
from repro.bench.harness import ExperimentResult
from repro.bench.workloads import attention_sample, weight_sample
from repro.core.engine import ComputeEngine
from repro.gpu.spec import GPUSpec, RTX4090, get_spec
from repro.llm.config import LlamaConfig, llama_7b
from repro.obs.timeline import TimelineConfig
from repro.serve.api import SchedulerConfig, SimConfig
from repro.serve.costs import StepCostModel
from repro.serve.requests import (
    LengthSampler,
    Request,
    bursty_trace,
    multi_turn_chat_trace,
    poisson_trace,
    shared_prefix_trace,
    trace_stats,
)
from repro.serve.scheduler import ADMISSION_POLICIES, KVBudget
from repro.serve.simulator import ServingReport
from repro.vq.algorithms import make_config


#: KV-only serving modes: FP16 weights, CQ-compressed KV cache.
KV_ONLY_MODES = {"kv-cq-4": "cq-4", "kv-cq-2": "cq-2"}

#: All serving modes this experiment understands.
SERVING_MODES = tuple(MODES) + tuple(KV_ONLY_MODES)

#: Arrival processes :func:`make_trace` understands.  The session-aware
#: kinds (``shared_prefix``, ``chat``) synthesize token ids, so they
#: are the ones prefix caching can act on.
TRACE_KINDS = ("poisson", "bursty", "shared_prefix", "chat")


def mode_kv_scheme(mode: str) -> dict:
    """The ``vq=`` / ``bits=`` KV-cache scheme of one serving mode."""
    if mode == "fp16":
        return {}
    if mode == "qserve":
        return {"bits": 4}
    if mode in KV_ONLY_MODES:
        return {"vq": make_config(KV_ONLY_MODES[mode])}
    if mode in _VQ_KV_ALGO:
        return {"vq": make_config(_VQ_KV_ALGO[mode])}
    raise ValueError(f"unknown mode {mode!r}; "
                     f"expected one of {SERVING_MODES}")


def make_kv_budget(config: LlamaConfig, mode: str,
                   capacity_bytes: Optional[float] = None,
                   spec: Optional[GPUSpec] = None) -> KVBudget:
    """KV budget for one serving mode.

    With ``capacity_bytes`` the allowance is explicit (the PR-1
    behaviour); with ``spec`` instead, the budget derives from the
    chip's ``dram_bytes`` minus FP16 weights and a reserve margin
    (:meth:`~repro.serve.scheduler.KVBudget.for_gpu`), so callers no
    longer thread ad-hoc byte counts.
    """
    scheme = mode_kv_scheme(mode)
    if capacity_bytes is not None:
        return KVBudget.for_model(config, capacity_bytes, **scheme)
    if spec is None:
        raise ValueError("pass capacity_bytes or a GPUSpec")
    return KVBudget.for_gpu(config, spec, **scheme)


def make_trace(
    kind: str,
    rate_rps: float,
    n_requests: int,
    prompt_mean: int,
    output_mean: int,
    seed: int = 0,
) -> List[Request]:
    """Build an arrival trace of one of :data:`TRACE_KINDS`.

    The classic kinds spend ``prompt_mean`` on one lognormal prompt.
    ``shared_prefix`` splits it: a fixed system prompt of
    ``2 * prompt_mean`` tokens shared by every request plus a unique
    ``prompt_mean``-mean user suffix.  ``chat`` builds 4-turn sessions
    (``prompt_mean``-mean user messages on a ``prompt_mean``-token
    system prompt), so turn *k* re-sends the concatenated history;
    enough sessions are generated to cover ``n_requests`` and the
    latest arrivals are dropped to hit the count exactly (a dropped
    global suffix only ever removes a *suffix* of each session's
    turns, so history chains stay intact).
    """
    samplers = dict(
        prompt=LengthSampler(mean=prompt_mean, cv=0.5, hi=4 * prompt_mean),
        output=LengthSampler(mean=output_mean, cv=0.5, hi=4 * output_mean),
    )
    if kind == "poisson":
        return poisson_trace(rate_rps, n_requests, seed=seed, **samplers)
    if kind == "bursty":
        return bursty_trace(rate_rps, n_requests, seed=seed, **samplers)
    if kind == "shared_prefix":
        return shared_prefix_trace(
            rate_rps, n_requests, system_tokens=2 * prompt_mean,
            seed=seed, **samplers)
    if kind == "chat":
        turns = 4
        trace = multi_turn_chat_trace(
            n_sessions=-(-n_requests // turns), turns=turns,
            rate_rps=rate_rps / turns, system_tokens=prompt_mean,
            user=LengthSampler(mean=prompt_mean, cv=0.5,
                               hi=4 * prompt_mean),
            output=samplers["output"], seed=seed)
        return trace[:n_requests]
    raise ValueError(f"unknown trace kind {kind!r}; "
                     f"expected one of {TRACE_KINDS}")


def mode_cost_kwargs(mode: str) -> dict:
    """Quantized-operand kwargs of one serving mode's cost model.

    Shared with the TP-aware cluster cost model
    (:mod:`repro.bench.cluster`), which passes the same operands to
    :class:`~repro.cluster.costs.ShardedStepCostModel`.
    """
    if mode not in SERVING_MODES:
        raise ValueError(f"unknown mode {mode!r}; "
                         f"expected one of {SERVING_MODES}")
    if mode == "fp16":
        return {}
    if mode == "qserve":
        return {"weight_bits": 4, "kv_bits": 4}
    if mode in KV_ONLY_MODES:
        return {"kv_qt": attention_sample(KV_ONLY_MODES[mode])}
    return {"weight_qt": weight_sample(_VQ_WEIGHT_ALGO[mode]),
            "kv_qt": attention_sample(_VQ_KV_ALGO[mode])}


def make_cost_model(engine: ComputeEngine, config: LlamaConfig, mode: str,
                    seq_bucket: int = 512) -> StepCostModel:
    """Step cost model for one serving mode, using the sample tensors."""
    return StepCostModel(engine, config, seq_bucket=seq_bucket,
                         **mode_cost_kwargs(mode))


def simulate_mode(
    mode: str,
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    kv_hbm_gb: Optional[float] = 4.0,
    rate_rps: float = 16.0,
    n_requests: int = 64,
    prompt_mean: int = 384,
    output_mean: int = 96,
    token_budget: int = 2048,
    max_seqs: int = 64,
    seed: int = 0,
    trace_kind: str = "poisson",
    engine: Optional[ComputeEngine] = None,
    admission: str = "reserve",
    block_tokens: int = 16,
    prefix_caching: bool = False,
    trace: bool = False,
    timeline: Optional[TimelineConfig] = None,
    sanitize: bool = False,
) -> ServingReport:
    """Simulate one serving mode on an open-loop trace.

    ``kv_hbm_gb=None`` derives the KV allowance from the GPU spec's
    DRAM capacity (minus FP16 weights and a reserve margin) instead of
    a fixed byte count.  ``admission`` selects worst-case reservations
    (``"reserve"``) or paged block allocation with recompute preemption
    (``"paged"``, pool carved into ``block_tokens``-token blocks).
    ``prefix_caching=True`` (paged only) shares KV blocks across
    common prompt prefixes; pair it with an id-carrying trace kind
    (``shared_prefix`` / ``chat``) or every lookup misses.
    ``trace=True`` records a :mod:`repro.obs` timeline on the returned
    report's ``tracer`` (metrics are bit-identical either way).
    ``timeline=TimelineConfig(...)`` additionally samples windowed
    time-series telemetry (and, with SLO limits set, burn-rate alerts)
    onto the report's ``timeline`` / ``slo`` — same bit-identity
    contract.  ``sanitize=True`` arms the allocator invariant checks
    of :mod:`repro.serve.sanitize` (also bit-identical on metrics).
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    requests = make_trace(trace_kind, rate_rps, n_requests,
                          prompt_mean, output_mean, seed=seed)
    budget = make_kv_budget(
        config, mode,
        capacity_bytes=None if kv_hbm_gb is None else kv_hbm_gb * 1e9,
        spec=spec)
    name = mode if admission == "reserve" else f"{mode}/{admission}"
    if prefix_caching:
        name += "+prefix"
    sim_config = SimConfig(
        scheduler=SchedulerConfig(token_budget=token_budget,
                                  max_seqs=max_seqs,
                                  admission=admission,
                                  block_tokens=block_tokens,
                                  prefix_caching=prefix_caching,
                                  sanitize=sanitize),
        name=name, trace=trace, timeline=timeline)
    cost_model = make_cost_model(engine, config, mode)
    return sim_config.build(budget, cost_model).run(requests)


def serving_comparison(
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    modes: Sequence[str] = ("fp16", "kv-cq-4", "kv-cq-2"),
    engine: Optional[ComputeEngine] = None,
    reports: Optional[dict] = None,
    **kwargs,
) -> ExperimentResult:
    """Compare serving modes at an equal KV-cache HBM budget.

    Extra keyword arguments go to :func:`simulate_mode`; every mode
    shares one engine (and thus one latency memo) and the same trace.
    Pass a dict as ``reports`` to also receive each mode's
    :class:`~repro.serve.simulator.ServingReport`.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    result = ExperimentResult(
        experiment_id="serving",
        title=f"Continuous-batching serving on {spec.name} "
              f"({config.name}, equal KV HBM budget)",
        columns=("mode", "req/s", "tok/s", "ttft_p50_ms", "tpot_p50_ms",
                 "latency_p99_s", "peak_seqs"),
    )
    reports = reports if reports is not None else {}
    for mode in modes:
        rep = simulate_mode(mode, spec=spec, config=config, engine=engine,
                            **kwargs)
        reports[mode] = rep
        result.add_row(mode, rep.throughput_rps, rep.output_tokens_per_s,
                       rep.ttft_s(50) * 1e3, rep.tpot_s(50) * 1e3,
                       rep.latency_s(99), rep.peak_seqs)
    if "fp16" in reports:
        base = reports["fp16"].throughput_rps
        for mode, rep in reports.items():
            if mode != "fp16":
                result.notes.append(
                    f"{mode} sustains {rep.throughput_rps / base:.2f}x "
                    f"the FP16 request throughput at equal KV memory")
    return result


def admission_comparison(
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    modes: Sequence[str] = ("fp16", "kv-cq-4", "kv-cq-2"),
    admissions: Sequence[str] = ("reserve", "paged"),
    engine: Optional[ComputeEngine] = None,
    reports: Optional[dict] = None,
    **kwargs,
) -> ExperimentResult:
    """Reserve vs paged admission per compression mode, equal KV HBM.

    The comparison the paging subsystem exists for: worst-case
    reservations leave the cache *admission-bound* (peak occupancy well
    below the pool), while paged allocation runs it *occupancy-bound*
    (blocks fill the pool; pressure resolves by recompute preemption).
    Rows are (mode, admission) pairs keyed ``mode/admission`` in
    ``reports``; extra keyword arguments go to :func:`simulate_mode`.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    for adm in admissions:
        if adm not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {adm!r}; "
                             f"expected one of {ADMISSION_POLICIES}")
    result = ExperimentResult(
        experiment_id="serving_admission",
        title=f"Reserve vs paged KV admission on {spec.name} "
              f"({config.name}, equal KV HBM budget)",
        columns=("mode", "admission", "req/s", "ttft_p50_ms",
                 "peak_seqs", "peak_kv_occ", "preemptions"),
    )
    reports = reports if reports is not None else {}
    for mode in modes:
        for adm in admissions:
            rep = simulate_mode(mode, spec=spec, config=config,
                                engine=engine, admission=adm, **kwargs)
            reports[f"{mode}/{adm}"] = rep
            result.add_row(mode, adm, rep.throughput_rps,
                           rep.ttft_s(50) * 1e3, rep.peak_seqs,
                           rep.peak_kv_occupancy, rep.n_preempted)
        if {"reserve", "paged"} <= set(admissions):
            res = reports[f"{mode}/reserve"]
            pag = reports[f"{mode}/paged"]
            result.notes.append(
                f"{mode}: paged admission lifts peak KV occupancy "
                f"{res.peak_kv_occupancy:.0%} -> "
                f"{pag.peak_kv_occupancy:.0%} "
                f"({pag.n_preempted} preemptions)")
    return result


def prefix_comparison(
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    modes: Sequence[str] = ("fp16", "kv-cq-4"),
    prefix_settings: Sequence[bool] = (False, True),
    trace_kind: str = "chat",
    engine: Optional[ComputeEngine] = None,
    reports: Optional[dict] = None,
    **kwargs,
) -> ExperimentResult:
    """Prefix caching on/off per KV scheme, equal HBM, paged admission.

    The interaction the prefix subsystem exists for: caching removes
    prefill work proportional to the hit rate, and *compression* sets
    how deep a tree the pool can keep resident — at equal HBM a CQ-4
    cache holds ~4x the blocks of FP16, so under memory pressure it
    sustains a higher hit rate on the same sessionized trace.  Rows
    are (mode, prefix) pairs keyed ``mode[+prefix]`` in ``reports``;
    extra keyword arguments go to :func:`simulate_mode`.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    result = ExperimentResult(
        experiment_id="serving_prefix",
        title=f"Prefix caching on {spec.name} ({config.name}, "
              f"{trace_kind} trace, equal KV HBM budget)",
        columns=("mode", "prefix", "req/s", "ttft_p50_ms", "hit_rate",
                 "cached_frac", "evicted"),
    )
    reports = reports if reports is not None else {}
    for mode in modes:
        for prefix in prefix_settings:
            rep = simulate_mode(mode, spec=spec, config=config,
                                engine=engine, admission="paged",
                                trace_kind=trace_kind,
                                prefix_caching=prefix, **kwargs)
            key = f"{mode}+prefix" if prefix else mode
            reports[key] = rep
            result.add_row(mode, "on" if prefix else "off",
                           rep.throughput_rps, rep.ttft_s(50) * 1e3,
                           rep.prefix_hit_rate,
                           rep.cached_token_fraction,
                           rep.n_evicted_blocks)
        if {True, False} <= set(prefix_settings):
            off, on = reports[mode], reports[f"{mode}+prefix"]
            if off.ttft_s(50) > 0:
                result.notes.append(
                    f"{mode}: prefix caching serves "
                    f"{on.cached_token_fraction:.0%} of prompt tokens "
                    f"from cache, TTFT p50 {off.ttft_s(50) * 1e3:.1f} -> "
                    f"{on.ttft_s(50) * 1e3:.1f} ms")
    return result


def run(argv: Optional[Sequence[str]] = None,
        reports: Optional[dict] = None) -> ExperimentResult:
    """Run the CLI experiment and return the structured result.

    Same argument surface as the ``python -m repro.bench.serving``
    command line, but the caller gets the
    :class:`~repro.bench.harness.ExperimentResult` back (and, with a
    dict as ``reports``, the per-run
    :class:`~repro.serve.simulator.ServingReport` objects) instead of
    having to scrape stdout.  The orchestrator and tests consume this;
    :func:`main` is the printing wrapper around it.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.serving",
        description="Continuous-batching serving comparison: FP16 vs "
                    "quantized KV caches at an equal HBM budget.")
    parser.add_argument("--gpu", default="rtx4090",
                        help="GPU preset name (rtx4090, a40, a100)")
    parser.add_argument("--modes", nargs="+",
                        default=["fp16", "kv-cq-4", "kv-cq-2"],
                        choices=list(SERVING_MODES), metavar="MODE",
                        help=f"serving modes to compare {SERVING_MODES}")
    parser.add_argument("--trace-kind", default=None, choices=TRACE_KINDS,
                        help="arrival process (shared_prefix/chat carry "
                             "token ids for prefix caching); default "
                             "poisson, or chat under --prefix-caching")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="record a repro.obs run timeline and write "
                             "Chrome/Perfetto trace_event JSON here "
                             "(open at ui.perfetto.dev; summarize with "
                             "python -m repro.obs.report)")
    parser.add_argument("--timeline-out", default=None, metavar="PATH",
                        help="sample windowed time-series telemetry and "
                             "write a Perfetto trace with counter tracks "
                             "here (implies trace recording; dashboard "
                             "via python -m repro.obs.report --dashboard)")
    parser.add_argument("--timeline-window", type=float, default=0.25,
                        metavar="S",
                        help="timeline sampling window in simulated "
                             "seconds (with --timeline-out)")
    parser.add_argument("--slo-ttft-ms", type=float, default=None,
                        metavar="MS",
                        help="per-request TTFT limit for SLO burn-rate "
                             "accounting on the timeline (with "
                             "--timeline-out)")
    parser.add_argument("--rate", type=float, default=16.0,
                        help="offered arrival rate, requests/s")
    parser.add_argument("--requests", type=int, default=64,
                        help="number of requests in the trace")
    parser.add_argument("--prompt-mean", type=int, default=384,
                        help="mean prompt length, tokens")
    parser.add_argument("--output-mean", type=int, default=96,
                        help="mean output length, tokens")
    parser.add_argument("--kv-gb", type=float, default=None,
                        help="KV-cache HBM allowance in GB (default: "
                             "derive from the GPU's DRAM capacity minus "
                             "FP16 weights)")
    parser.add_argument("--token-budget", type=int, default=2048,
                        help="max tokens per scheduler iteration")
    parser.add_argument("--max-seqs", type=int, default=64,
                        help="max concurrently admitted sequences")
    parser.add_argument("--admission", nargs="+", default=["reserve"],
                        choices=list(ADMISSION_POLICIES), metavar="POLICY",
                        help="KV admission policies to run "
                             f"{ADMISSION_POLICIES}; naming more than one "
                             "switches to the reserve-vs-paged comparison "
                             "table")
    parser.add_argument("--block-tokens", type=int, default=16,
                        help="token slots per KV block under paged "
                             "admission")
    parser.add_argument("--prefix-caching", action="store_true",
                        help="share KV blocks across common prompt "
                             "prefixes (switches to the prefix on/off "
                             "comparison table; implies paged admission)")
    parser.add_argument("--sanitize", action="store_true",
                        help="arm allocator invariant checks "
                             "(repro.serve.sanitize); metrics are "
                             "bit-identical either way")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace RNG seed")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-mode report summaries")
    args = parser.parse_args(argv)
    # A prefix comparison on an id-less trace cannot hit: default to
    # the chat workload unless the user picked a trace explicitly.
    trace_kind = args.trace_kind or ("chat" if args.prefix_caching
                                     else "poisson")

    spec = get_spec(args.gpu)
    config = llama_7b()
    engine = ComputeEngine(spec)
    timeline = None
    if args.timeline_out is not None:
        timeline = TimelineConfig(
            window_s=args.timeline_window,
            slo_ttft_s=(args.slo_ttft_ms / 1e3
                        if args.slo_ttft_ms is not None else None))
    workload = dict(
        kv_hbm_gb=args.kv_gb, rate_rps=args.rate, n_requests=args.requests,
        prompt_mean=args.prompt_mean, output_mean=args.output_mean,
        token_budget=args.token_budget, max_seqs=args.max_seqs,
        seed=args.seed,
        block_tokens=args.block_tokens,
        trace=args.trace_out is not None or timeline is not None,
        timeline=timeline,
        sanitize=args.sanitize,
    )
    stats = trace_stats(make_trace(trace_kind, args.rate, args.requests,
                                   args.prompt_mean, args.output_mean,
                                   seed=args.seed))
    print(f"trace: {trace_kind}, {stats['n_requests']} requests, "
          f"{stats['offered_rps']:.1f} req/s offered, "
          f"mean prompt {stats['mean_prompt_tokens']:.0f} / "
          f"output {stats['mean_output_tokens']:.0f} tokens")
    reports = reports if reports is not None else {}
    if args.prefix_caching:
        table = prefix_comparison(spec=spec, config=config, engine=engine,
                                  modes=args.modes, trace_kind=trace_kind,
                                  reports=reports, **workload)
    elif len(args.admission) > 1:
        table = admission_comparison(spec=spec, config=config,
                                     engine=engine, modes=args.modes,
                                     admissions=args.admission,
                                     trace_kind=trace_kind,
                                     reports=reports, **workload)
    else:
        table = serving_comparison(spec=spec, config=config, engine=engine,
                                   modes=args.modes, reports=reports,
                                   trace_kind=trace_kind,
                                   admission=args.admission[0], **workload)
    if args.verbose:
        for rep in reports.values():
            print()
            print(rep.summary())
        print()
    print(table)
    if args.trace_out or args.timeline_out:
        from repro.obs import write_perfetto
        tracers = {key: rep.tracer for key, rep in reports.items()
                   if rep.tracer is not None}
        timelines = {key: rep.timeline for key, rep in reports.items()}
        slos = {key: rep.slo for key, rep in reports.items()}
        for path in filter(None, {args.trace_out, args.timeline_out}):
            write_perfetto(path, tracers, name="bench.serving",
                           timelines=timelines, slo=slos)
            print(f"wrote Perfetto trace: {path} "
                  f"({len(tracers)} runs; open at ui.perfetto.dev or run "
                  f"python -m repro.obs.report {path})")
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.bench.serving``."""
    run(argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
