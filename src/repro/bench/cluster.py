"""Cluster-level experiments: TP scaling and FP16-vs-CQ fleet sizing.

Two questions the single-GPU serving comparison cannot answer:

1. **How does tensor parallelism scale one replica?**
   :func:`tp_scaling` prices a decode iteration at increasing
   ``tp_degree`` over a chosen interconnect: per-shard kernels shrink,
   ring collectives grow, and the crossover depends on the link — the
   NVLink-vs-PCIe contrast is the whole story.

2. **How many GPUs does an SLO cost?**  :func:`fleet_sizing` /
   :func:`fleet_sizing_comparison` grow a fleet of identical replicas
   until the TTFT/TPOT SLO is met at a fixed offered load, at equal
   per-GPU HBM (derived from ``GPUSpec.dram_bytes``).  Because a
   CQ-compressed KV cache admits ~4-8x more concurrent sequences per
   replica, the VQ fleet meets the same SLO with fewer GPUs — the
   fleet-scale form of the paper's headline claim.

Every replica in every fleet shares one :class:`ComputeEngine`, so the
whole sweep evaluates each distinct kernel once.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult
from repro.bench.serving import (
    SERVING_MODES,
    TRACE_KINDS,
    make_cost_model,
    make_kv_budget,
    make_trace,
)
from repro.cluster.fleet import (
    POLICIES,
    SLO,
    FleetReport,
    FleetSimulator,
    Replica,
    size_fleet,
)
from repro.cluster.interconnect import LinkSpec, NVLINK3, PCIE4
from repro.cluster.sharding import TensorParallelPlan
from repro.core.engine import ComputeEngine
from repro.gpu.spec import GPUSpec, RTX4090
from repro.llm.config import LlamaConfig, llama_7b
from repro.serve.api import FleetConfig, SchedulerConfig
from repro.serve.scheduler import KVBudget


def replica_kv_budget(
    config: LlamaConfig,
    mode: str,
    spec: GPUSpec,
    tp_degree: int = 1,
) -> KVBudget:
    """Per-GPU KV budget of one ``tp_degree``-GPU replica at equal
    per-GPU HBM: the spec-derived :func:`make_kv_budget`."""
    return make_kv_budget(config, mode, spec=spec, tp_degree=tp_degree)


def make_replicas(
    n: int,
    mode: str,
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    engine: Optional[ComputeEngine] = None,
    tp_degree: int = 1,
    link: LinkSpec = NVLINK3,
    token_budget: int = 2048,
    max_seqs: int = 128,
    admission: str = "reserve",
    block_tokens: int = 16,
    prefix_caching: bool = False,
    sanitize: bool = False,
) -> list:
    """``n`` identical fresh replicas of one serving mode.

    Each replica is a ``tp_degree``-GPU group (a single GPU by
    default).  The cost model and budget template are shared — both
    are read-only — while every replica gets its own scheduler.
    ``admission="paged"`` gives each replica a paged block pool
    (``block_tokens``-token blocks) with recompute preemption, and the
    ``least-kv`` router then balances on observed block usage instead
    of worst-case reservations.  ``prefix_caching=True`` gives each
    replica its own radix prefix tree — per-replica state, which is
    exactly why routing policy matters: the ``prefix-affinity`` router
    keeps a session's turns on the replica whose tree knows them.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    budget = replica_kv_budget(config, mode, spec, tp_degree)
    cost = make_cost_model(engine, config, mode,
                           TensorParallelPlan(config, tp_degree, link))
    sched_config = SchedulerConfig(token_budget=token_budget,
                                   max_seqs=max_seqs,
                                   admission=admission,
                                   block_tokens=block_tokens,
                                   prefix_caching=prefix_caching,
                                   sanitize=sanitize)
    return [Replica(i, sched_config.build(budget), cost) for i in range(n)]


def tp_scaling(
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    mode: str = "fp16",
    degrees: Sequence[int] = (1, 2, 4, 8),
    links: Sequence[LinkSpec] = (NVLINK3, PCIE4),
    batch: int = 16,
    context_tokens: int = 1024,
    engine: Optional[ComputeEngine] = None,
) -> ExperimentResult:
    """Decode-iteration latency vs tensor-parallel degree per link.

    Each cell is one exact (unbucketed) decode step at ``batch`` and
    ``context_tokens``; step and collective time come from the same
    :meth:`~repro.serve.costs.StepCostModel.decode_breakdown`.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    result = ExperimentResult(
        experiment_id="tp_scaling",
        title=f"Tensor-parallel decode scaling on {spec.name} "
              f"({config.name}, {mode}, batch {batch}, "
              f"context {context_tokens})",
        columns=("link", "tp", "step_us", "collective_us",
                 "collective_share", "speedup_vs_tp1"),
    )

    def breakdown(tp: int, link: LinkSpec):
        cost = make_cost_model(engine, config, mode,
                               TensorParallelPlan(config, tp, link))
        return cost.decode_breakdown(batch, context_tokens)

    for link in links:
        # Anchor the speedup column to an explicit tp=1 evaluation so
        # sweeps that start above 1 (degrees=(2, 4, 8)) stay honest.
        base_us = breakdown(1, link).total_us
        for tp in degrees:
            step = breakdown(tp, link)
            result.add_row(link.name, tp, step.total_us, step.collective_us,
                           step.collective_us / step.total_us,
                           base_us / step.total_us)
    return result


def fleet_sizing(
    mode: str,
    trace,
    slo: SLO,
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    engine: Optional[ComputeEngine] = None,
    policy: str = "least-kv",
    max_replicas: int = 8,
    record_trace: bool = False,
    timeline=None,
    **replica_kwargs,
) -> Tuple[Optional[int], FleetReport]:
    """Smallest fleet of one mode meeting the SLO on a shared trace.

    ``record_trace=True`` turns on :mod:`repro.obs` timeline recording
    for each candidate fleet (the returned report carries the tracer
    of the winning run); ``timeline=`` threads a
    :class:`~repro.obs.timeline.TimelineConfig` through every run.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)

    def factory(n: int):
        return make_replicas(n, mode, spec=spec, config=config,
                             engine=engine, **replica_kwargs)

    return size_fleet(factory, trace, slo, policy=policy,
                      max_replicas=max_replicas, record_trace=record_trace,
                      timeline=timeline)


def fleet_sizing_comparison(
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    modes: Sequence[str] = ("fp16", "kv-cq-4"),
    rate_rps: float = 24.0,
    n_requests: int = 96,
    prompt_mean: int = 1024,
    output_mean: int = 96,
    trace_kind: str = "poisson",
    seed: int = 0,
    slo: SLO = SLO(ttft_s=2.0),
    policy: str = "least-kv",
    max_replicas: int = 8,
    tp_degree: int = 1,
    engine: Optional[ComputeEngine] = None,
    reports: Optional[Dict[str, Tuple[Optional[int], FleetReport]]] = None,
    trace: bool = False,
    timeline=None,
    **replica_kwargs,
) -> ExperimentResult:
    """Headline comparison: GPUs each mode needs to meet the SLO.

    All modes face the *same* trace and the same per-GPU HBM; the table
    reports the smallest compliant fleet per mode ("-" when even
    ``max_replicas`` replicas miss).  Pass a dict as ``reports`` to
    also receive each mode's ``(size, FleetReport)``.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    shared_trace = make_trace(trace_kind, rate_rps, n_requests,
                              prompt_mean, output_mean, seed=seed)
    result = ExperimentResult(
        experiment_id="fleet_sizing",
        title=f"Fleet sizing on {spec.name} ({config.name}, "
              f"{rate_rps:.0f} req/s offered, TTFT p{slo.quantile:.0f} "
              f"<= {slo.ttft_s:.1f} s, equal per-GPU HBM)",
        columns=("mode", "replicas", "gpus", "goodput_rps",
                 "ttft_p95_ms", "tpot_p50_ms", "attainment"),
    )
    sizes: Dict[str, Optional[int]] = {}
    for mode in modes:
        n, report = fleet_sizing(mode, shared_trace, slo, spec=spec,
                                 config=config, engine=engine, policy=policy,
                                 max_replicas=max_replicas,
                                 tp_degree=tp_degree, record_trace=trace,
                                 timeline=timeline, **replica_kwargs)
        sizes[mode] = n
        if reports is not None:
            reports[mode] = (n, report)
        result.add_row(mode, n if n is not None else "-",
                       n * tp_degree if n is not None else "-",
                       report.goodput_rps(slo),
                       report.ttft_s(95) * 1e3, report.tpot_s(50) * 1e3,
                       report.slo_attainment(slo))
    base = sizes.get("fp16")
    for mode, n in sizes.items():
        if mode != "fp16" and base is not None and n is not None and n < base:
            result.notes.append(
                f"{mode} meets the SLO with {base - n} fewer "
                f"replica(s) than fp16 ({n} vs {base}) at equal "
                "per-GPU HBM")
    return result


def routing_comparison(
    mode: str = "kv-cq-4",
    n_replicas: int = 3,
    policies: Sequence[str] = ("round-robin", "jsq", "prefix-affinity"),
    spec: GPUSpec = RTX4090,
    config: Optional[LlamaConfig] = None,
    rate_rps: float = 12.0,
    n_requests: int = 64,
    prompt_mean: int = 256,
    output_mean: int = 64,
    trace_kind: str = "chat",
    seed: int = 0,
    engine: Optional[ComputeEngine] = None,
    reports: Optional[Dict[str, FleetReport]] = None,
    trace: bool = False,
    timeline=None,
    **replica_kwargs,
) -> ExperimentResult:
    """Routing policies on one sessionized trace with prefix caching.

    Prefix trees are per-replica state, so the router decides the
    fleet-wide hit rate: ``prefix-affinity`` pins every turn of a chat
    session to the replica whose tree already holds its history, while
    load-based policies scatter the turns and each replica re-prefills
    the same prefix.  Replicas run ``admission="paged"`` with
    ``prefix_caching=True``; pass a dict as ``reports`` to receive the
    per-policy :class:`~repro.cluster.fleet.FleetReport`.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    shared_trace = make_trace(trace_kind, rate_rps, n_requests,
                              prompt_mean, output_mean, seed=seed)
    result = ExperimentResult(
        experiment_id="fleet_routing",
        title=f"Routing x prefix caching on {spec.name} ({config.name}, "
              f"{n_replicas} replicas, {trace_kind} trace, {mode})",
        columns=("policy", "req/s", "ttft_p50_ms", "ttft_p95_ms",
                 "hit_rate", "cached_frac", "preemptions"),
    )
    reports = reports if reports is not None else {}
    for policy in policies:
        replicas = make_replicas(n_replicas, mode, spec=spec, config=config,
                                 engine=engine, admission="paged",
                                 prefix_caching=True, **replica_kwargs)
        rep = FleetSimulator(replicas,
                             config=FleetConfig(
                                 policy=policy,
                                 name=f"{mode}/{policy}",
                                 trace=trace,
                                 timeline=timeline)).run(shared_trace)
        reports[policy] = rep
        result.add_row(policy, rep.throughput_rps, rep.ttft_s(50) * 1e3,
                       rep.ttft_s(95) * 1e3, rep.prefix_hit_rate,
                       rep.cached_token_fraction, rep.n_preempted)
    if "prefix-affinity" in reports:
        aff = reports["prefix-affinity"]
        for policy, rep in reports.items():
            if policy != "prefix-affinity":
                result.notes.append(
                    f"prefix-affinity caches "
                    f"{aff.cached_token_fraction:.0%} of prompt tokens "
                    f"vs {rep.cached_token_fraction:.0%} under {policy}")
    return result


def run(argv: Optional[Sequence[str]] = None,
        reports: Optional[dict] = None) -> ExperimentResult:
    """Run the CLI experiment and return the structured result.

    Same argument surface as the ``python -m repro.bench.cluster``
    command line, but the caller gets the
    :class:`~repro.bench.harness.ExperimentResult` back (and, with a
    dict as ``reports``, the per-run
    :class:`~repro.cluster.fleet.FleetReport` values — ``(size,
    report)`` tuples for sizing) instead of scraping stdout.  The
    orchestrator and tests consume this; :func:`main` is the printing
    wrapper around it.
    """
    import argparse

    from repro.gpu.spec import get_spec
    from repro.serve.scheduler import ADMISSION_POLICIES

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cluster",
        description="Cluster-level experiments: fleet sizing, routing "
                    "policies and TP scaling over the serving simulator.")
    parser.add_argument("--experiment", default="sizing",
                        choices=("sizing", "routing", "tp"),
                        help="which table to produce: SLO fleet sizing, "
                             "routing-policy comparison, or TP scaling")
    parser.add_argument("--gpu", default="rtx4090",
                        help="GPU preset name (rtx4090, a40, a100)")
    parser.add_argument("--modes", nargs="+", default=["fp16", "kv-cq-4"],
                        choices=list(SERVING_MODES), metavar="MODE",
                        help=f"serving modes to compare {SERVING_MODES} "
                             "(routing/tp use the first)")
    parser.add_argument("--trace-kind", default=None, choices=TRACE_KINDS,
                        help="arrival process (shared_prefix/chat carry "
                             "token ids for prefix caching); default "
                             "poisson, or chat when prefix caching is "
                             "in play (--experiment routing / "
                             "--prefix-caching)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="record a repro.obs run timeline and write "
                             "Chrome/Perfetto trace_event JSON here "
                             "(open at ui.perfetto.dev; summarize with "
                             "python -m repro.obs.report; ignored by "
                             "--experiment tp, which runs no simulation)")
    parser.add_argument("--timeline-out", default=None, metavar="PATH",
                        help="sample windowed per-replica telemetry and "
                             "write a Perfetto trace with counter tracks "
                             "here (implies trace recording; dashboard "
                             "via python -m repro.obs.report --dashboard; "
                             "ignored by --experiment tp)")
    parser.add_argument("--timeline-window", type=float, default=0.25,
                        metavar="S",
                        help="timeline sampling window in simulated "
                             "seconds (with --timeline-out)")
    parser.add_argument("--slo-ttft-ms", type=float, default=None,
                        metavar="MS",
                        help="per-request TTFT limit for SLO burn-rate "
                             "accounting on the timeline (with "
                             "--timeline-out)")
    parser.add_argument("--rate", type=float, default=24.0,
                        help="offered arrival rate, requests/s")
    parser.add_argument("--requests", type=int, default=96,
                        help="number of requests in the trace")
    parser.add_argument("--prompt-mean", type=int, default=1024,
                        help="mean prompt length, tokens (the decode "
                             "context of --experiment tp)")
    parser.add_argument("--output-mean", type=int, default=96,
                        help="mean output length, tokens")
    parser.add_argument("--policy", nargs="+", default=None,
                        choices=sorted(POLICIES), metavar="POLICY",
                        help="routing policies (sizing uses the first; "
                             f"known: {sorted(POLICIES)})")
    parser.add_argument("--replicas", type=int, default=3,
                        help="fleet size for --experiment routing "
                             "(sizing grows up to --max-replicas)")
    parser.add_argument("--max-replicas", type=int, default=8,
                        help="largest fleet sizing will try")
    parser.add_argument("--slo-ttft", type=float, default=2.0,
                        help="TTFT SLO limit in seconds (sizing)")
    parser.add_argument("--tp", nargs="+", type=int, default=[1, 2, 4, 8],
                        help="tensor-parallel degrees (tp experiment)")
    parser.add_argument("--admission", default="reserve",
                        choices=list(ADMISSION_POLICIES),
                        help="per-replica KV admission policy (routing "
                             "always runs paged)")
    parser.add_argument("--block-tokens", type=int, default=16,
                        help="token slots per KV block under paged "
                             "admission")
    parser.add_argument("--prefix-caching", action="store_true",
                        help="enable per-replica prefix caching under "
                             "sizing (routing always enables it)")
    parser.add_argument("--sanitize", action="store_true",
                        help="arm allocator invariant checks "
                             "(repro.serve.sanitize); metrics are "
                             "bit-identical either way")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace RNG seed")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-run report summaries")
    args = parser.parse_args(argv)
    # Prefix caching (routing always; sizing under --prefix-caching)
    # needs an id-carrying trace to show anything: default to chat
    # unless the user picked a trace explicitly.
    prefix_in_play = args.experiment == "routing" or args.prefix_caching
    trace_kind = args.trace_kind or ("chat" if prefix_in_play else "poisson")
    # Prefix caching rides on paged blocks; honor the flag rather than
    # crashing on the reserve default.
    admission = "paged" if args.prefix_caching else args.admission

    spec = get_spec(args.gpu)
    config = llama_7b()
    engine = ComputeEngine(spec)
    timeline = None
    if args.timeline_out is not None:
        from repro.obs.timeline import TimelineConfig
        timeline = TimelineConfig(
            window_s=args.timeline_window,
            slo_ttft_s=(args.slo_ttft_ms / 1e3
                        if args.slo_ttft_ms is not None else None))
    record = args.trace_out is not None or timeline is not None
    reports = reports if reports is not None else {}
    if args.experiment == "tp":
        table = tp_scaling(spec=spec, config=config, mode=args.modes[0],
                           degrees=tuple(args.tp),
                           context_tokens=args.prompt_mean, engine=engine)
    elif args.experiment == "routing":
        table = routing_comparison(
            mode=args.modes[0], n_replicas=args.replicas,
            policies=tuple(args.policy
                           or ("round-robin", "jsq", "prefix-affinity")),
            spec=spec, config=config, rate_rps=args.rate,
            n_requests=args.requests, prompt_mean=args.prompt_mean,
            output_mean=args.output_mean, trace_kind=trace_kind,
            seed=args.seed, engine=engine,
            block_tokens=args.block_tokens, reports=reports,
            trace=record, timeline=timeline, sanitize=args.sanitize)
    else:
        table = fleet_sizing_comparison(
            spec=spec, config=config, modes=args.modes,
            rate_rps=args.rate, n_requests=args.requests,
            prompt_mean=args.prompt_mean, output_mean=args.output_mean,
            trace_kind=trace_kind, seed=args.seed,
            slo=SLO(ttft_s=args.slo_ttft),
            policy=(args.policy[0] if args.policy else "least-kv"),
            max_replicas=args.max_replicas, engine=engine,
            admission=admission, block_tokens=args.block_tokens,
            prefix_caching=args.prefix_caching, reports=reports,
            trace=record, timeline=timeline, sanitize=args.sanitize)
    if args.verbose:
        for value in reports.values():
            rep = value[1] if isinstance(value, tuple) else value
            print()
            print(rep.summary())
        print()
    print(table)
    if args.trace_out or args.timeline_out:
        if args.experiment == "tp":
            print("--trace-out/--timeline-out ignored: --experiment tp "
                  "prices kernels analytically and runs no simulation")
        else:
            from repro.obs import write_perfetto
            tracers, timelines, slos = {}, {}, {}
            for key, value in reports.items():
                rep = value[1] if isinstance(value, tuple) else value
                if getattr(rep, "tracer", None) is not None:
                    tracers[str(key)] = rep.tracer
                    timelines[str(key)] = getattr(rep, "timeline", None)
                    slos[str(key)] = getattr(rep, "slo", None)
            for path in filter(None, {args.trace_out, args.timeline_out}):
                write_perfetto(path, tracers, name="bench.cluster",
                               timelines=timelines, slo=slos)
                print(f"wrote Perfetto trace: {path} "
                      f"({len(tracers)} runs; open at ui.perfetto.dev or "
                      f"run python -m repro.obs.report {path})")
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.bench.cluster``."""
    run(argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
