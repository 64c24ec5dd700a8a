"""Cluster-level experiments: TP scaling and FP16-vs-CQ fleet sizing.

Two questions the single-GPU serving comparison cannot answer:

1. **How does tensor parallelism scale one replica?**
   :func:`tp_scaling` prices a decode iteration at increasing
   ``tp_degree`` over a chosen interconnect: per-shard kernels shrink,
   ring collectives grow, and the crossover depends on the link — the
   NVLink-vs-PCIe contrast is the whole story.

2. **How many GPUs does an SLO cost?**  :func:`fleet_sizing_comparison`
   grows each mode's fleet of identical replicas
   (:func:`~repro.cluster.fleet.size_fleet`) until the TTFT-p95 SLO
   (:class:`repro.obs.slo.SLO`) is met at a fixed offered load, at
   equal per-GPU HBM (derived from ``GPUSpec.dram_bytes``).  Because
   a CQ-compressed KV cache admits ~4-8x more concurrent sequences per
   replica, the VQ fleet meets the same SLO with fewer GPUs — the
   fleet-scale form of the paper's headline claim.

Every fleet comes from :meth:`~repro.serve.api.FleetConfig.build`, and
every replica in every fleet shares one :class:`ComputeEngine`, so the
whole sweep evaluates each distinct kernel once.  On the command line
``--slo-ttft-ms`` sets one objective for sizing and for the timeline's
burn-rate alerts; sizing holds the fleet to 2,000 ms when it is unset.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult
from repro.bench.serving import (
    add_run_options,
    add_workload_options,
    cli_slo,
    make_cost_model,
    make_kv_budget,
    make_trace,
    print_results,
    recording,
)
from repro.cluster.fleet import POLICIES, FleetReport, size_fleet
from repro.cluster.interconnect import LinkSpec, NVLINK3, PCIE4
from repro.cluster.sharding import TensorParallelPlan
from repro.core.engine import ComputeEngine
from repro.gpu.spec import GPUSpec, RTX4090, get_spec
from repro.llm.config import LlamaConfig, llama_7b
from repro.obs.slo import SLO
from repro.serve.api import FleetConfig
from repro.serve.scheduler import ADMISSION_POLICIES, KVBudget

#: The sizing objective when none is given: first token within 2 s.
SIZING_SLO = SLO(ttft_s=2.0)


def replica_kv_budget(
    config: LlamaConfig,
    mode: str,
    spec: GPUSpec,
    tp_degree: int = 1,
) -> KVBudget:
    """Per-GPU KV budget of one ``tp_degree``-GPU replica at equal
    per-GPU HBM: the spec-derived :func:`make_kv_budget`."""
    return make_kv_budget(config, mode, spec=spec, tp_degree=tp_degree)


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
    slo: SLO = SIZING_SLO,
    policy: str = "least-kv",
    max_replicas: int = 8,
    tp_degree: int = 1,
    engine: Optional[ComputeEngine] = None,
    reports: Optional[Dict[str, Tuple[Optional[int], FleetReport]]] = None,
    trace: bool = False,
    timeline=None,
    **scheduler_kwargs,
) -> ExperimentResult:
    """Headline comparison: GPUs each mode needs to meet the SLO.

    All modes face the *same* trace and the same per-GPU HBM; the table
    reports the smallest compliant fleet per mode ("-" when even
    ``max_replicas`` replicas miss).  Each replica is a
    ``tp_degree``-GPU group over NVLink 3.  Extra keyword arguments
    replace fields of :class:`~repro.serve.api.FleetConfig`'s default
    scheduler (``max_seqs=128``); ``trace=True`` and ``timeline=``
    record each mode's returned size (the search itself runs
    unrecorded).  Pass a dict as ``reports`` to also receive each
    mode's ``(size, FleetReport)``.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    shared_trace = make_trace(trace_kind, rate_rps, n_requests,
                              prompt_mean, output_mean, seed=seed)
    fleet = FleetConfig(
        scheduler=replace(FleetConfig().scheduler, **scheduler_kwargs),
        policy=policy, trace=trace, timeline=timeline)
    plan = TensorParallelPlan(config, tp_degree, NVLINK3)
    result = ExperimentResult(
        experiment_id="fleet_sizing",
        title=f"Fleet sizing on {spec.name} ({config.name}, "
              f"{rate_rps:.0f} req/s offered, TTFT p{SLO.QUANTILE:.0f} "
              f"<= {slo.ttft_s:.1f} s, equal per-GPU HBM)",
        columns=("mode", "replicas", "gpus", "goodput_rps",
                 "ttft_p95_ms", "tpot_p50_ms", "attainment"),
    )
    sizes: Dict[str, Optional[int]] = {}
    for mode in modes:
        n, report = size_fleet(
            fleet, replica_kv_budget(config, mode, spec, tp_degree),
            make_cost_model(engine, config, mode, plan), shared_trace, slo,
            max_replicas)
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
    **scheduler_kwargs,
) -> ExperimentResult:
    """Routing policies on one sessionized trace with prefix caching.

    Prefix trees are per-replica state, so the router decides the
    fleet-wide hit rate: ``prefix-affinity`` pins every turn of a chat
    session to the replica whose tree already holds its history, while
    load-based policies scatter the turns and each replica re-prefills
    the same prefix.  Replicas run ``admission="paged"`` with
    ``prefix_caching=True``; extra keyword arguments replace further
    fields of :class:`~repro.serve.api.FleetConfig`'s default
    scheduler.  Pass a dict as ``reports`` to receive the per-policy
    :class:`~repro.cluster.fleet.FleetReport`.
    """
    config = config or llama_7b()
    engine = engine or ComputeEngine(spec)
    shared_trace = make_trace(trace_kind, rate_rps, n_requests,
                              prompt_mean, output_mean, seed=seed)
    fleet = FleetConfig(
        scheduler=replace(FleetConfig().scheduler, admission="paged",
                          prefix_caching=True, **scheduler_kwargs),
        trace=trace, timeline=timeline)
    budget = replica_kv_budget(config, mode, spec)
    cost_model = make_cost_model(engine, config, mode)
    result = ExperimentResult(
        experiment_id="fleet_routing",
        title=f"Routing x prefix caching on {spec.name} ({config.name}, "
              f"{n_replicas} replicas, {trace_kind} trace, {mode})",
        columns=("policy", "req/s", "ttft_p50_ms", "ttft_p95_ms",
                 "hit_rate", "cached_frac", "preemptions"),
    )
    reports = reports if reports is not None else {}
    for policy in policies:
        rep = replace(fleet, policy=policy).build(
            n_replicas, budget, cost_model,
            name=f"{mode}/{policy}").run(shared_trace)
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
    wrapper around it.  The options shared with the serving CLI are
    declared in :mod:`repro.bench.serving`.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.cluster",
        description="Cluster-level experiments: fleet sizing, routing "
                    "policies and TP scaling over the serving simulator.  "
                    "Routing and TP use the first --modes entry; "
                    "routing always runs paged with prefix caching, and "
                    "TP runs no simulation, so it ignores --trace-out "
                    "and --timeline-out.")
    parser.add_argument("--experiment", default="sizing",
                        choices=("sizing", "routing", "tp"),
                        help="which table to produce: SLO fleet sizing, "
                             "routing-policy comparison, or TP scaling")
    add_workload_options(parser, modes=("fp16", "kv-cq-4"), rate=24.0,
                         requests=96, prompt_mean=1024)
    parser.add_argument("--policy", nargs="+", default=None,
                        choices=sorted(POLICIES), metavar="POLICY",
                        help="routing policies (sizing uses the first; "
                             f"known: {sorted(POLICIES)})")
    parser.add_argument("--replicas", type=int, default=3,
                        help="fleet size for --experiment routing "
                             "(sizing grows up to --max-replicas)")
    parser.add_argument("--max-replicas", type=int, default=8,
                        help="largest fleet sizing will try")
    parser.add_argument("--tp", nargs="+", type=int, default=[1, 2, 4, 8],
                        help="tensor-parallel degrees (tp experiment, "
                             "priced at --prompt-mean tokens of context)")
    parser.add_argument("--admission", default="reserve",
                        choices=list(ADMISSION_POLICIES),
                        help="per-replica KV admission policy (routing "
                             "always runs paged)")
    add_run_options(parser)
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
    reports = reports if reports is not None else {}
    is_tp = args.experiment == "tp"
    if is_tp:
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
            sanitize=args.sanitize, **recording(args))
    else:
        table = fleet_sizing_comparison(
            spec=spec, config=config, modes=args.modes,
            rate_rps=args.rate, n_requests=args.requests,
            prompt_mean=args.prompt_mean, output_mean=args.output_mean,
            trace_kind=trace_kind, seed=args.seed,
            slo=cli_slo(args) or SIZING_SLO,
            policy=(args.policy[0] if args.policy else "least-kv"),
            max_replicas=args.max_replicas, engine=engine,
            admission=admission, block_tokens=args.block_tokens,
            prefix_caching=args.prefix_caching, reports=reports,
            sanitize=args.sanitize, **recording(args))
    print_results(args, table, reports, "bench.cluster", write=not is_tp)
    if is_tp and (args.trace_out or args.timeline_out):
        print("--trace-out/--timeline-out ignored: --experiment tp "
              "prices kernels analytically and runs no simulation")
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.bench.cluster``."""
    run(argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
