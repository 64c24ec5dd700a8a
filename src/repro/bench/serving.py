"""Serving-level experiment: FP16 vs quantized KV caches at equal HBM.

This wires the kernel-level reproduction into :mod:`repro.serve`: the
serving modes are simulated under continuous batching with a *fixed*
HBM allowance for the KV cache.  :data:`MODE_FORMATS` is the one map
from a mode name to its weight and KV formats; the Fig. 17 ledger
(:mod:`repro.bench.e2e`) prices the same :data:`MODES` through
:func:`make_cost_model`.  Compression changes two things at once:

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

from repro.bench.harness import ExperimentResult
from repro.bench.workloads import attention_sample, weight_sample
from repro.cluster.sharding import TensorParallelPlan
from repro.core.engine import ComputeEngine
from repro.gpu.spec import GPUSpec, RTX4090, get_spec
from repro.llm.config import LlamaConfig, llama_7b
from repro.obs.slo import SLO
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


#: Every serving mode's (weight format, KV-cache format): ``None`` is
#: FP16, an int is element-wise INT-``n`` (qServe), and a name is a VQ
#: algorithm (:func:`repro.vq.algorithms.make_config`).
MODE_FORMATS = {
    "fp16": (None, None),
    "qserve": (4, 4),
    "vq4": ("quip#-4", "cq-4"),
    "vq2": ("gptvq-2", "cq-2"),
    "kv-cq-4": (None, "cq-4"),
    "kv-cq-2": (None, "cq-2"),
}

#: All serving modes this experiment understands.
SERVING_MODES = tuple(MODE_FORMATS)

#: Full-stack serving modes (Fig. 17): weights and KV quantized alike.
MODES = ("fp16", "qserve", "vq4", "vq2")

#: Arrival processes :func:`make_trace` understands.  The session-aware
#: kinds (``shared_prefix``, ``chat``) synthesize token ids, so they
#: are the ones prefix caching can act on.
TRACE_KINDS = ("poisson", "bursty", "shared_prefix", "chat")


def _mode_formats(mode: str) -> tuple:
    if mode not in MODE_FORMATS:
        raise ValueError(f"unknown mode {mode!r}; "
                         f"expected one of {SERVING_MODES}")
    return MODE_FORMATS[mode]


def _format_kwargs(fmt, bits_key: str, vq_key: str, resolve) -> dict:
    """A format as ``{bits_key: n}``, ``{vq_key: resolve(name)}`` or ``{}``."""
    if fmt is None:
        return {}
    if isinstance(fmt, int):
        return {bits_key: fmt}
    return {vq_key: resolve(fmt)}


def make_kv_budget(config: LlamaConfig, mode: str,
                   capacity_bytes: Optional[float] = None,
                   spec: Optional[GPUSpec] = None,
                   tp_degree: int = 1) -> KVBudget:
    """KV budget for one serving mode.

    With ``capacity_bytes`` the allowance is explicit; with ``spec``
    it is one GPU's share of a ``tp_degree``-GPU replica after the
    reserve, the mode's own weights and the codebooks
    (:meth:`~repro.serve.scheduler.KVBudget.for_gpu`).
    """
    weights, kv = _mode_formats(mode)
    kv_scheme = _format_kwargs(kv, "bits", "vq", make_config)
    if capacity_bytes is not None:
        if tp_degree != 1:
            raise ValueError("tp_degree applies to a spec-derived budget")
        return KVBudget.for_model(config, capacity_bytes, **kv_scheme)
    if spec is None:
        raise ValueError("pass capacity_bytes or a GPUSpec")
    return KVBudget.for_gpu(config, spec, tp_degree=tp_degree, **kv_scheme,
                            **_format_kwargs(weights, "weight_bits",
                                             "weight_vq", make_config))


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

    :func:`make_cost_model` passes them on; calling this alone loads
    (and caches) the mode's sample tensors without building a model.
    """
    weights, kv = _mode_formats(mode)
    return {**_format_kwargs(weights, "weight_bits", "weight_qt",
                             weight_sample),
            **_format_kwargs(kv, "kv_bits", "kv_qt", attention_sample)}


def make_cost_model(engine: ComputeEngine, config: LlamaConfig, mode: str,
                    plan: Optional[TensorParallelPlan] = None
                    ) -> StepCostModel:
    """Step cost model for one serving mode, using the sample tensors,
    on the tensor-parallel group ``plan`` (``None`` is one GPU)."""
    return StepCostModel(engine, config, plan=plan, **mode_cost_kwargs(mode))


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
    DRAM capacity (minus the mode's own weights and a reserve) instead
    of a fixed byte count.  ``admission`` selects worst-case reservations
    (``"reserve"``) or paged block allocation with recompute preemption
    (``"paged"``, pool carved into ``block_tokens``-token blocks).
    ``prefix_caching=True`` (paged only) shares KV blocks across
    common prompt prefixes; pair it with an id-carrying trace kind
    (``shared_prefix`` / ``chat``) or every lookup misses.
    ``trace=True`` records a :mod:`repro.obs` timeline on the returned
    report's ``tracer`` (metrics are bit-identical either way).
    ``timeline=TimelineConfig(...)`` additionally samples windowed
    time-series telemetry (and, with an SLO set, burn-rate alerts)
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
    """Compare serving modes at equal HBM: one explicit KV budget, or
    (``kv_hbm_gb=None``) one GPU shared with each mode's own weights.

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
              f"({config.name}, equal HBM budget)",
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
                    f"the FP16 request throughput at equal HBM")
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
    """Reserve vs paged admission per compression mode, equal HBM.

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
              f"({config.name}, equal HBM budget)",
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
              f"{trace_kind} trace, equal HBM budget)",
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


def add_workload_options(parser: argparse.ArgumentParser, *,
                         modes: Sequence[str], rate: float, requests: int,
                         prompt_mean: int) -> None:
    """Declare the options both bench CLIs share, up to
    ``--output-mean``: GPU, modes, trace, recording and load.  Each CLI
    passes its own defaults for the four that differ."""
    parser.add_argument("--gpu", default="rtx4090",
                        help="GPU preset name (rtx4090, a40, a100)")
    parser.add_argument("--modes", nargs="+", default=list(modes),
                        choices=list(SERVING_MODES), metavar="MODE",
                        help=f"serving modes to compare {SERVING_MODES}")
    parser.add_argument("--trace-kind", default=None, choices=TRACE_KINDS,
                        help="arrival process (shared_prefix/chat carry "
                             "token ids for prefix caching); default "
                             "poisson, or chat when prefix caching is "
                             "in play")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="record a repro.obs run timeline and write "
                             "Chrome/Perfetto trace_event JSON here "
                             "(open at ui.perfetto.dev; summarize with "
                             "python -m repro.obs.report)")
    parser.add_argument("--timeline-out", default=None, metavar="PATH",
                        help="sample windowed per-engine telemetry and "
                             "write a Perfetto trace with counter tracks "
                             "here (implies trace recording; dashboard "
                             "via python -m repro.obs.report --dashboard)")
    parser.add_argument("--timeline-window", type=float, default=0.25,
                        metavar="S",
                        help="timeline sampling window in simulated "
                             "seconds (with --timeline-out)")
    parser.add_argument("--slo-ttft-ms", type=float, default=None,
                        metavar="MS",
                        help="per-request TTFT SLO: the timeline's "
                             "burn-rate objective (with --timeline-out) "
                             "and the TTFT-p95 limit of fleet sizing "
                             "(2000 there when unset)")
    parser.add_argument("--rate", type=float, default=rate,
                        help="offered arrival rate, requests/s")
    parser.add_argument("--requests", type=int, default=requests,
                        help="number of requests in the trace")
    parser.add_argument("--prompt-mean", type=int, default=prompt_mean,
                        help="mean prompt length, tokens")
    parser.add_argument("--output-mean", type=int, default=96,
                        help="mean output length, tokens")


def add_run_options(parser: argparse.ArgumentParser) -> None:
    """Declare the options both bench CLIs share after their own:
    paging, prefix caching, sanitizer, seed and verbosity."""
    parser.add_argument("--block-tokens", type=int, default=16,
                        help="token slots per KV block under paged "
                             "admission")
    parser.add_argument("--prefix-caching", action="store_true",
                        help="share KV blocks across common prompt "
                             "prefixes (implies paged admission)")
    parser.add_argument("--sanitize", action="store_true",
                        help="arm allocator invariant checks "
                             "(repro.serve.sanitize); metrics are "
                             "bit-identical either way")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace RNG seed")
    parser.add_argument("--verbose", action="store_true",
                        help="print per-run report summaries")


def cli_slo(args: argparse.Namespace) -> Optional[SLO]:
    """The objective ``--slo-ttft-ms`` sets, or ``None`` when unset."""
    if args.slo_ttft_ms is None:
        return None
    return SLO(ttft_s=args.slo_ttft_ms / 1e3)


def recording(args: argparse.Namespace) -> dict:
    """The ``trace``/``timeline`` keyword arguments that the
    ``--trace-out``/``--timeline-out`` flags ask of every run."""
    timeline = None
    if args.timeline_out is not None:
        timeline = TimelineConfig(window_s=args.timeline_window,
                                  slo=cli_slo(args))
    return {"trace": args.trace_out is not None or timeline is not None,
            "timeline": timeline}


def print_results(args: argparse.Namespace, table: ExperimentResult,
                  reports: dict, name: str, write: bool = True) -> None:
    """The bench CLIs' epilogue: the ``--verbose`` report summaries,
    the table, then (with ``write``) every recorded run in one Perfetto
    file per ``--trace-out``/``--timeline-out`` path.

    ``reports`` values are reports or, from fleet sizing, ``(size,
    report)`` pairs.
    """
    runs = {key: value[1] if isinstance(value, tuple) else value
            for key, value in reports.items()}
    if args.verbose:
        for rep in runs.values():
            print()
            print(rep.summary())
        print()
    print(table)
    # In flag order, once each: both flags may name the same file.
    paths = dict.fromkeys(filter(None, (args.trace_out, args.timeline_out)))
    if not (write and paths):
        return
    from repro.obs import write_perfetto
    tracers = {key: rep.tracer for key, rep in runs.items()
               if rep.tracer is not None}
    for path in paths:
        write_perfetto(path, tracers, name=name,
                       timelines={key: runs[key].timeline for key in tracers},
                       slo={key: runs[key].slo for key in tracers})
        print(f"wrote Perfetto trace: {path} "
              f"({len(tracers)} runs; open at ui.perfetto.dev or run "
              f"python -m repro.obs.report {path})")


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
                    "quantized KV caches at an equal HBM budget.  "
                    "--prefix-caching switches to the prefix on/off "
                    "comparison table.")
    add_workload_options(parser, modes=("fp16", "kv-cq-4", "kv-cq-2"),
                         rate=16.0, requests=64, prompt_mean=384)
    parser.add_argument("--kv-gb", type=float, default=None,
                        help="KV-cache HBM allowance in GB (default: "
                             "derive from the GPU's DRAM capacity minus "
                             "the mode's own weights)")
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
    add_run_options(parser)
    args = parser.parse_args(argv)
    # A prefix comparison on an id-less trace cannot hit: default to
    # the chat workload unless the user picked a trace explicitly.
    trace_kind = args.trace_kind or ("chat" if args.prefix_caching
                                     else "poisson")

    spec = get_spec(args.gpu)
    config = llama_7b()
    engine = ComputeEngine(spec)
    workload = dict(
        kv_hbm_gb=args.kv_gb, rate_rps=args.rate, n_requests=args.requests,
        prompt_mean=args.prompt_mean, output_mean=args.output_mean,
        token_budget=args.token_budget, max_seqs=args.max_seqs,
        seed=args.seed,
        block_tokens=args.block_tokens,
        sanitize=args.sanitize,
        **recording(args),
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
    print_results(args, table, reports, "bench.serving")
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.bench.serving``."""
    run(argv)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
