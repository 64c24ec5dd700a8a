"""The three workloads: what each sets up, runs per pass, and checks.

Every workload is an open-loop trace in *simulated* time; on the host
it is a batch job.  A workload's constructor takes the seed, builds the
inputs (the program only ever receives the generated trace or trial
spec) and warms whatever a long-lived user process would have warm;
``run_pass(capture)`` is the timed work; :func:`verify` checks each
simulation's modeled output afterwards.

- ``sweep-cold`` — the orchestrator's ``demo`` grid (9 chat trials via
  ``run_trial``) plus paged ``vq4``/``vq2`` trials on the same settings.
  Every trial builds a fresh ``ComputeEngine``, so each pass costs the
  GEMM, GEMV and attention fused-kernel families cold.
- ``chat-prefix`` — one long single-engine ``kv-cq-4`` run with paged
  admission and prefix caching on the sessionized ``chat`` trace.
- ``fleet-route`` — 8 ``fp16`` replicas behind the ``least-kv`` router
  on bursty arrivals, paged admission, no prefix caching.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

EXPECTED_PATH = Path(__file__).resolve().with_name("expected.json")

#: Seed whose modeled outputs are pinned by digest in ``expected.json``.
DEFAULT_SEED = 0

#: Serving modes whose sample tensors the workloads load.
SAMPLE_MODES = ("kv-cq-4", "kv-cq-2", "vq4", "vq2")

CHAT = dict(mode="kv-cq-4", trace_kind="chat", rate_rps=2.0,
            n_requests=1000, prompt_mean=384, output_mean=96,
            kv_hbm_gb=4.0, max_seqs=64)
FLEET = dict(mode="fp16", trace_kind="bursty", rate_rps=24.0,
             n_requests=4000, prompt_mean=384, output_mean=96,
             n_replicas=8, policy="least-kv", max_seqs=64)


@dataclass
class Outcome:
    """One simulation of a pass: its label, size and modeled output."""

    label: str
    n_requests: int
    metrics: Optional[dict]
    #: ``(trace, report)`` pairs the simulation produced (one expected).
    runs: list = field(default_factory=list)
    raised: bool = False


def metrics_digest(metrics: dict) -> str:
    """SHA-256 of the metric dict as canonical JSON (floats exact)."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def conservation_failures(trace, report) -> int:
    """Requests that neither completed intact nor were rejected.

    Every trace request must appear once among the report's records or
    be counted in ``n_rejected``, and a completed request must carry the
    prompt and output lengths it asked for, in causal order.
    """
    by_id = {req.req_id: req for req in trace}
    seen = set()
    bad = 0
    for rec in report.records:
        req = by_id.get(rec.req_id)
        if (req is None or rec.req_id in seen
                or rec.output_tokens != req.output_tokens
                or rec.prompt_tokens != req.prompt_tokens
                or not (req.arrival_s <= rec.first_token_s
                        <= rec.finished_s)):
            bad += 1
        seen.add(rec.req_id)
    missing = len(trace) - len(seen) - report.n_rejected
    return bad + abs(missing)


def verify(outcome: Outcome, expected: Optional[Dict[str, str]]) -> int:
    """Failed requests of one simulation (all of them on any mismatch)."""
    if outcome.raised or len(outcome.runs) != 1:
        return outcome.n_requests
    if expected is not None and (expected.get(outcome.label)
                                 != metrics_digest(outcome.metrics)):
        return outcome.n_requests
    trace, report = outcome.runs[0]
    return min(outcome.n_requests, conservation_failures(trace, report))


def load_expected(workload: str, seed: int) -> Optional[Dict[str, str]]:
    """Pinned digests for ``workload`` at the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(EXPECTED_PATH.read_text())["digests"][workload]


def _simulate(label: str, n_requests: int, capture,
              fn: Callable[[], dict]) -> Outcome:
    """Run one simulation; an exception fails it instead of the pass."""
    try:
        metrics = fn()
    except Exception:  # noqa: BLE001 - a failed operation, reported
        traceback.print_exc(file=sys.stderr)
        return Outcome(label, n_requests, None, capture.take(), raised=True)
    return Outcome(label, n_requests, metrics, capture.take())


class SweepCold:
    """The ``demo`` grid plus weight-VQ trials, every engine cold."""

    def __init__(self, seed: int):
        from repro.bench.orchestrator import demo_config
        from repro.bench.serving import mode_cost_kwargs

        demo = dataclasses.replace(demo_config(), seed=seed)
        weight_vq = dataclasses.replace(
            demo, name="weight-vq", modes=("vq4", "vq2"),
            admissions=("paged",), prefix_caching=(False,))
        self.specs = demo.trials() + weight_vq.trials()
        for mode in sorted({spec.mode for spec in self.specs}):
            mode_cost_kwargs(mode)  # sample tensors: disk -> process

    def run_pass(self, capture) -> List[Outcome]:
        from repro.bench.orchestrator import run_trial

        return [_simulate(spec.trial_id, spec.n_requests, capture,
                          lambda spec=spec: run_trial(spec).metrics)
                for spec in self.specs]


class ChatPrefix:
    """One long prefix-cached ``kv-cq-4`` run on the chat trace."""

    def __init__(self, seed: int):
        from repro.bench.serving import (make_cost_model, make_kv_budget,
                                         make_trace)
        from repro.core.engine import ComputeEngine
        from repro.gpu.spec import get_spec
        from repro.llm.config import llama_7b
        from repro.serve.api import SchedulerConfig, SimConfig

        c = CHAT
        spec, config = get_spec("rtx4090"), llama_7b()
        self.trace = make_trace(c["trace_kind"], c["rate_rps"],
                                c["n_requests"], c["prompt_mean"],
                                c["output_mean"], seed=seed)
        self.budget = make_kv_budget(config, c["mode"],
                                     capacity_bytes=c["kv_hbm_gb"] * 1e9,
                                     spec=spec)
        self.cost_model = make_cost_model(ComputeEngine(spec), config,
                                          c["mode"])
        self.sim_config = SimConfig(
            scheduler=SchedulerConfig(max_seqs=c["max_seqs"],
                                      admission="paged",
                                      prefix_caching=True),
            name="chat-prefix")
        # Warm-up: one full run fills the engine memo and the bucket
        # tables, as in a server that has already seen this traffic.
        self._simulate()

    def _simulate(self) -> dict:
        sim = self.sim_config.build(self.budget, self.cost_model)
        return sim.run(self.trace).metrics()

    def run_pass(self, capture) -> List[Outcome]:
        return [_simulate("chat-prefix", len(self.trace), capture,
                          self._simulate)]


class FleetRoute:
    """Eight ``fp16`` replicas behind ``least-kv`` on bursty arrivals."""

    def __init__(self, seed: int):
        from repro.bench.cluster import replica_kv_budget
        from repro.bench.serving import make_cost_model, make_trace
        from repro.core.engine import ComputeEngine
        from repro.gpu.spec import get_spec
        from repro.llm.config import llama_7b
        from repro.serve.api import FleetConfig, SchedulerConfig

        f = FLEET
        spec, config = get_spec("rtx4090"), llama_7b()
        self.trace = make_trace(f["trace_kind"], f["rate_rps"],
                                f["n_requests"], f["prompt_mean"],
                                f["output_mean"], seed=seed)
        self.budget = replica_kv_budget(config, f["mode"], spec)
        self.cost_model = make_cost_model(ComputeEngine(spec), config,
                                          f["mode"])
        # max_seqs must stay <= 64: FP16GemvKernel rejects larger decode
        # batches, and FleetConfig's default scheduler allows 128.
        self.fleet_config = FleetConfig(
            scheduler=SchedulerConfig(max_seqs=f["max_seqs"],
                                      admission="paged"),
            policy=f["policy"], name="fleet-route")
        self._simulate()  # warm-up, as for chat-prefix

    def _simulate(self) -> dict:
        sim = self.fleet_config.build(FLEET["n_replicas"], self.budget,
                                      self.cost_model)
        return sim.run(self.trace).metrics()

    def run_pass(self, capture) -> List[Outcome]:
        return [_simulate("fleet-route", len(self.trace), capture,
                          self._simulate)]


WORKLOADS = {
    "sweep-cold": SweepCold,
    "chat-prefix": ChatPrefix,
    "fleet-route": FleetRoute,
}
