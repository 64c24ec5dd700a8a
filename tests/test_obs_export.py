"""Exporter tests: Perfetto trace_event JSON and the report CLI.

The exporters sit downstream of the tracer: these tests run small
traced simulations, validate the emitted Chrome/Perfetto JSON shape
(round-trips through ``json``, every event carries the required keys),
and reconcile the ``repro.obs.report`` time breakdown against the
simulator's own aggregates — TTFT/TPOT computed from span durations
must match :class:`~repro.serve.simulator.ServingReport` percentiles
within float tolerance.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.llm.config import llama_7b
from repro.obs import EVT_PREEMPTED, to_perfetto, write_perfetto
from repro.obs.report import build_report, load_trace, percentile
from repro.serve.api import SchedulerConfig, SimConfig
from repro.serve.requests import Request
from repro.serve.scheduler import KVBudget


class _ConstantCostModel:
    def step_us(self, plan):
        return 150.0

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


@pytest.fixture(scope="module")
def engine():
    return ComputeEngine(RTX4090)


@pytest.fixture(scope="module")
def traced_report(engine):
    from repro.bench.serving import simulate_mode

    return simulate_mode("fp16", config=llama_7b(), engine=engine,
                         kv_hbm_gb=4.0, rate_rps=16.0, n_requests=32,
                         prompt_mean=256, output_mean=48, seed=0,
                         trace=True)


def _preempting_report():
    """A paged run on a pool tight enough to force recompute."""
    requests = [Request(req_id=i, arrival_s=0.0, prompt_tokens=16,
                        output_tokens=24) for i in range(10)]
    sim = SimConfig(
        scheduler=SchedulerConfig(token_budget=64, max_seqs=16,
                                  admission="paged", block_tokens=16),
        name="tight", trace=True,
    ).build(KVBudget(capacity_bytes=200.0, bytes_per_token=1.0),
            _ConstantCostModel())
    return sim.run(requests)


# ----------------------------------------------------------------------
# Perfetto JSON shape
# ----------------------------------------------------------------------
def test_perfetto_document_shape_and_round_trip(traced_report):
    doc = to_perfetto(traced_report.tracer, name="shape")
    blob = json.dumps(doc)
    assert json.loads(blob) == doc  # JSON-serialisable, lossless
    assert doc["otherData"]["name"] == "shape"
    events = doc["traceEvents"]
    assert events, "traced run must emit events"
    phases = set()
    for ev in events:
        assert ev["ph"] in ("X", "i", "M")
        phases.add(ev["ph"])
        assert isinstance(ev["pid"], int)
        assert isinstance(ev["tid"], int)
        if ev["ph"] == "X":
            assert ev["dur"] >= 0
            assert ev["ts"] >= 0
        if ev["ph"] == "M":
            assert ev["name"] in ("process_name", "thread_name")
    assert phases >= {"X", "M"}


def test_perfetto_request_spans_complete(traced_report):
    doc = to_perfetto(traced_report.tracer)
    spans = [ev for ev in doc["traceEvents"]
             if ev["ph"] == "X" and ev.get("cat") == "request"]
    by_name = {}
    for ev in spans:
        by_name.setdefault(ev["name"], []).append(ev)
    # Every completed request contributes exactly one span per phase.
    n = traced_report.n_requests
    assert len(by_name["queued"]) == n
    assert len(by_name["prefill"]) == n
    assert len(by_name["decode"]) == n


def test_perfetto_engine_steps_match_tracer(traced_report):
    doc = to_perfetto(traced_report.tracer)
    steps = [ev for ev in doc["traceEvents"]
             if ev["ph"] == "X" and ev.get("cat") == "engine"]
    assert len(steps) == len(traced_report.tracer.steps)
    assert all(ev["tid"] == 0 for ev in steps)


def test_perfetto_merges_tracers_with_distinct_pids(engine):
    from repro.bench.cluster import make_replicas
    from repro.bench.serving import make_trace

    from repro.cluster.fleet import FleetSimulator
    from repro.serve.api import FleetConfig

    trace = make_trace("poisson", 12.0, 16, 128, 32, seed=0)
    tracers = {}
    for label in ("a", "b"):
        replicas = make_replicas(2, "fp16", config=llama_7b(),
                                 engine=engine)
        rep = FleetSimulator(
            replicas, config=FleetConfig(policy="jsq",
                                         trace=True)).run(trace)
        tracers[label] = rep.tracer
    doc = to_perfetto(tracers, name="merged")
    pids = {ev["pid"] for ev in doc["traceEvents"]}
    # 2 runs x 2 replicas, separated by the per-tracer pid stride.
    assert len(pids) == 4
    names = {ev["args"]["name"] for ev in doc["traceEvents"]
             if ev["ph"] == "M" and ev["name"] == "process_name"}
    assert any("a" in n for n in names)
    assert any("b" in n for n in names)


def test_perfetto_preemption_instants(tmp_path):
    rep = _preempting_report()
    assert rep.n_preempted >= 1
    assert sum(row[0] == EVT_PREEMPTED
               for row in rep.tracer.events) == rep.n_preempted
    doc = to_perfetto(rep.tracer)
    instants = [ev for ev in doc["traceEvents"]
                if ev["ph"] == "i" and ev["name"] == "preempted"]
    assert len(instants) == rep.n_preempted


def test_write_perfetto_loads_back(tmp_path, traced_report):
    path = tmp_path / "trace.json"
    write_perfetto(path, traced_report.tracer, name="disk")
    doc = load_trace(path)
    assert doc["otherData"]["name"] == "disk"
    assert doc["traceEvents"]


# ----------------------------------------------------------------------
# Report CLI reconciliation
# ----------------------------------------------------------------------
def test_percentile_matches_linear_interpolation():
    values = [1.0, 2.0, 4.0, 8.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 8.0
    assert percentile(values, 50) == 3.0  # midpoint of 2 and 4


@settings(max_examples=500, deadline=None)
@given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
       q=st.floats(0, 100) | st.sampled_from([50, 95, 99, 37.5]))
def test_percentile_is_numpy_bit_for_bit(values, q):
    assert percentile(values, q) == float(np.percentile(values, q))


def test_report_reconciles_with_serving_aggregates(tmp_path, traced_report):
    path = tmp_path / "trace.json"
    write_perfetto(path, traced_report.tracer)
    report = build_report(load_trace(path))

    assert report["n_requests"] == traced_report.n_requests
    # TTFT from span durations == ServingReport percentile over
    # (first_token - arrival), modulo float rounding through µs.
    for q in (50, 95):
        assert percentile(report["ttft_ms"], q) == pytest.approx(
            traced_report.ttft_s(q) * 1e3, rel=1e-9, abs=1e-6)
        assert percentile(report["tpot_ms"], q) == pytest.approx(
            traced_report.tpot_s(q) * 1e3, rel=1e-9, abs=1e-6)
    # Phase totals cover every request's whole latency.
    total = sum(report["phase_totals_s"].values())
    latency_sum = sum(r.latency_s for r in traced_report.records)
    assert total == pytest.approx(latency_sum, rel=1e-9, abs=1e-6)


def test_report_counts_preemptions(tmp_path):
    rep = _preempting_report()
    path = tmp_path / "trace.json"
    write_perfetto(path, rep.tracer)
    report = build_report(load_trace(path))
    assert report["n_preempted"] == rep.n_preempted


def test_report_cli_renders_markdown(tmp_path, traced_report, capsys):
    from repro.obs.report import main

    path = tmp_path / "trace.json"
    write_perfetto(path, traced_report.tracer)
    out = tmp_path / "report.md"
    assert main([str(path), "--out", str(out)]) == 0
    text = out.read_text()
    assert "# Trace report" in text
    assert "Where request time goes" in text
    assert "TTFT ms" in text


def test_report_rejects_non_trace_json(tmp_path):
    path = tmp_path / "nope.json"
    path.write_text(json.dumps({"foo": 1}))
    with pytest.raises(ValueError):
        load_trace(path)


# ----------------------------------------------------------------------
# CLI integration: bench.serving / orchestrator
# ----------------------------------------------------------------------
def test_bench_serving_trace_out(tmp_path):
    from repro.bench.serving import run

    path = tmp_path / "bench.json"
    run(["--modes", "fp16", "--requests", "12", "--rate", "8",
         "--prompt-mean", "64", "--output-mean", "16",
         "--trace-out", str(path)])
    doc = load_trace(path)
    assert doc["traceEvents"]


def test_orchestrator_trial_trace_matches_untraced(tmp_path):
    from repro.bench.orchestrator import TrialSpec, run_trial

    spec = TrialSpec(kind="serving", mode="fp16", admission="reserve",
                     trace_kind="poisson", rate_rps=8.0, n_requests=12,
                     prompt_mean=64, output_mean=16, seed=0)
    path = tmp_path / "trial.perfetto.json"
    plain = run_trial(spec)
    traced = run_trial(spec, trace_path=path)
    assert traced.metrics == plain.metrics
    assert load_trace(path)["traceEvents"]
