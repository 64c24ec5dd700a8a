"""Unit and parity tests for :mod:`repro.obs`.

Two invariants anchor the observability layer:

1. **Tracing never moves a metric.**  The tracer is observation-only
   (append-only buffers, never read back during the run) and the
   metrics registry is built unconditionally from end-of-run state, so
   every serving/fleet ``metrics()`` dict is *equal* — not close —
   with tracing on and off.  The parity tests here run the PR-1 seed
   scenario and the prefix-caching chat scenario both ways.
2. **Histogram buckets are exact.**  ``bucket_index`` places a value
   in the bucket whose ``le``-inclusive upper bound is the first one
   not below it; hypothesis drives the boundary properties.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.fleet import FleetSimulator
from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.llm.config import llama_7b
from repro.obs import (
    EVT_ADMITTED,
    EVT_PREEMPTED,
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullTracer,
    Tracer,
)
from repro.serve.api import FleetConfig


# ----------------------------------------------------------------------
# Counters / gauges
# ----------------------------------------------------------------------
def test_counter_accumulates_and_rejects_negative():
    c = Counter("reqs_total")
    c.inc()
    c.inc(3)
    assert c.value == 4
    assert c.flat() == {"reqs_total": 4}
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_tracks_last_set():
    g = Gauge("occupancy")
    g.set(0.25)
    g.set(0.75)
    assert g.value == 0.75
    assert g.flat() == {"occupancy": 0.75}


# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
def test_histogram_validates_parameters():
    with pytest.raises(ValueError):
        Histogram("h", start=0.0)
    with pytest.raises(ValueError):
        Histogram("h", factor=1.0)
    with pytest.raises(ValueError):
        Histogram("h", n_buckets=0)
    with pytest.raises(ValueError):
        Histogram("h").observe(float("nan"))


@settings(max_examples=200, deadline=None)
@given(value=st.floats(min_value=0.0, max_value=1e12,
                       allow_nan=False, allow_infinity=False),
       start=st.floats(min_value=1e-6, max_value=100.0),
       factor=st.floats(min_value=1.001, max_value=16.0),
       n_buckets=st.integers(min_value=1, max_value=48))
def test_histogram_bucket_bounds(value, start, factor, n_buckets):
    h = Histogram("h", start=start, factor=factor, n_buckets=n_buckets)
    i = h.bucket_index(value)
    bounds = h.boundaries
    if i == len(bounds):  # overflow bucket: above every finite bound
        assert value > bounds[-1]
    else:
        assert value <= bounds[i]
        if i > 0:
            assert value > bounds[i - 1]


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e9,
                                 allow_nan=False, allow_infinity=False),
                       max_size=50))
def test_histogram_conservation_and_monotonicity(values):
    h = Histogram("h", start=0.5, factor=2.0, n_buckets=12)
    for v in values:
        h.observe(v)
    assert h.total == len(values)
    assert sum(h.counts) == len(values)
    assert math.isclose(h.sum, sum(values), rel_tol=1e-9, abs_tol=1e-9)
    cum = list(itertools.accumulate(h.counts))
    assert cum == sorted(cum)
    assert cum[-1] == len(values)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_get_or_create_is_idempotent():
    reg = MetricsRegistry()
    a = reg.counter("hits_total")
    b = reg.counter("hits_total")
    assert a is b
    a.inc(2)
    assert reg.to_flat_dict() == {"hits_total": 2}


def test_registry_rejects_kind_mismatch():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_registry_labels_create_distinct_series():
    reg = MetricsRegistry()
    reg.counter("steps_total", replica="0").inc(3)
    reg.counter("steps_total", replica="1").inc(5)
    assert reg.to_flat_dict() == {'steps_total{replica="0"}': 3,
                                  'steps_total{replica="1"}': 5}


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class _Plan:
    """Minimal stand-in for a scheduler batch plan."""

    def __init__(self, prefill=(), decode=()):
        self.prefill = list(prefill)
        self.decode = list(decode)


def test_null_tracer_is_disabled_and_inert():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    # All hooks are no-ops; nothing to assert beyond "does not raise".
    NULL_TRACER.step(0, 0.0, 150.0, _Plan(), 0.5)
    NULL_TRACER.event(EVT_ADMITTED, 0.0, 0, 1)
    NULL_TRACER.record_sequences(0, [])


def test_tracer_records_steps_and_events():
    tr = Tracer(name="t")
    assert tr.enabled is True
    tr.step(0, 1.0, 150.0, _Plan(decode=[object()] * 3), 0.25)
    tr.step(1, 2.0, 150.0, _Plan(), 0.5)
    tr.event(EVT_PREEMPTED, 1.5, 0, 7, value=32)
    assert len(tr.steps) == 2
    assert tr.replicas == [0, 1]
    (kind, t_s, replica, req_id, value), = [
        row for row in tr.events if row[0] == EVT_PREEMPTED]
    assert (replica, req_id, value) == (0, 7, 32)
    assert t_s == 1.5


# ----------------------------------------------------------------------
# Tracing parity: metrics must be equal with tracing on and off
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine():
    return ComputeEngine(RTX4090)


#: The PR-1 seed scenario (see tools/record_goldens.py).
SEED_WORKLOAD = dict(kv_hbm_gb=4.0, rate_rps=16.0, n_requests=64,
                     prompt_mean=384, output_mean=96, seed=0)

#: Paged + prefix-caching chat variant at a tight KV budget.
PREFIX_WORKLOAD = dict(kv_hbm_gb=2.0, rate_rps=16.0, n_requests=48,
                       prompt_mean=256, output_mean=64, seed=0,
                       trace_kind="chat", admission="paged",
                       prefix_caching=True)


@pytest.mark.parametrize("workload", [SEED_WORKLOAD, PREFIX_WORKLOAD],
                         ids=["seed", "prefix-chat"])
def test_serving_metrics_identical_with_tracing(engine, workload):
    from repro.bench.serving import simulate_mode

    config = llama_7b()
    off = simulate_mode("fp16", config=config, engine=engine,
                        trace=False, **workload)
    on = simulate_mode("fp16", config=config, engine=engine,
                       trace=True, **workload)
    assert off.tracer is None
    assert on.tracer is not None
    assert on.metrics() == off.metrics()
    # The enabled tracer actually observed the run.
    assert len(on.tracer.steps) > 0
    assert on.tracer.n_requests == on.n_requests


def test_fleet_metrics_identical_with_tracing(engine):
    from repro.bench.cluster import make_replicas
    from repro.bench.serving import make_trace

    config = llama_7b()
    trace = make_trace("poisson", 12.0, 24, 128, 32, seed=0)
    runs = {}
    for record in (False, True):
        replicas = make_replicas(2, "fp16", config=config, engine=engine)
        runs[record] = FleetSimulator(
            replicas, config=FleetConfig(policy="jsq",
                                         trace=record)).run(trace)
    assert runs[False].metrics() == runs[True].metrics()
    assert runs[False].tracer is None
    assert sorted(runs[True].tracer.replicas) == [0, 1]


# ----------------------------------------------------------------------
# EventStats surfaced in metrics
# ----------------------------------------------------------------------
def test_serving_metrics_include_event_stats(engine):
    from repro.bench.serving import simulate_mode

    rep = simulate_mode("fp16", config=llama_7b(), engine=engine,
                        n_requests=16, **{k: v for k, v in
                                          SEED_WORKLOAD.items()
                                          if k != "n_requests"})
    m = rep.metrics()
    assert m["n_events"] >= m["n_arrivals"] == 16
    # The single-engine loop steps inline (no STEP events) and never
    # idle-polls; both keys still surface for uniformity with fleets.
    assert m["n_step_events"] == 0
    assert m["n_idle_polls"] == 0
    # Registry-backed keys ride along in the same dict.
    assert m["requests_completed_total"] == rep.n_requests
    assert m["sched_admissions_total"] >= rep.n_requests


def test_fleet_metrics_include_event_stats(engine):
    from repro.bench.cluster import make_replicas
    from repro.bench.serving import make_trace

    trace = make_trace("poisson", 12.0, 24, 128, 32, seed=0)
    replicas = make_replicas(2, "fp16", config=llama_7b(), engine=engine)
    rep = FleetSimulator(replicas,
                         config=FleetConfig(policy="jsq")).run(trace)
    m = rep.metrics()
    assert m["n_events"] > 0
    assert m["n_arrivals"] == 24
    assert m["requests_completed_total"] == rep.n_requests


# ----------------------------------------------------------------------
# Scheduler / allocator emit_metrics
# ----------------------------------------------------------------------
def test_scheduler_emit_metrics_keys(engine):
    from repro.bench.serving import simulate_mode

    rep = simulate_mode("fp16", config=llama_7b(), engine=engine,
                        **dict(PREFIX_WORKLOAD, n_requests=16))
    m = rep.metrics()
    for key in ("sched_admissions_total", "sched_preemptions_total",
                "sched_peak_seqs", "kv_peak_occupancy", "kv_blocks_total",
                "prefix_lookups_total", "prefix_cached_blocks"):
        assert key in m, key
