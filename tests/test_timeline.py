"""Timeline telemetry, SLO burn-rate monitor and breakdown tests.

The load-bearing contract is bit-identity: a run with windowed
sampling enabled must report exactly the metrics of a run without it
(the golden tests pin the same thing end-to-end through the analytic
stack; here the stub cost model makes the comparison exact and fast).
Hypothesis drives the window-accounting properties — conservation of
flows and contiguity of boundaries — directly against the collector.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.breakdown import breakdown_summary, request_breakdowns
from repro.obs.slo import SLO, BurnRateRule, default_rules, slo_report
from repro.obs.timeline import (
    Timeline,
    TimelineCollector,
    TimelineConfig,
    TimelineWindow,
)
from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig
from repro.serve.requests import (
    LengthSampler,
    Request,
    flash_crowd_trace,
    poisson_trace,
)
from repro.serve.scheduler import KVBudget

REPO = Path(__file__).resolve().parent.parent


class ConstantCostModel:
    """Stub: every iteration costs a fixed time."""

    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


def _run_serving(trace, timeline=None, max_tokens=100_000.0,
                 trace_on=False, step_us=1000.0, **sched_kw):
    budget = KVBudget(capacity_bytes=max_tokens, bytes_per_token=1.0)
    cfg = SimConfig(scheduler=SchedulerConfig(token_budget=512, max_seqs=16,
                                              **sched_kw),
                    name="tl-test", trace=trace_on, timeline=timeline)
    return cfg.build(budget, ConstantCostModel(step_us)).run(trace)


def _run_fleet(trace, timeline=None, n_replicas=2, max_tokens=100_000.0):
    budget = KVBudget(capacity_bytes=max_tokens, bytes_per_token=1.0)
    cfg = FleetConfig(scheduler=SchedulerConfig(token_budget=512,
                                                max_seqs=16),
                      policy="round-robin", name="tl-fleet",
                      timeline=timeline)
    return cfg.build(n_replicas, budget, ConstantCostModel()).run(trace)


class TestConfig:
    def test_validates(self):
        with pytest.raises(ValueError):
            TimelineConfig(window_s=0.0)
        with pytest.raises(ValueError):
            TimelineConfig(slo=SLO(ttft_s=-1.0))


class TestBitIdentity:
    """Sampling on vs off: end-of-run metrics must be equal, key for key."""

    def test_serving_metrics_identical_with_timeline(self):
        trace = poisson_trace(40.0, 60, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=3)
        plain = _run_serving(trace)
        sampled = _run_serving(
            trace, timeline=TimelineConfig(window_s=0.05, slo=SLO(ttft_s=0.2)))
        assert sampled.metrics() == plain.metrics()
        assert sampled.timeline is not None and plain.timeline is None

    def test_serving_parity_under_kv_pressure(self):
        # Rejections and preemptions on the paged path must not move.
        trace = poisson_trace(60.0, 80, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=5)
        kw = dict(max_tokens=600.0, admission="paged", block_tokens=8)
        plain = _run_serving(trace, **kw)
        sampled = _run_serving(trace,
                               timeline=TimelineConfig(window_s=0.1), **kw)
        assert sampled.metrics() == plain.metrics()

    def test_fleet_metrics_identical_with_timeline(self):
        trace = poisson_trace(50.0, 60, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=4)
        plain = _run_fleet(trace)
        sampled = _run_fleet(
            trace, timeline=TimelineConfig(window_s=0.05, slo=SLO(ttft_s=0.2)))
        assert sampled.metrics() == plain.metrics()
        assert sorted(sampled.timeline.replicas) == [0, 1]

    def test_window_choice_never_moves_metrics(self):
        trace = poisson_trace(40.0, 40, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=6)
        baseline = _run_serving(trace).metrics()
        for window_s in (0.01, 0.37, 5.0, 1e6):
            got = _run_serving(
                trace, timeline=TimelineConfig(window_s=window_s)).metrics()
            assert got == baseline, f"window_s={window_s} moved metrics"


class TestWindowAccounting:
    def _timeline(self, trace, window_s=0.1):
        report = _run_serving(
            trace, timeline=TimelineConfig(window_s=window_s))
        return report, report.timeline

    def test_flows_conserve_requests(self):
        trace = poisson_trace(40.0, 50, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=7)
        report, timeline = self._timeline(trace)
        wins = timeline.windows(0)
        assert sum(w.arrivals + w.rejections for w in wins) == len(trace)
        assert sum(w.completions for w in wins) == len(report.records)
        assert sum(len(w.ttft_ms) for w in wins) == len(report.records)

    def test_windows_are_contiguous_and_ordered(self):
        trace = poisson_trace(40.0, 50, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=7)
        _, timeline = self._timeline(trace, window_s=0.13)
        wins = timeline.windows(0)
        assert wins[0].t_start_s == 0.0
        for prev, cur in zip(wins, wins[1:]):
            assert prev.t_end_s == cur.t_start_s
            assert cur.t_end_s > cur.t_start_s

    def test_merged_sums_flows_across_replicas(self):
        trace = poisson_trace(50.0, 60, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=8)
        report = _run_fleet(trace, timeline=TimelineConfig(window_s=0.1))
        merged = report.timeline.merged()
        per_replica = sum(
            w.completions for rid in report.timeline.replica_ids
            for w in report.timeline.windows(rid))
        assert sum(w.completions for w in merged) == per_replica

    def test_series_accessor_rejects_unknown(self):
        trace = poisson_trace(40.0, 10, prompt=LengthSampler(mean=32),
                              output=LengthSampler(mean=8), seed=9)
        _, timeline = self._timeline(trace)
        assert timeline.series("arrivals")  # known name works
        with pytest.raises(KeyError):
            timeline.series("nope")

    def test_to_json_round_trip_shape(self):
        trace = poisson_trace(40.0, 20, prompt=LengthSampler(mean=32),
                              output=LengthSampler(mean=8), seed=10)
        _, timeline = self._timeline(trace)
        doc = json.loads(json.dumps(timeline.to_json()))
        assert doc["window_s"] == timeline.window_s
        assert len(doc["replicas"]["0"]) == timeline.n_windows


class _StubSched:
    waiting = ()
    preempted = ()
    running = ()
    kv_occupancy = 0.0
    n_preemptions = 0
    prefix_caching = False


class _StubSeq:
    """Minimal SequenceState stand-in for on_complete."""

    def __init__(self, arrival_s, first_token_s, finished_s, output_tokens):
        self.request = Request(req_id=0, arrival_s=arrival_s,
                               prompt_tokens=8,
                               output_tokens=output_tokens)
        self.first_token_s = first_token_s
        self.finished_s = finished_s


class TestCollectorProperties:
    """Hypothesis-driven boundary properties, straight on the collector."""

    @given(window_s=st.floats(min_value=0.01, max_value=3.0),
           times=st.lists(st.floats(min_value=0.0, max_value=10.0),
                          min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_every_arrival_lands_in_its_window(self, window_s, times):
        collector = TimelineCollector(TimelineConfig(window_s=window_s))
        sched = _StubSched()
        for t in sorted(times):
            while t >= collector.next_sample_s:
                collector.sample(collector.next_sample_s, (sched,))
            collector.on_arrival(0)
        timeline = collector.finalize(max(times), (sched,))
        wins = timeline.windows(0)
        assert sum(w.arrivals for w in wins) == len(times)
        # Each window's arrivals are exactly the times in [start, end)
        # (final window inclusive at the makespan).
        for i, w in enumerate(wins):
            expect = sum(
                1 for t in times
                if w.t_start_s <= t < w.t_end_s
                or (i == len(wins) - 1 and t == w.t_end_s))
            assert w.arrivals == expect

    @given(window_s=st.floats(min_value=0.05, max_value=2.0),
           finishes=st.lists(st.floats(min_value=0.01, max_value=8.0),
                             min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_banked_completions_assigned_to_finish_window(self, window_s,
                                                          finishes):
        collector = TimelineCollector(TimelineConfig(window_s=window_s))
        sched = _StubSched()
        # Bank everything up front (an iteration can finish work past
        # the open boundary); the collector must still assign each
        # completion to the window containing its finish time.
        collector.on_complete(
            0, [_StubSeq(0.0, f / 2, f, output_tokens=2) for f in finishes],
            max(finishes))
        end = max(finishes)
        while collector.next_sample_s <= end:
            collector.sample(collector.next_sample_s, (sched,))
        timeline = collector.finalize(end, (sched,))
        wins = timeline.windows(0)
        assert sum(w.completions for w in wins) == len(finishes)
        for i, w in enumerate(wins):
            expect = sum(
                1 for f in finishes
                if w.t_start_s <= f < w.t_end_s
                or (i == len(wins) - 1 and f >= w.t_end_s))
            assert w.completions == expect

    def test_contiguity_includes_trailing_partial_window(self):
        collector = TimelineCollector(TimelineConfig(window_s=1.0))
        sched = _StubSched()
        collector.sample(1.0, (sched,))
        collector.on_arrival(0)
        timeline = collector.finalize(1.4, (sched,))
        wins = timeline.windows(0)
        assert [w.t_end_s for w in wins] == [1.0, 1.4]
        assert wins[-1].arrivals == 1


def _slo_timeline(violating, total=10, window_s=1.0, n_windows=40):
    """Synthetic one-replica timeline: ``violating`` maps window index
    -> violations (out of ``total`` completions per window)."""
    wins = []
    for i in range(n_windows):
        bad = violating.get(i, 0)
        wins.append(TimelineWindow(
            t_start_s=float(i), t_end_s=float(i + 1),
            completions=total, slo_violations=bad,
            ttft_ms=tuple([500.0] * bad + [50.0] * (total - bad))))
    cfg = TimelineConfig(window_s=window_s, slo=SLO(ttft_s=0.1))
    return Timeline(name="synthetic", window_s=window_s,
                    replicas={0: wins}, config=cfg)


class TestSLOMonitor:
    """Burn-rate evaluation (:func:`slo_report`) of synthetic windows."""

    def test_fires_during_burst_and_clears_after(self):
        # Windows 10..15 violate 100%; everything else is clean.
        timeline = _slo_timeline({i: 10 for i in range(10, 16)})
        report = slo_report(timeline)
        assert report.fired
        fast = report.alerts_for("fast")
        assert fast, "fast-burn rule should fire on a 100% burst"
        alert = fast[0]
        assert 10.0 <= alert.fired_s <= 16.0
        assert alert.cleared_s is not None and alert.cleared_s > 16.0
        assert alert.peak_burn_rate > 10.0

    def test_quiet_timeline_never_fires(self):
        report = slo_report(_slo_timeline({}))
        assert not report.fired
        assert report.attainment == 1.0
        assert report.alerts == []

    def test_budget_accounting(self):
        # 60 violations out of 400 completions against a 1% budget.
        timeline = _slo_timeline({i: 10 for i in range(10, 16)})
        report = slo_report(timeline)
        assert report.violation_fraction == pytest.approx(60 / 400)
        assert report.budget_consumed == pytest.approx((60 / 400) / 0.01)

    def test_requires_slo_tracking(self):
        timeline = Timeline(name="x", window_s=1.0,
                            replicas={0: []}, config=TimelineConfig())
        with pytest.raises(ValueError):
            slo_report(timeline)

    def test_default_rules_scale_with_window(self):
        rules = default_rules(1.0)
        assert {r.name for r in rules} == {"fast", "slow"}
        fast = next(r for r in rules if r.name == "fast")
        assert fast.factor == pytest.approx(10.0)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            BurnRateRule(name="bad", long_s=1.0, short_s=2.0, factor=2.0)


class TestEndToEndSLO:
    def test_flash_crowd_fires_and_clears(self):
        # Mirrors examples/slo_timeline.py at stub-cost scale: a
        # saturating burst in the middle of an otherwise easy trace.
        trace = flash_crowd_trace(
            10.0, 30.0, crowd_factor=20.0, crowd_start_s=10.0,
            crowd_duration_s=5.0, prompt=LengthSampler(mean=64),
            output=LengthSampler(mean=16), seed=2)
        report = _run_serving(
            trace, timeline=TimelineConfig(window_s=0.5,
                                           slo=SLO(ttft_s=0.05)),
            max_tokens=2_000.0, step_us=20_000.0)
        slo = report.slo
        assert slo is not None and slo.fired
        alert = slo.alerts_for("fast")[0]
        assert alert.fired_s >= 10.0
        assert alert.cleared_s is None or alert.cleared_s > 15.0


class TestOneRule:
    """Every SLO account of a run judges requests with
    :meth:`SLO.met_by`: the timeline's windows, the burn-rate report,
    the fleet's attainment and the cluster CLI's sizing objective."""

    @staticmethod
    def _median_slo(records):
        # The run's own median TTFT: some requests meet it, some miss,
        # and at least one sits exactly on the limit.
        ttfts = sorted(r.ttft_s for r in records)
        return SLO(ttft_s=ttfts[len(ttfts) // 2])

    @staticmethod
    def _misses(report, slo):
        return sum(1 for r in report.records if not slo.met_by(r.ttft_s))

    def test_serving_windows_count_what_met_by_rejects(self):
        trace = poisson_trace(60.0, 80, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=5)
        slo = self._median_slo(_run_serving(trace).records)
        report = _run_serving(
            trace, timeline=TimelineConfig(window_s=0.05, slo=slo))
        misses = self._misses(report, slo)
        assert 0 < misses < report.n_requests
        windows = report.timeline.windows(0)
        assert sum(w.slo_violations for w in windows) == misses
        assert report.slo.n_violations == misses

    def test_fleet_windows_and_attainment_count_the_same_misses(self):
        # A 120-token budget rejects some requests outright, so the
        # attainment's denominator (offered) exceeds the completions.
        trace = poisson_trace(60.0, 80, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=5)
        slo = self._median_slo(_run_fleet(trace, max_tokens=120.0).records)
        report = _run_fleet(
            trace, timeline=TimelineConfig(window_s=0.05, slo=slo),
            max_tokens=120.0)
        misses = self._misses(report, slo)
        assert 0 < misses < report.n_requests and report.n_rejected > 0
        timeline = report.timeline
        assert sum(w.slo_violations for rid in timeline.replica_ids
                   for w in timeline.windows(rid)) == misses
        assert report.slo.n_violations == misses
        offered = report.n_requests + report.n_rejected
        assert report.slo_attainment(slo) \
            == (report.n_requests - misses) / offered

    def test_cluster_cli_sizing_reads_slo_ttft_ms(self, tmp_path):
        from repro.bench.cluster import fleet_sizing_comparison, run

        workload = ["--modes", "kv-cq-4", "--requests", "24"]
        tables = {limit_s: fleet_sizing_comparison(
            modes=("kv-cq-4",), n_requests=24,
            slo=SLO(ttft_s=limit_s)).render() for limit_s in (1.0, 2.0)}
        assert tables[1.0] != tables[2.0], "the workload must tell them apart"
        reports = {}
        one_s = run(workload + ["--slo-ttft-ms", "1000", "--timeline-out",
                                str(tmp_path / "tl.json")], reports=reports)
        assert one_s.render() == tables[1.0]
        # The same flag set the timeline's objective.
        _, report = reports["kv-cq-4"]
        assert report.timeline.config.slo == SLO(ttft_s=1.0)
        assert run(workload).render() == tables[2.0]


class TestBreakdown:
    def _doc(self):
        from repro.obs import to_perfetto
        trace = poisson_trace(60.0, 50, prompt=LengthSampler(mean=64),
                              output=LengthSampler(mean=16), seed=11)
        report = _run_serving(trace, trace_on=True, max_tokens=800.0,
                              admission="paged", block_tokens=8)
        return to_perfetto(report.tracer, name="bd-test"), report

    def test_segments_sum_to_latency(self):
        doc, _ = self._doc()
        rows = request_breakdowns(doc)
        assert rows
        for row in rows:
            total = (row["queued"] + row["prefill"] + row["stall"]
                     + row["decode"])
            assert total == pytest.approx(row["latency_s"], abs=1e-9)

    def test_summary_shares_sum_to_one(self):
        doc, _ = self._doc()
        summary = breakdown_summary(request_breakdowns(doc))
        assert sum(summary["shares"].values()) == pytest.approx(1.0)
        assert summary["tail_dominant_phase"] in (
            "queued", "prefill", "stall", "decode")

    def test_covers_every_completed_request(self):
        doc, report = self._doc()
        assert len(request_breakdowns(doc)) == len(report.records)


def _run_cli(*args, cwd=REPO, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", *args], capture_output=True,
        text=True, cwd=cwd, env={"PYTHONPATH": str(REPO / "src"),
                                 "PATH": "/usr/bin:/bin"})


class TestCLI:
    @pytest.fixture(scope="class")
    def timeline_trace(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tl") / "trace.json"
        proc = _run_cli("repro.bench.serving",
                        "--modes", "fp16", "--requests", "16",
                        "--timeline-out", str(out),
                        "--slo-ttft-ms", "200")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return out

    def test_timeline_out_writes_counter_tracks(self, timeline_trace):
        doc = json.loads(timeline_trace.read_text())
        counters = [e for e in doc["traceEvents"] if e.get("ph") == "C"]
        assert counters, "timeline must export Perfetto counter tracks"
        names = {e["name"] for e in counters}
        assert "timeline" in names and "kv_occupancy" in names

    def test_report_cli_runs_warning_free(self, timeline_trace):
        # runpy warns, an error here, if importing the package already
        # imported the CLI module it is about to run.
        proc = _run_cli("repro.obs.report", str(timeline_trace),
                        flags=("-W", "error"))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stderr == ""

    def test_report_dashboard_renders_sparklines(self, timeline_trace):
        proc = _run_cli("repro.obs.report", str(timeline_trace),
                        "--dashboard")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "# Dashboard" in proc.stdout
        assert any(c in proc.stdout for c in "▁▂▃▄▅▆▇█")

    def test_report_html_export(self, timeline_trace, tmp_path):
        out = tmp_path / "dash.html"
        proc = _run_cli("repro.obs.report", str(timeline_trace),
                        "--dashboard", "--html", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        body = out.read_text()
        assert body.startswith("<!DOCTYPE html>") and "<table>" in body

    def test_orchestrator_timeline_dir(self, tmp_path):
        out = tmp_path / "traj.json"
        tl_dir = tmp_path / "timelines"
        proc = _run_cli("repro.bench.orchestrator", "--preset", "mini",
                        "--out", str(out), "--timeline-dir", str(tl_dir))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        files = sorted(tl_dir.glob("*.timeline.json"))
        assert len(files) == 4  # the mini preset's 2x2 grid
        doc = json.loads(files[0].read_text())
        assert set(doc) >= {"trial_id", "timeline"}


class TestHistogramQuantiles:
    """The flat-dict p50/p95/p99 export (log-bucket interpolation)."""

    def _hist(self, values, **kw):
        from repro.obs.metrics import Histogram
        h = Histogram("h", **kw)
        for v in values:
            h.observe(v)
        return h

    def test_flat_exports_quantile_keys(self):
        h = self._hist([1.0, 2.0, 3.0])
        assert set(h.flat()) == {"h_count", "h_sum",
                                 "h_p50", "h_p95", "h_p99"}

    def test_empty_histogram_is_zero(self):
        assert self._hist([]).quantile(0.5) == 0.0

    def test_estimate_within_bucket_resolution(self):
        # With factor f, an estimate can be off by at most f relative.
        import random
        rng = random.Random(0)
        values = sorted(rng.uniform(0.01, 50.0) for _ in range(2000))
        h = self._hist(values, start=0.001, factor=2.0, n_buckets=32)
        for q in (0.5, 0.95, 0.99):
            exact = values[int(q * len(values)) - 1]
            est = h.quantile(q)
            assert exact / 2.0 <= est <= exact * 2.0

    def test_overflow_clamps_to_last_boundary(self):
        h = self._hist([100.0], start=1.0, factor=2.0, n_buckets=3)
        assert h.quantile(0.5) == h.boundaries[-1]

    def test_first_bucket_interpolates_from_zero(self):
        h = self._hist([0.5], start=1.0, factor=2.0, n_buckets=4)
        assert 0.0 < h.quantile(0.5) <= 1.0

    def test_monotone_in_q(self):
        import random
        rng = random.Random(1)
        h = self._hist([rng.lognormvariate(2, 1) for _ in range(500)])
        qs = [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0]
        ests = [h.quantile(q) for q in qs]
        assert ests == sorted(ests)

    def test_rejects_out_of_range(self):
        h = self._hist([1.0])
        with pytest.raises(ValueError):
            h.quantile(1.5)

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6),
                    min_size=1, max_size=200),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_estimate_brackets_exact_quantile(self, values, q):
        # The estimate must land inside the bucket that holds the
        # exact quantile value (overflow clamps to the last boundary).
        h = self._hist(values)
        est = h.quantile(q)
        rank = q * len(values)
        idx = max(math.ceil(rank) - 1, 0)
        exact = sorted(values)[idx]
        bucket = h.bucket_index(exact)
        if bucket == len(h.boundaries):
            assert est == h.boundaries[-1]
        else:
            lower = h.boundaries[bucket - 1] if bucket else 0.0
            assert lower <= est <= h.boundaries[bucket]

    def test_serving_metrics_gain_percentile_keys(self):
        trace = poisson_trace(40.0, 20, prompt=LengthSampler(mean=32),
                              output=LengthSampler(mean=8), seed=12)
        metrics = _run_serving(trace).metrics()
        for key in ("ttft_ms_p50", "ttft_ms_p95", "ttft_ms_p99",
                    "tpot_ms_p50", "latency_s_p99"):
            assert key in metrics
            assert math.isfinite(metrics[key])
