"""Orchestrator tests: grid expansion, determinism, trajectory store.

The golden 2x2 grid in ``TestGoldenDeterminism`` is the PR-6 analogue
of the PR-4/PR-5 golden tests: the persisted metric payload must be
byte-identical across reruns and across worker counts, because the
``BENCH_<pr>.json`` perf-trajectory convention compares floats exactly.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.orchestrator import (
    HIGHER_BETTER,
    LOWER_BETTER,
    PR_NUMBER,
    SCHEMA_VERSION,
    Delta,
    SweepConfig,
    Trajectory,
    TrajectoryError,
    TrialResult,
    TrialSpec,
    bench_path,
    compare,
    demo_config,
    find_previous,
    mini_config,
    render_report,
    run_sweep,
    run_trial,
)


# ----------------------------------------------------------------------
# TrialSpec
# ----------------------------------------------------------------------
class TestTrialSpec:
    def test_defaults_are_valid(self):
        spec = TrialSpec()
        assert spec.kind == "serving"
        assert spec.trial_id.startswith("serving/fp16/reserve/")

    @pytest.mark.parametrize("kwargs", [
        dict(kind="batch"),
        dict(mode="fp32"),
        dict(admission="greedy"),
        dict(trace_kind="uniform"),
        dict(policy="random"),
        dict(rate_rps=0.0),
        dict(n_requests=0),
        dict(n_replicas=0),
        dict(slo_ttft_s=0.0),
        dict(prefix_caching=True, admission="reserve"),
        dict(prefix_caching=True, admission="paged", trace_kind="poisson"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(TrajectoryError):
            TrialSpec(**kwargs)

    def test_trial_id_distinguishes_every_axis(self):
        base = TrialSpec()
        variants = [
            TrialSpec(mode="kv-cq-4"),
            TrialSpec(admission="paged"),
            TrialSpec(trace_kind="bursty"),
            TrialSpec(rate_rps=8.0),
            TrialSpec(seed=1),
            TrialSpec(kind="fleet"),
            TrialSpec(kind="fleet", n_replicas=2),
            TrialSpec(kind="fleet", policy="jsq"),
            TrialSpec(admission="paged", prefix_caching=True,
                      trace_kind="chat"),
        ]
        ids = {base.trial_id} | {v.trial_id for v in variants}
        assert len(ids) == len(variants) + 1

    def test_trial_seed_is_deterministic_and_distinct(self):
        a = TrialSpec(mode="fp16")
        b = TrialSpec(mode="kv-cq-4")
        assert a.trial_seed == TrialSpec(mode="fp16").trial_seed
        assert a.trial_seed != b.trial_seed
        assert 0 <= a.trial_seed < 2 ** 31

    def test_dict_round_trip(self):
        spec = TrialSpec(kind="fleet", mode="kv-cq-4", admission="paged",
                         n_replicas=3, policy="jsq", slo_ttft_s=2.0)
        assert TrialSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        data = TrialSpec().to_dict()
        data["warp_speed"] = 9
        with pytest.raises(TrajectoryError, match="warp_speed"):
            TrialSpec.from_dict(data)

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(TrajectoryError, match="object"):
            TrialSpec.from_dict(["fp16"])


# ----------------------------------------------------------------------
# SweepConfig
# ----------------------------------------------------------------------
class TestSweepConfig:
    def test_grid_expansion_skips_invalid_cells(self):
        config = SweepConfig(modes=("fp16", "kv-cq-4"),
                             admissions=("reserve", "paged"),
                             prefix_caching=(False, True),
                             trace_kinds=("chat",))
        trials = config.trials()
        # 2 modes x (reserve, paged, paged+prefix): prefix+reserve is
        # dropped, not an error.
        assert len(trials) == 6
        assert all(t.admission == "paged" for t in trials
                   if t.prefix_caching)

    def test_prefix_on_idless_trace_is_dropped(self):
        config = SweepConfig(modes=("fp16",), admissions=("paged",),
                             prefix_caching=(False, True),
                             trace_kinds=("poisson",))
        trials = config.trials()
        assert len(trials) == 1 and not trials[0].prefix_caching

    def test_all_invalid_grid_raises(self):
        config = SweepConfig(modes=("fp16",), admissions=("reserve",),
                             prefix_caching=(True,), trace_kinds=("chat",))
        with pytest.raises(TrajectoryError, match="zero valid trials"):
            config.trials()

    def test_serving_sweep_collapses_fleet_axes(self):
        config = SweepConfig(kind="serving", modes=("fp16",),
                             admissions=("reserve",),
                             fleet_sizes=(1, 2, 4),
                             policies=("round-robin", "jsq"))
        assert len(config.trials()) == 1

    def test_fleet_sweep_expands_fleet_axes(self):
        config = SweepConfig(kind="fleet", modes=("fp16",),
                             admissions=("reserve",),
                             fleet_sizes=(1, 2),
                             policies=("round-robin", "jsq"))
        assert len(config.trials()) == 4

    def test_empty_axis_rejected(self):
        with pytest.raises(TrajectoryError, match="empty"):
            SweepConfig(modes=())

    def test_scalar_axis_rejected(self):
        with pytest.raises(TrajectoryError, match="list of values"):
            SweepConfig(modes="fp16")

    def test_dict_round_trip(self):
        config = demo_config()
        assert SweepConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        data = mini_config().to_dict()
        data["granularity"] = "fine"
        with pytest.raises(TrajectoryError, match="granularity"):
            SweepConfig.from_dict(data)

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(mini_config().to_dict()))
        assert SweepConfig.from_json_file(path) == mini_config()

    def test_from_json_file_errors(self, tmp_path):
        with pytest.raises(TrajectoryError, match="cannot read"):
            SweepConfig.from_json_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(TrajectoryError, match="not valid JSON"):
            SweepConfig.from_json_file(bad)


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------
class TestRunTrial:
    def test_serving_trial_matches_direct_simulation(self):
        from repro.bench.serving import simulate_mode

        spec = TrialSpec(mode="fp16", n_requests=16, prompt_mean=128,
                         output_mean=32)
        result = run_trial(spec)
        direct = simulate_mode("fp16", rate_rps=spec.rate_rps,
                               n_requests=16, prompt_mean=128,
                               output_mean=32, seed=spec.trial_seed)
        assert result.metrics == direct.metrics()
        assert result.trial_id == spec.trial_id
        assert result.wall_time_s > 0

    def test_fleet_trial_reports_fleet_metrics(self):
        spec = TrialSpec(kind="fleet", mode="fp16", n_replicas=2,
                         policy="jsq", n_requests=12, prompt_mean=128,
                         output_mean=32, rate_rps=8.0, slo_ttft_s=2.0)
        result = run_trial(spec)
        assert result.metrics["n_replicas"] == 2
        assert "goodput_rps" in result.metrics
        assert "slo_attainment" in result.metrics
        assert result.metrics["n_requests"] == 12

    def test_fleet_trial_honours_kv_hbm_gb(self):
        """A fleet replica gets the KV budget a serving trial of the
        same spec gets: occupancy halves when ``kv_hbm_gb`` doubles,
        and a one-replica fleet matches the single engine."""
        from repro.bench.serving import simulate_mode

        load = dict(n_requests=12, prompt_mean=128, output_mean=32,
                    rate_rps=8.0)
        occupancy = {}
        for gb in (1.0, 2.0):
            spec = TrialSpec(kind="fleet", n_replicas=1, kv_hbm_gb=gb,
                             **load)
            metrics = run_trial(spec).metrics
            occupancy[gb] = metrics['kv_peak_occupancy{replica="0"}']
        assert occupancy[1.0] == pytest.approx(2 * occupancy[2.0],
                                               rel=1e-3)
        direct = simulate_mode("fp16", kv_hbm_gb=1.0,
                               seed=spec.trial_seed, **load)
        assert direct.peak_kv_occupancy == occupancy[1.0]

    def test_metrics_are_json_safe_scalars(self):
        result = run_trial(TrialSpec(n_requests=8, prompt_mean=64,
                                     output_mean=16))
        for name, value in result.metrics.items():
            assert isinstance(value, (int, float)), name
            assert not isinstance(value, bool), name
        json.dumps(result.to_dict())


#: Pinned 2x2 mini grid for the golden determinism test (fp16-only so
#: the test never pays codebook training; the mode axis is covered by
#: the demo grid and examples).
GOLDEN_GRID = SweepConfig(
    name="golden-2x2",
    kind="serving",
    modes=("fp16", "qserve"),
    admissions=("reserve", "paged"),
    trace_kinds=("poisson",),
    rates=(16.0,),
    n_requests=24,
    prompt_mean=128,
    output_mean=32,
    seed=0,
)


class TestGoldenDeterminism:
    """Persisted metrics are bit-identical across runs and worker counts."""

    def _persisted_metrics(self, tmp_path, name, workers):
        trajectory = run_sweep(GOLDEN_GRID, workers=workers)
        path = trajectory.save(tmp_path / name)
        data = json.loads(path.read_text())
        return {t["trial_id"]: t["metrics"] for t in data["trials"]}

    def test_grid_shape(self):
        trials = GOLDEN_GRID.trials()
        assert len(trials) == 4
        assert {(t.mode, t.admission) for t in trials} == {
            ("fp16", "reserve"), ("fp16", "paged"),
            ("qserve", "reserve"), ("qserve", "paged")}

    def test_parallel_rerun_is_bit_identical(self, tmp_path):
        first = self._persisted_metrics(tmp_path, "a.json", workers=2)
        second = self._persisted_metrics(tmp_path, "b.json", workers=2)
        assert first == second  # exact float equality, post-JSON
        assert len(first) == 4

    def test_serial_equals_parallel(self, tmp_path):
        serial = self._persisted_metrics(tmp_path, "s.json", workers=1)
        parallel = self._persisted_metrics(tmp_path, "p.json", workers=2)
        assert serial == parallel

    def test_trials_are_ordered_by_grid_not_completion(self, tmp_path):
        trajectory = run_sweep(GOLDEN_GRID, workers=2)
        assert ([t.trial_id for t in trajectory.trials]
                == [s.trial_id for s in GOLDEN_GRID.trials()])

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(GOLDEN_GRID, workers=0)


# ----------------------------------------------------------------------
# Trajectory store: round trips and malformed-file rejection
# ----------------------------------------------------------------------
_METRIC_VALUES = st.one_of(
    st.integers(min_value=-10 ** 9, max_value=10 ** 9),
    st.floats(min_value=-1e9, max_value=1e9,
              allow_nan=False, allow_infinity=False))

_SPECS = st.builds(
    TrialSpec,
    mode=st.sampled_from(("fp16", "kv-cq-4", "kv-cq-2", "qserve")),
    admission=st.sampled_from(("reserve", "paged")),
    trace_kind=st.sampled_from(("poisson", "bursty")),
    rate_rps=st.floats(min_value=0.5, max_value=64.0, allow_nan=False),
    n_requests=st.integers(min_value=1, max_value=512),
    n_replicas=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(("serving", "fleet")),
    policy=st.sampled_from(("round-robin", "jsq", "least-kv")),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)

_METRICS = st.dictionaries(
    st.sampled_from(sorted(HIGHER_BETTER | LOWER_BETTER
                           | {"makespan_s", "peak_seqs"})),
    _METRIC_VALUES, min_size=1, max_size=8)


def _trajectory_from(specs, metrics_list, extra=None):
    trials = [TrialResult(spec=s, metrics=m, wall_time_s=0.0)
              for s, m in zip(specs, metrics_list)]
    return Trajectory(pr=PR_NUMBER, name="prop", config={},
                      trials=trials, git_sha="abc123",
                      extra=dict(extra or {}))


class TestTrajectoryRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(specs=st.lists(_SPECS, min_size=1, max_size=6,
                          unique_by=lambda s: s.trial_id),
           data=st.data())
    def test_save_load_is_lossless(self, tmp_path_factory, specs, data):
        metrics_list = [data.draw(_METRICS) for _ in specs]
        trajectory = _trajectory_from(specs, metrics_list)
        path = tmp_path_factory.mktemp("traj") / "t.json"
        trajectory.save(path)
        loaded = Trajectory.load(path)
        assert loaded.to_dict() == trajectory.to_dict()
        assert loaded.metrics_by_trial() == trajectory.metrics_by_trial()

    @settings(max_examples=25, deadline=None)
    @given(extra=st.dictionaries(
        st.text(min_size=1, max_size=12).filter(
            lambda k: k not in Trajectory._KNOWN_FIELDS),
        st.one_of(st.integers(), st.text(max_size=8),
                  st.lists(st.integers(), max_size=3)),
        max_size=4))
    def test_unknown_top_level_fields_survive(self, tmp_path_factory,
                                              extra):
        trajectory = _trajectory_from([TrialSpec()], [{"makespan_s": 1.0}],
                                      extra=extra)
        path = tmp_path_factory.mktemp("traj") / "t.json"
        trajectory.save(path)
        loaded = Trajectory.load(path)
        assert loaded.extra == extra
        # And they survive a second save.
        loaded.save(path)
        assert Trajectory.load(path).extra == extra

    def test_schema_version_is_persisted(self, tmp_path):
        path = _trajectory_from([TrialSpec()],
                                [{"makespan_s": 1.0}]).save(tmp_path / "t")
        assert json.loads(path.read_text())["schema_version"] \
            == SCHEMA_VERSION


def _valid_payload():
    return _trajectory_from([TrialSpec()], [{"makespan_s": 1.0}]).to_dict()


def _corruptions():
    """(name, corrupted JSON text) cases a loader must reject clearly."""
    cases = []

    def case(name, mutate):
        data = _valid_payload()
        replacement = mutate(data)
        text = json.dumps(replacement if replacement is not None else data)
        cases.append(pytest.param(text, id=name))

    cases.append(pytest.param("{truncated", id="not-json"))
    cases.append(pytest.param("[1, 2]", id="top-level-list"))
    case("missing-schema-version",
         lambda d: d.pop("schema_version") and None)
    case("string-schema-version",
         lambda d: d.update(schema_version="one") or None)
    case("bool-schema-version",
         lambda d: d.update(schema_version=True) or None)
    case("newer-schema",
         lambda d: d.update(schema_version=SCHEMA_VERSION + 1) or None)
    case("missing-trials", lambda d: d.pop("trials") and None)
    case("trials-not-list", lambda d: d.update(trials={}) or None)
    case("missing-pr", lambda d: d.pop("pr") and None)
    case("config-not-object", lambda d: d.update(config=[1]) or None)
    case("trial-not-object",
         lambda d: d.update(trials=["fp16"]) or None)
    case("trial-missing-spec",
         lambda d: d["trials"][0].pop("spec") and None)
    case("trial-missing-metrics",
         lambda d: d["trials"][0].pop("metrics") and None)
    case("metrics-not-object",
         lambda d: d["trials"][0].update(metrics=[1.0]) or None)
    case("metric-value-string",
         lambda d: d["trials"][0]["metrics"].update(makespan_s="fast")
         or None)
    case("metric-value-bool",
         lambda d: d["trials"][0]["metrics"].update(makespan_s=True)
         or None)
    case("spec-unknown-field",
         lambda d: d["trials"][0]["spec"].update(quantum=1) or None)
    case("spec-invalid-mode",
         lambda d: d["trials"][0]["spec"].update(mode="fp64") or None)
    case("trial-id-spec-mismatch",
         lambda d: d["trials"][0].update(trial_id="serving/other") or None)
    case("duplicate-trial-ids",
         lambda d: d.update(trials=[d["trials"][0], d["trials"][0]])
         or None)
    case("wall-time-string",
         lambda d: d["trials"][0].update(wall_time_s="slow") or None)
    return cases


class TestMalformedTrajectories:
    @pytest.mark.parametrize("text", _corruptions())
    def test_rejected_with_trajectory_error(self, text, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(TrajectoryError) as exc:
            Trajectory.load(path)
        assert str(exc.value)  # a reason, not a bare stack trace

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(TrajectoryError, match="nowhere.json"):
            Trajectory.load(tmp_path / "nowhere.json")

    def test_older_schema_is_accepted(self, tmp_path):
        data = _valid_payload()
        data["schema_version"] = 0
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert Trajectory.load(path).schema_version == 0


class TestTrajectoryDiscovery:
    def test_bench_path(self, tmp_path):
        assert bench_path(tmp_path, 7).name == "BENCH_7.json"
        assert bench_path(tmp_path).name == f"BENCH_{PR_NUMBER}.json"

    def test_find_previous_picks_newest_older(self, tmp_path):
        for n in (3, 5, 6, 9):
            (tmp_path / f"BENCH_{n}.json").write_text("{}")
        (tmp_path / "BENCH_x.json").write_text("{}")
        assert find_previous(tmp_path, pr=6).name == "BENCH_5.json"
        assert find_previous(tmp_path, pr=10).name == "BENCH_9.json"
        assert find_previous(tmp_path, pr=3) is None

    def test_find_previous_empty_dir(self, tmp_path):
        assert find_previous(tmp_path) is None


# ----------------------------------------------------------------------
# Deltas and the markdown report
# ----------------------------------------------------------------------
class TestDeltas:
    def test_direction_higher_better(self):
        worse = Delta("t", "throughput_rps", before=10.0, after=9.0)
        better = Delta("t", "throughput_rps", before=10.0, after=11.0)
        assert worse.is_regression(0.05) and not worse.is_improvement(0.05)
        assert better.is_improvement(0.05) and not better.is_regression(0.05)

    def test_direction_lower_better(self):
        worse = Delta("t", "ttft_p50_ms", before=100.0, after=120.0)
        assert worse.is_regression(0.05)
        assert not worse.is_regression(0.25)  # within a loose tolerance

    def test_non_directional_metrics_never_flag(self):
        d = Delta("t", "peak_seqs", before=1.0, after=100.0)
        assert not d.is_regression(0.0) and not d.is_improvement(0.0)

    def test_zero_baseline(self):
        assert Delta("t", "ttft_p50_ms", 0.0, 1.0).rel_change \
            == float("inf")
        assert Delta("t", "ttft_p50_ms", 0.0, 0.0).rel_change == 0.0

    def test_compare_joins_on_trial_id(self):
        spec_a, spec_b = TrialSpec(), TrialSpec(mode="kv-cq-4")
        current = _trajectory_from(
            [spec_a, spec_b],
            [{"throughput_rps": 8.0, "peak_seqs": 4},
             {"throughput_rps": 12.0}])
        previous = _trajectory_from([spec_a], [{"throughput_rps": 10.0}])
        deltas = compare(current, previous)
        assert [(d.trial_id, d.metric) for d in deltas] \
            == [(spec_a.trial_id, "throughput_rps")]
        assert deltas[0].is_regression(0.05)


class TestRenderReport:
    def _pair(self, before, after):
        spec = TrialSpec()
        return (_trajectory_from([spec], [after]),
                _trajectory_from([spec], [before]))

    def test_no_previous_names_the_convention(self):
        current, _ = self._pair({}, {"throughput_rps": 8.0})
        text = render_report(current, None)
        assert "starts the perf-trajectory convention" in text
        assert f"PR {PR_NUMBER}" in text

    def test_regression_is_flagged(self):
        current, previous = self._pair({"throughput_rps": 10.0},
                                       {"throughput_rps": 8.0})
        text = render_report(current, previous, tolerance=0.05)
        assert "**REGRESSION**" in text
        assert "throughput_rps" in text

    def test_within_tolerance_is_clean(self):
        current, previous = self._pair({"throughput_rps": 10.0},
                                       {"throughput_rps": 9.9})
        text = render_report(current, previous, tolerance=0.05)
        assert "**REGRESSION**" not in text
        assert "No regressions beyond tolerance." in text

    def test_unmatched_trials_are_named(self):
        current = _trajectory_from([TrialSpec()], [{"throughput_rps": 1.0}])
        previous = _trajectory_from([TrialSpec(mode="kv-cq-4")],
                                    [{"throughput_rps": 1.0}])
        text = render_report(current, previous)
        assert "only in current" in text and "only in previous" in text


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestOrchestratorCLI:
    def test_mini_preset_writes_trajectory_and_report(self, tmp_path,
                                                      capsys):
        from repro.bench.orchestrator import main

        out = tmp_path / "BENCH_6.json"
        assert main(["--preset", "mini", "--out", str(out)]) == 0
        trajectory = Trajectory.load(out)
        assert len(trajectory.trials) == 4
        report = (tmp_path / "BENCH_6.md").read_text()
        assert "## Trials" in report
        assert "starts the perf-trajectory convention" in report
        assert "trajectory ->" in capsys.readouterr().out

    def test_check_fails_on_regression_vs_baseline(self, tmp_path, capsys):
        from repro.bench.orchestrator import main

        out = tmp_path / "BENCH_6.json"
        assert main(["--preset", "mini", "--out", str(out)]) == 0
        # Fabricate a baseline claiming far higher throughput: the
        # rerun must flag regressions and fail under --check.
        baseline = Trajectory.load(out)
        for trial in baseline.trials:
            trial.metrics["throughput_rps"] *= 100.0
        base_path = baseline.save(tmp_path / "BENCH_5.json")
        code = main(["--preset", "mini", "--out", str(out),
                     "--baseline", str(base_path), "--check"])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_auto_discovers_previous_bench_file(self, tmp_path, capsys):
        from repro.bench.orchestrator import main

        out = tmp_path / "BENCH_6.json"
        assert main(["--preset", "mini", "--out", str(out)]) == 0
        previous = Trajectory.load(out)
        previous.pr = 5
        previous.save(tmp_path / "BENCH_5.json")
        assert main(["--preset", "mini", "--out", str(out),
                     "--check"]) == 0
        text = capsys.readouterr().out
        assert "BENCH_5.json" in text
        assert "no regressions beyond tolerance" in text

    def test_config_file_round_trip(self, tmp_path):
        from repro.bench.orchestrator import main

        cfg = tmp_path / "sweep.json"
        data = mini_config().to_dict()
        data["modes"] = ["fp16"]
        cfg.write_text(json.dumps(data))
        out = tmp_path / "BENCH_6.json"
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        assert len(Trajectory.load(out).trials) == 2
