"""Config facade tests: legacy-kwarg equivalence, deprecation, Report.

The ``repro.serve.api`` configs are the public construction surface;
the old per-constructor kwarg sprawl must keep working for one PR
cycle, warn, and produce *identical* simulations.
"""

import math

import pytest

from repro.cluster.fleet import FleetReport, FleetSimulator, Replica
from repro.serve.api import FleetConfig, Report, SchedulerConfig, SimConfig
from repro.serve.requests import Request
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget
from repro.serve.simulator import ServingReport, ServingSimulator


class ConstantCostModel:
    def __init__(self, step_us=1000.0):
        self._us = step_us

    def step_us(self, plan):
        return self._us

    def repeat_room(self, plan):
        return math.inf  # a constant cost never changes


def _budget():
    return KVBudget(capacity_bytes=1e5, bytes_per_token=1.0)


def _trace(n=12, gap=0.002):
    return [Request(req_id=i, arrival_s=i * gap, prompt_tokens=24,
                    output_tokens=6) for i in range(n)]


class TestSchedulerConfig:
    def test_legacy_kwargs_warn_and_match_config(self):
        with pytest.warns(DeprecationWarning, match="SchedulerConfig"):
            legacy = ContinuousBatchScheduler(_budget(), token_budget=128,
                                              max_seqs=4)
        config = ContinuousBatchScheduler(
            _budget(), config=SchedulerConfig(token_budget=128, max_seqs=4))
        assert legacy.config == config.config
        # Identical runs, metric for metric.
        reports = []
        for sched in (legacy, config):
            sim = ServingSimulator(sched, ConstantCostModel(),
                                   config=SimConfig(name="eq"))
            reports.append(sim.run(_trace()).metrics())
        assert reports[0] == reports[1]

    def test_defaults_without_warning(self, recwarn):
        sched = ContinuousBatchScheduler(_budget())
        assert sched.config == SchedulerConfig()
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]

    def test_config_plus_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            ContinuousBatchScheduler(_budget(), token_budget=128,
                                     config=SchedulerConfig())

    def test_build(self):
        sched = SchedulerConfig(max_seqs=3).build(_budget())
        assert isinstance(sched, ContinuousBatchScheduler)
        assert sched.max_seqs == 3

    def test_frozen(self):
        with pytest.raises(Exception):
            SchedulerConfig().token_budget = 1


class TestSimConfig:
    def test_legacy_name_warns_and_matches(self):
        sched_cfg = SchedulerConfig(token_budget=128)
        with pytest.warns(DeprecationWarning, match="SimConfig"):
            legacy = ServingSimulator(sched_cfg.build(_budget()),
                                      ConstantCostModel(), name="x")
        config = ServingSimulator(sched_cfg.build(_budget()),
                                  ConstantCostModel(),
                                  config=SimConfig(name="x"))
        assert legacy.name == config.name == "x"
        assert (legacy.run(_trace()).metrics()
                == config.run(_trace()).metrics())

    def test_config_plus_legacy_rejected(self):
        with pytest.raises(TypeError, match="not both"):
            ServingSimulator(SchedulerConfig().build(_budget()),
                             ConstantCostModel(), name="x",
                             config=SimConfig())

    def test_build_wires_scheduler_and_cap(self):
        cfg = SimConfig(scheduler=SchedulerConfig(max_seqs=2),
                        name="built", max_iterations=7)
        sim = cfg.build(_budget(), ConstantCostModel())
        assert sim.name == "built"
        assert sim.scheduler.max_seqs == 2
        with pytest.raises(RuntimeError, match="7 iterations"):
            sim.run(_trace(64))


class TestFleetConfig:
    def test_legacy_kwargs_warn_and_match(self):
        cost = ConstantCostModel()
        sched_cfg = SchedulerConfig(token_budget=256, max_seqs=8)

        def replicas():
            return [Replica(i, sched_cfg.build(_budget()), cost)
                    for i in range(2)]

        with pytest.warns(DeprecationWarning, match="FleetConfig"):
            legacy = FleetSimulator(replicas(), policy="jsq", name="f")
        config = FleetSimulator(replicas(),
                                config=FleetConfig(policy="jsq", name="f"))
        assert legacy.name == config.name == "f"
        assert (legacy.run(_trace()).metrics()
                == config.run(_trace()).metrics())

    def test_config_plus_legacy_rejected(self):
        sched = SchedulerConfig().build(_budget())
        with pytest.raises(TypeError, match="not both"):
            FleetSimulator([Replica(0, sched, ConstantCostModel())],
                           policy="jsq", config=FleetConfig())

    def test_build_and_with_policy(self):
        cfg = FleetConfig(scheduler=SchedulerConfig(max_seqs=4),
                          name="fleet")
        sim = cfg.with_policy("round-robin").build(
            3, _budget(), ConstantCostModel(), name="fleet-3")
        assert sim.name == "fleet-3"
        assert sim.policy.name == "round-robin"
        assert len(sim.replicas) == 3
        assert all(r.scheduler.max_seqs == 4 for r in sim.replicas)
        report = sim.run(_trace())
        assert report.n_requests == 12


class TestReportProtocol:
    def test_both_reports_satisfy_protocol(self):
        sim = SimConfig(scheduler=SchedulerConfig(token_budget=128)).build(
            _budget(), ConstantCostModel())
        serving = sim.run(_trace())
        fleet = FleetConfig(scheduler=SchedulerConfig(token_budget=128)) \
            .build(2, _budget(), ConstantCostModel()).run(_trace())
        assert isinstance(serving, ServingReport)
        assert isinstance(fleet, FleetReport)
        for report in (serving, fleet):
            assert isinstance(report, Report)
            m = report.metrics()
            assert m and all(isinstance(v, (int, float))
                             for v in m.values())
            assert isinstance(report.summary(), str)

    def test_protocol_rejects_non_reports(self):
        assert not isinstance(object(), Report)
