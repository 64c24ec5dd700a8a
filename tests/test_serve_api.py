"""Config facade tests: defaults, ``build`` wiring, and the ``Report``
base both simulators' reports share.

The ``repro.serve.api`` configs are the one construction surface of
schedulers and simulators.
"""

import dataclasses
import math

import pytest

from repro.cluster.fleet import FleetReport
from repro.serve.api import FleetConfig, SchedulerConfig, SimConfig
from repro.serve.requests import Request
from repro.serve.scheduler import ContinuousBatchScheduler, KVBudget
from repro.serve.simulator import Report, ServingReport


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
    def test_defaults_without_warning(self, recwarn):
        sched = ContinuousBatchScheduler(_budget())
        assert sched.config == SchedulerConfig()
        assert not [w for w in recwarn
                    if issubclass(w.category, DeprecationWarning)]

    def test_build(self):
        sched = SchedulerConfig(max_seqs=3).build(_budget())
        assert isinstance(sched, ContinuousBatchScheduler)
        assert sched.max_seqs == 3

    def test_frozen(self):
        with pytest.raises(Exception):
            SchedulerConfig().token_budget = 1


class TestSimConfig:
    def test_build_wires_scheduler_and_cap(self):
        cfg = SimConfig(scheduler=SchedulerConfig(max_seqs=2),
                        name="built", max_iterations=7)
        sim = cfg.build(_budget(), ConstantCostModel())
        assert sim.name == "built"
        assert sim.scheduler.max_seqs == 2
        with pytest.raises(RuntimeError, match="7 iterations"):
            sim.run(_trace(64))


class TestFleetConfig:
    def test_build_and_with_policy(self):
        cfg = FleetConfig(scheduler=SchedulerConfig(max_seqs=4),
                          name="fleet")
        sim = dataclasses.replace(cfg, policy="round-robin").build(
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
