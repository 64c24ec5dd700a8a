"""Golden bit-identical tests guarding the fast-path refactor.

``tests/data/golden_fastpath.json`` was recorded with
``tools/record_goldens.py`` on the pre-refactor simulator (a lockstep
loop advancing every replica to each arrival, unmemoized cost model,
object-at-a-time scheduler).  These tests recompute the same scenarios
through the current code and require every reported metric to
round-trip *equal* — JSON serialises Python floats losslessly, so
equality here is bit-identity of the simulation output, not a
tolerance check.

Covered scenarios (see the recorder for the pinned workloads):

- the PR-1 seed serving scenario (fp16 / kv-cq-4 x reserve / paged,
  real RTX 4090 cost model);
- the PR-5 prefix-caching chat scenario (paged blocks + radix tree);
- a 3-replica fleet under ``jsq`` and ``least-kv`` routing, including
  per-replica iteration and request counts (the event-heap rewrite must
  not change which replica runs which iteration);
- a fleet-sizing scenario (smallest SLO-compliant kv-cq-4 fleet).
"""

import importlib.util
import json
import os

import pytest

_HERE = os.path.dirname(__file__)
_GOLDEN_PATH = os.path.join(_HERE, "data", "golden_fastpath.json")
_RECORDER_PATH = os.path.join(_HERE, os.pardir, "tools",
                              "record_goldens.py")


def _load_recorder():
    spec = importlib.util.spec_from_file_location("record_goldens",
                                                  _RECORDER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    with open(_GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def recomputed():
    recorder = _load_recorder()
    # Round-trip through JSON so float/int representations match the
    # stored golden exactly (what the orchestrator persists).
    return json.loads(json.dumps(recorder.record(), sort_keys=True))


def test_seed_scenario_bit_identical(golden, recomputed):
    assert recomputed["seed"] == golden["seed"]


def test_prefix_scenario_bit_identical(golden, recomputed):
    assert recomputed["prefix"] == golden["prefix"]


def test_fleet_scenario_bit_identical(golden, recomputed):
    assert recomputed["fleet"] == golden["fleet"]


def test_sizing_scenario_bit_identical(golden, recomputed):
    assert recomputed["sizing"] == golden["sizing"]
