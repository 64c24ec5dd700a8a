"""Adaptive-heuristics tests (Tbl. IV levels and knob selection)."""

import pytest

from repro.core.cache import CacheBoundaries
from repro.core.heuristics import (
    LEVELS,
    PlanKnobs,
    choose_knobs,
    knobs_for_all_levels,
    limit_register_entries,
)
from repro.core.hotness import profile_hotness
from repro.core.slack import find_slack
from repro.gpu.spec import RTX4090
from repro.vq.algorithms import make_config

#: Slack of the GEMV base shape (256 threads, 52 registers, 8 KiB).
GEMV_SLACK = find_slack(RTX4090, 256, 52, 8192)


@pytest.fixture(scope="module")
def gptvq_profile(qt_gptvq):
    return profile_hotness(qt_gptvq)


def _knobs(level, profile, algo="gptvq-2", books=1):
    return choose_knobs(level, make_config(algo), profile, GEMV_SLACK,
                        resident_books=books)


class TestLevels:
    def test_gc_is_global_placement(self, gptvq_profile):
        knobs = _knobs("GC", gptvq_profile)
        assert knobs.placement == "global"
        assert not knobs.dataflow
        assert not knobs.register_fusion

    def test_sc_is_shared_all(self, gptvq_profile):
        assert _knobs("SC", gptvq_profile).placement == "shared_all"

    def test_o1_has_no_register_level(self, gptvq_profile):
        knobs = _knobs("O1", gptvq_profile)
        assert knobs.placement == "hierarchical"
        assert knobs.boundaries.n_reg == 0

    def test_o2_adds_register_level_when_hot(self, qt_aqlm):
        profile = profile_hotness(qt_aqlm)
        knobs = choose_knobs("O2", make_config("aqlm-3"), profile,
                             GEMV_SLACK)
        if profile.hot_entries() > 0:
            assert knobs.boundaries.n_reg > 0
        assert knobs.boundaries.n_reg <= profile.hot_entries()

    def test_o3_enables_dataflow(self, gptvq_profile):
        knobs = _knobs("O3", gptvq_profile)
        assert knobs.dataflow
        assert not knobs.dataflow_adaptive
        assert not knobs.register_fusion

    def test_o4_is_fully_adaptive(self, gptvq_profile):
        knobs = _knobs("O4", gptvq_profile)
        assert knobs.dataflow and knobs.dataflow_adaptive
        assert knobs.register_fusion

    def test_levels_are_cumulative_labels(self, gptvq_profile):
        all_knobs = knobs_for_all_levels(make_config("gptvq-2"),
                                         gptvq_profile, GEMV_SLACK)
        assert set(all_knobs) == set(LEVELS)
        for level, knobs in all_knobs.items():
            assert knobs.label == level

    def test_unknown_level_rejected(self, gptvq_profile):
        with pytest.raises(ValueError):
            _knobs("O9", gptvq_profile)

    def test_more_resident_books_shrink_shared_boundary(self,
                                                        gptvq_profile):
        one = _knobs("O1", gptvq_profile, books=1)
        many = _knobs("O1", gptvq_profile, books=16)
        assert many.boundaries.n_shared <= one.boundaries.n_shared

    def test_boundaries_override(self, gptvq_profile):
        override = CacheBoundaries(2, 128)
        knobs = choose_knobs("O4", make_config("gptvq-2"), gptvq_profile,
                             GEMV_SLACK, boundaries_override=override)
        assert knobs.boundaries == override


class TestPlanKnobs:
    def test_hierarchical_requires_boundaries(self):
        with pytest.raises(ValueError):
            PlanKnobs(label="x", placement="hierarchical")

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            PlanKnobs(label="x", placement="l2")

    def test_limit_register_entries(self):
        knobs = PlanKnobs(label="x", placement="hierarchical",
                          boundaries=CacheBoundaries(16, 128))
        clamped = limit_register_entries(knobs, 4)
        assert clamped.boundaries.n_reg == 4
        assert clamped.boundaries.n_shared == 128

    def test_limit_register_entries_noop_for_gc(self):
        knobs = PlanKnobs(label="GC", placement="global")
        assert limit_register_entries(knobs, 4) is knobs
