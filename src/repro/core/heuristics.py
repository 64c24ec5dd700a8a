"""Adaptive heuristics (the "Adaptive Heuristics" box of Fig. 7).

All parameter selection for generated kernels happens here:

- cache boundaries ``n_reg`` / ``n_shared`` from resource slack;
- dataflow split factor from the traffic-balance equation;
- fusion level from the shuffle count vs the profiled threshold.

The module also defines :class:`PlanKnobs`, the full parameterisation of
a fused VQ kernel, and the named optimization levels of the paper's
breakdown study (Tbl. IV): GC, SC, O1, O2, O3, O4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.core.cache import CacheBoundaries, plan_boundaries
from repro.core.fusion import SHUFFLE_THRESHOLD
from repro.core.hotness import HotnessProfile
from repro.core.slack import ResourceSlack
from repro.vq.config import VQConfig

#: Ablation levels of Tbl. IV, in cumulative order.
LEVELS = ("GC", "SC", "O1", "O2", "O3", "O4")


@dataclass(frozen=True)
class PlanKnobs:
    """Complete parameterisation of one fused VQ kernel plan.

    ``placement`` is where codebook entries live:

    - ``global`` — all entries in global memory (the GC baseline);
    - ``shared_all`` — all entries cached in shared memory (SC);
    - ``hierarchical`` — registers / shared / global split at the
      ``boundaries`` (the codebook cache, O1 with ``n_reg = 0``, O2
      with ``n_reg > 0``).
    """

    label: str
    placement: str
    boundaries: Optional[CacheBoundaries] = None
    #: Use the codebook-centric dataflow (O3+).
    dataflow: bool = False
    #: Let the kernel skip dataflow transforms whose modelled cost
    #: exceeds their benefit (the adaptive split-factor heuristic; the
    #: O3 ablation level forces the dataflow on, O4 enables adaptivity).
    dataflow_adaptive: bool = False
    #: Allow register-level fusion where the shuffle count permits (O4).
    register_fusion: bool = False
    #: Override of the fusion threshold (tests/ablations).
    shuffle_threshold: int = SHUFFLE_THRESHOLD

    def __post_init__(self):
        if self.placement not in ("global", "shared_all", "hierarchical"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.placement == "hierarchical" and self.boundaries is None:
            raise ValueError("hierarchical placement requires boundaries")


@dataclass(frozen=True)
class HeuristicReport:
    """The per-configuration factors of Tbl. V, for one kernel plan."""

    algorithm: str
    operation: str
    codebook_per_block_bytes: float
    hot_entries: int
    output_per_block_bytes: float
    n_shuffles: int
    slack: ResourceSlack
    boundaries: CacheBoundaries


def choose_knobs(
    level: str,
    config: VQConfig,
    profile: HotnessProfile,
    slack: ResourceSlack,
    resident_books: int = 1,
    boundaries_override: Optional[CacheBoundaries] = None,
) -> PlanKnobs:
    """Build the knobs for a named optimization level.

    ``level`` is one of GC / SC / O1 / O2 / O3 / O4 (Tbl. IV); ``O4``
    is the complete VQ-LLM configuration the generator uses by default.
    ``slack`` is the :func:`~repro.core.slack.find_slack` result for
    the computation's base resources, those it needs *without* the
    codebook; ``resident_books`` is how many codebooks one block keeps
    resident simultaneously (CQ: one per channel group of the head).
    """
    level = level.upper()
    if level not in LEVELS:
        raise ValueError(f"unknown optimization level {level!r}; "
                         f"expected one of {LEVELS}")
    if level == "GC":
        return PlanKnobs(label="GC", placement="global")
    if level == "SC":
        return PlanKnobs(label="SC", placement="shared_all")

    if boundaries_override is not None:
        bounds = boundaries_override
    else:
        bounds = plan_boundaries(slack, config.entry_bytes,
                                 config.lookup_entries,
                                 resident_books=resident_books,
                                 hot_entries=profile.hot_entries())
    if level == "O1":
        # Shared-level caching only: no register-resident entries; the
        # shared budget is re-planned without the register level.
        o1_bounds = plan_boundaries(slack, config.entry_bytes,
                                    config.lookup_entries,
                                    resident_books=resident_books,
                                    hot_entries=0)
        if boundaries_override is not None:
            o1_bounds = CacheBoundaries(0, boundaries_override.n_shared)
        return PlanKnobs(label="O1", placement="hierarchical",
                         boundaries=o1_bounds)
    if level == "O2":
        return PlanKnobs(label="O2", placement="hierarchical",
                         boundaries=bounds)
    if level == "O3":
        return PlanKnobs(label="O3", placement="hierarchical",
                         boundaries=bounds, dataflow=True)
    return PlanKnobs(label="O4", placement="hierarchical",
                     boundaries=bounds, dataflow=True,
                     dataflow_adaptive=True, register_fusion=True)


def knobs_for_all_levels(config, profile, slack: ResourceSlack,
                         resident_books: int = 1) -> dict:
    """Knobs for every Tbl. IV level, keyed by label."""
    return {
        level: choose_knobs(level, config, profile, slack,
                            resident_books=resident_books)
        for level in LEVELS
    }


def limit_register_entries(knobs: PlanKnobs, max_entries: int) -> PlanKnobs:
    """Clamp the register-resident entry count (engine-side reservation)."""
    if knobs.boundaries is None:
        return knobs
    b = knobs.boundaries
    n_reg = min(b.n_reg, max_entries)
    return replace(knobs, boundaries=CacheBoundaries(n_reg, b.n_shared))
