"""The per-request SLO and multi-window burn-rate monitoring.

:class:`SLO` is the one per-request objective, a time-to-first-token
limit, and :meth:`SLO.met_by` the one rule every account judges with:
the timeline's per-window violation counts and the fleet's
attainment, goodput and compliance
(:class:`~repro.cluster.fleet.FleetReport`).  Its two constants are
the objective levels: sizing holds the p95 TTFT to the limit, and the
error budget lets 1% of completions miss it.

The SRE playbook's alerting strategy, applied to simulated serving:
define an *error budget* from the attainment target (99% of
completions must meet the limit → 1% may violate), then alert on the
*burn rate* — the ratio of the observed violation fraction to the
budget — evaluated over a pair of trailing windows.  A **long**
window makes the alert represent real budget spend; a **short**
window makes it reset quickly once the incident drains (without it,
a long-window alert stays red long after recovery).  A rule fires
when *both* windows burn above its factor and clears when either
drops back below.

:func:`slo_report` reads a :class:`~repro.obs.timeline.Timeline`
recorded with ``TimelineConfig(slo=...)`` and returns an
:class:`SLOReport`: the budget account plus fire/clear
:class:`SLOAlert` events, which the serving/fleet reports attach and
the Perfetto export renders as instants.  It runs once at end of run
over closed windows — never in the simulation hot loop — and is a
pure function of the timeline, so report metrics stay bit-identical
whether it ran or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, List, Optional

if TYPE_CHECKING:
    from repro.obs.timeline import Timeline

__all__ = [
    "BurnRateRule",
    "SLO",
    "SLOAlert",
    "SLOReport",
    "default_rules",
    "slo_report",
]


@dataclass(frozen=True)
class SLO:
    """A per-request service-level objective: the first token within
    ``ttft_s`` seconds of arrival."""

    #: Percentile of completed requests that fleet compliance
    #: (:meth:`~repro.cluster.fleet.FleetReport.meets`) holds to the
    #: limit.
    QUANTILE: ClassVar[float] = 95.0
    #: Attainment the error budget derives from (1% may violate).
    TARGET: ClassVar[float] = 0.99

    ttft_s: float

    def __post_init__(self):
        if self.ttft_s <= 0:
            raise ValueError("ttft_s must be positive")

    def met_by(self, ttft_s: float) -> bool:
        """Whether a time to first token (seconds) meets the limit."""
        return ttft_s <= self.ttft_s


@dataclass(frozen=True)
class BurnRateRule:
    """One fast/slow window pair with its burn-rate threshold."""

    name: str
    #: Trailing long window (seconds of simulated time).
    long_s: float
    #: Trailing short window; must not exceed the long window.
    short_s: float
    #: Fire when both windows burn at >= this multiple of the budget.
    factor: float

    def __post_init__(self):
        if self.long_s <= 0 or self.short_s <= 0:
            raise ValueError("windows must be positive")
        if self.short_s > self.long_s:
            raise ValueError("short_s must not exceed long_s")
        if self.factor <= 0:
            raise ValueError("factor must be positive")


def default_rules(window_s: float) -> List[BurnRateRule]:
    """The SRE fast/slow pair, scaled to the sampling window.

    Production practice uses 5m/1h at 14.4x and 30m/6h at 6x against a
    30-day budget; simulations run seconds, so the same *shape* is
    expressed in sampling windows: a fast rule catching sharp
    overload, a slow rule catching sustained slow burn.
    """
    return [
        BurnRateRule(name="fast", long_s=8 * window_s,
                     short_s=2 * window_s, factor=10.0),
        BurnRateRule(name="slow", long_s=32 * window_s,
                     short_s=8 * window_s, factor=2.0),
    ]


@dataclass(frozen=True)
class SLOAlert:
    """One fire(/clear) episode of one burn-rate rule."""

    rule: str
    fired_s: float
    #: ``None`` when the run ended with the alert still firing.
    cleared_s: Optional[float]
    #: Highest long-window burn rate observed while firing.
    peak_burn_rate: float

    def to_json(self) -> dict:
        return {"rule": self.rule, "fired_s": self.fired_s,
                "cleared_s": self.cleared_s,
                "peak_burn_rate": self.peak_burn_rate}


@dataclass
class SLOReport:
    """Error-budget account plus the alert history of one run."""

    n_completions: int
    n_violations: int
    alerts: List[SLOAlert]

    @property
    def target(self) -> float:
        """Attainment objective (:attr:`SLO.TARGET`)."""
        return SLO.TARGET

    @property
    def budget(self) -> float:
        """Allowed violation fraction (1 - target)."""
        return 1.0 - self.target

    @property
    def violation_fraction(self) -> float:
        return self.n_violations / self.n_completions \
            if self.n_completions else 0.0

    @property
    def attainment(self) -> float:
        """Fraction of completions that met the SLO."""
        return 1.0 - self.violation_fraction

    @property
    def budget_consumed(self) -> float:
        """Run-level budget spend as a multiple of the budget (1.0 =
        exactly spent, >1 = overspent)."""
        return self.violation_fraction / self.budget

    @property
    def fired(self) -> bool:
        return bool(self.alerts)

    def alerts_for(self, rule: str) -> List[SLOAlert]:
        return [a for a in self.alerts if a.rule == rule]

    def summary(self) -> str:
        lines = [
            f"SLO target {self.target:.2%}: attainment "
            f"{self.attainment:.2%} ({self.n_violations}/"
            f"{self.n_completions} violations, budget consumed "
            f"{self.budget_consumed:.1f}x)"]
        for a in self.alerts:
            cleared = (f"cleared {a.cleared_s:.2f}s"
                       if a.cleared_s is not None else "never cleared")
            lines.append(
                f"  alert[{a.rule}] fired {a.fired_s:.2f}s, {cleared}, "
                f"peak burn {a.peak_burn_rate:.1f}x")
        if not self.alerts:
            lines.append("  no burn-rate alerts fired")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"target": self.target,
                "n_completions": self.n_completions,
                "n_violations": self.n_violations,
                "attainment": self.attainment,
                "budget_consumed": self.budget_consumed,
                "alerts": [a.to_json() for a in self.alerts]}


class _RuleState:
    """Mutable evaluation state of one rule during the window walk."""

    __slots__ = ("rule", "long_n", "short_n", "active", "fired_s", "peak",
                 "alerts")

    def __init__(self, rule: BurnRateRule, window_s: float):
        self.rule = rule
        #: The rule's trailing spans, in whole windows.
        self.long_n = max(1, math.ceil(rule.long_s / window_s))
        self.short_n = max(1, math.ceil(rule.short_s / window_s))
        self.active = False
        self.fired_s = 0.0
        self.peak = 0.0
        self.alerts: List[SLOAlert] = []


def _trailing_burn(counts: List[tuple], i: int, span_windows: int,
                   budget: float) -> float:
    comp = viol = 0
    for j in range(max(0, i - span_windows + 1), i + 1):
        comp += counts[j][0]
        viol += counts[j][1]
    if comp == 0:
        return 0.0
    return (viol / comp) / budget


def slo_report(timeline: Timeline) -> SLOReport:
    """Evaluate :func:`default_rules` against the fleet-merged windows
    of a timeline recorded with ``TimelineConfig(slo=...)``."""
    cfg = timeline.config
    if cfg is None or cfg.slo is None:
        raise ValueError(
            "timeline recorded no SLO violation counts; run it with "
            "TimelineConfig(slo=SLO(...))")
    windows = timeline.merged()
    counts = [(w.completions, w.slo_violations) for w in windows]
    budget = 1.0 - SLO.TARGET
    states = [_RuleState(rule, timeline.window_s)
              for rule in default_rules(timeline.window_s)]
    for i, window in enumerate(windows):
        for st in states:
            burn_long = _trailing_burn(counts, i, st.long_n, budget)
            burn_short = _trailing_burn(counts, i, st.short_n, budget)
            factor = st.rule.factor
            firing = burn_long >= factor and burn_short >= factor
            if firing and not st.active:
                st.active = True
                st.fired_s = window.t_end_s
                st.peak = burn_long
            elif firing:
                st.peak = max(st.peak, burn_long)
            elif st.active:
                st.active = False
                st.alerts.append(SLOAlert(
                    rule=st.rule.name, fired_s=st.fired_s,
                    cleared_s=window.t_end_s, peak_burn_rate=st.peak))
    for st in states:
        if st.active:  # run ended mid-incident
            st.alerts.append(SLOAlert(
                rule=st.rule.name, fired_s=st.fired_s,
                cleared_s=None, peak_burn_rate=st.peak))
    alerts = [a for st in states for a in st.alerts]
    alerts.sort(key=lambda a: (a.fired_s, a.rule))
    return SLOReport(
        n_completions=sum(c for c, _ in counts),
        n_violations=sum(v for _, v in counts),
        alerts=alerts)
