"""Multi-window SLO burn-rate monitoring over a timeline.

The SRE playbook's alerting strategy, applied to simulated serving:
define an *error budget* from an attainment target (99% of completions
must meet the per-request TTFT/TPOT limits → 1% may violate), then
alert on the *burn rate* — the ratio of the observed violation
fraction to the budget — evaluated over a pair of trailing windows.
A **long** window makes the alert represent real budget spend; a
**short** window makes it reset quickly once the incident drains
(without it, a long-window alert stays red long after recovery).  A
rule fires when *both* windows burn above its factor and clears when
either drops back below.

Input is a :class:`~repro.obs.timeline.Timeline` whose windows carry
per-window completion and violation counts (recorded when the
timeline's :class:`~repro.obs.timeline.TimelineConfig` carries SLO
limits) — or raw TTFT/TPOT samples, which :class:`SLOMonitor` can
re-judge against explicit limits for post-hoc what-if sweeps.  Output
is an :class:`SLOReport`: the budget account plus fire/clear
:class:`SLOAlert` events, which the serving/fleet reports attach and
the Perfetto export renders as instants.

Evaluation runs once at end of run over closed windows — never in the
simulation hot loop — and is a pure function of the timeline, so
report metrics stay bit-identical whether a monitor ran or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.obs.timeline import Timeline, TimelineWindow

__all__ = [
    "BurnRateRule",
    "SLOAlert",
    "SLOMonitor",
    "SLOReport",
    "default_rules",
]


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

    target: float
    n_completions: int
    n_violations: int
    alerts: List[SLOAlert]

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

    __slots__ = ("rule", "active", "fired_s", "peak", "alerts")

    def __init__(self, rule: BurnRateRule):
        self.rule = rule
        self.active = False
        self.fired_s = 0.0
        self.peak = 0.0
        self.alerts: List[SLOAlert] = []


class SLOMonitor:
    """Evaluates burn-rate rules against a timeline's windows.

    With ``ttft_s`` / ``tpot_s`` left ``None`` the monitor consumes the
    violation counts the collector recorded (the timeline must have
    run with SLO limits configured); passing limits re-judges every
    window's raw latency samples instead, enabling post-hoc "what if
    the SLO were tighter" sweeps over one recorded timeline.
    """

    def __init__(self, target: float = 0.99,
                 rules: Optional[Sequence[BurnRateRule]] = None,
                 ttft_s: Optional[float] = None,
                 tpot_s: Optional[float] = None):
        if not 0 < target < 1:
            raise ValueError("target must be in (0, 1)")
        if ttft_s is not None and ttft_s <= 0:
            raise ValueError("ttft_s must be positive")
        if tpot_s is not None and tpot_s <= 0:
            raise ValueError("tpot_s must be positive")
        self.target = target
        self.rules = list(rules) if rules is not None else None
        self.ttft_s = ttft_s
        self.tpot_s = tpot_s

    @property
    def rejudges(self) -> bool:
        return self.ttft_s is not None or self.tpot_s is not None

    def _counts(self, window: TimelineWindow) -> tuple:
        """(completions, violations) of one window under this monitor."""
        if not self.rejudges:
            return window.completions, window.slo_violations
        bad = 0
        if self.ttft_s is not None:
            limit_ms = self.ttft_s * 1e3
            bad = sum(1 for v in window.ttft_ms if v > limit_ms)
        if self.tpot_s is not None:
            limit_ms = self.tpot_s * 1e3
            bad += sum(1 for v in window.tpot_ms if v > limit_ms)
            # A completion can violate both limits; clamp to the
            # completion count so fractions stay in [0, 1].
            bad = min(bad, window.completions)
        return window.completions, bad

    @staticmethod
    def _trailing_burn(counts: List[tuple], i: int, span_windows: int,
                       budget: float) -> float:
        comp = viol = 0
        for j in range(max(0, i - span_windows + 1), i + 1):
            comp += counts[j][0]
            viol += counts[j][1]
        if comp == 0:
            return 0.0
        return (viol / comp) / budget

    def evaluate(self, timeline: Timeline) -> SLOReport:
        """Walk the (fleet-merged) windows and build the report."""
        cfg = timeline.config
        if (not self.rejudges
                and (cfg is None or not cfg.tracks_slo)):
            raise ValueError(
                "timeline recorded no SLO violation counts; run it "
                "with TimelineConfig(slo_ttft_s=...) or give the "
                "monitor explicit ttft_s/tpot_s limits")
        windows = timeline.merged()
        counts = [self._counts(w) for w in windows]
        budget = 1.0 - self.target
        rules = (self.rules if self.rules is not None
                 else default_rules(timeline.window_s))
        states = [_RuleState(rule) for rule in rules]
        for i, window in enumerate(windows):
            for st in states:
                rule = st.rule
                long_n = max(1, math.ceil(rule.long_s
                                          / timeline.window_s))
                short_n = max(1, math.ceil(rule.short_s
                                           / timeline.window_s))
                burn_long = self._trailing_burn(counts, i, long_n, budget)
                burn_short = self._trailing_burn(counts, i, short_n,
                                                 budget)
                firing = (burn_long >= rule.factor
                          and burn_short >= rule.factor)
                if firing and not st.active:
                    st.active = True
                    st.fired_s = window.t_end_s
                    st.peak = burn_long
                elif firing:
                    st.peak = max(st.peak, burn_long)
                elif st.active:
                    st.active = False
                    st.alerts.append(SLOAlert(
                        rule=rule.name, fired_s=st.fired_s,
                        cleared_s=window.t_end_s,
                        peak_burn_rate=st.peak))
        for st in states:
            if st.active:  # run ended mid-incident
                st.alerts.append(SLOAlert(
                    rule=st.rule.name, fired_s=st.fired_s,
                    cleared_s=None, peak_burn_rate=st.peak))
        alerts = [a for st in states for a in st.alerts]
        alerts.sort(key=lambda a: (a.fired_s, a.rule))
        return SLOReport(
            target=self.target,
            n_completions=sum(c for c, _ in counts),
            n_violations=sum(v for _, v in counts),
            alerts=alerts)
