"""SLO burn-rate alerting through a flash crowd, on windowed telemetry.

A serving replica handles steady Poisson traffic except for one flash
crowd — a burst window where the arrival rate multiplies — and the
run samples windowed time series over *simulated* time
(``SimConfig(timeline=TimelineConfig(...))``).  With an SLO on the
timeline config, the burn-rate monitor replays SRE multi-window
alerting against the windows: the error budget is ``1 - SLO.TARGET``,
and an alert fires when the trailing long- and short-window burn
rates both exceed the rule's factor.

The example demonstrates, and asserts, four claims:

1. telemetry is observation-only — end-of-run metrics are
   bit-identical with the timeline collector on and off;
2. the fast-burn alert fires *during* the crowd (not before it):
   queueing from the burst pushes TTFT past the limit and torches the
   error budget at >10x the sustainable rate;
3. the alert clears after the backlog drains — burn rates fall back
   under the factor once violating completions age out of the
   trailing windows;
4. the windowed series account for every request: arrivals sum to the
   trace size and completions to the finished count.

Run with::

    PYTHONPATH=src python examples/slo_timeline.py
"""

from repro.bench.serving import make_cost_model, make_kv_budget
from repro.core.engine import ComputeEngine
from repro.gpu.spec import RTX4090
from repro.llm.config import llama_7b
from repro.obs import TimelineConfig
from repro.obs.slo import SLO
from repro.serve.api import SchedulerConfig, SimConfig
from repro.serve.requests import LengthSampler, flash_crowd_trace

#: Steady offered load (req/s) outside the crowd.
BASE_RATE = 3.0
#: Trace length in seconds.
DURATION_S = 60.0
#: Rate multiplier during the crowd window.
CROWD_FACTOR = 6.0
#: The crowd: t in [20 s, 25 s).
CROWD_START_S, CROWD_DURATION_S = 20.0, 5.0
#: The objective: first token within 750 ms (``SLO.TARGET`` of
#: completions must meet it, a 1% error budget).
OBJECTIVE = SLO(ttft_s=0.75)


def build_config(timeline):
    return SimConfig(
        scheduler=SchedulerConfig(token_budget=2048, max_seqs=32,
                                  admission="paged"),
        name="flash-crowd", timeline=timeline)


def run(timeline):
    """One simulation of the flash-crowd trace; telemetry optional."""
    spec, config = RTX4090, llama_7b()
    trace = flash_crowd_trace(
        BASE_RATE, DURATION_S, crowd_factor=CROWD_FACTOR,
        crowd_start_s=CROWD_START_S, crowd_duration_s=CROWD_DURATION_S,
        prompt=LengthSampler(mean=384), output=LengthSampler(mean=64),
        seed=7)
    budget = make_kv_budget(config, "fp16", capacity_bytes=8e9, spec=spec)
    cost_model = make_cost_model(ComputeEngine(spec), config, "fp16")
    report = build_config(timeline).build(budget, cost_model).run(trace)
    return trace, report


def main():
    timeline_cfg = TimelineConfig(window_s=0.5, slo=OBJECTIVE)
    trace, report = run(timeline_cfg)
    _, plain = run(None)

    crowd_end = CROWD_START_S + CROWD_DURATION_S
    print(f"flash crowd: {BASE_RATE:g} req/s base, x{CROWD_FACTOR:g} "
          f"during [{CROWD_START_S:g} s, {crowd_end:g} s) — "
          f"{len(trace)} requests over {DURATION_S:g} s")
    print(f"SLO: TTFT <= {OBJECTIVE.ttft_s * 1e3:.0f} ms for "
          f"{SLO.TARGET:.0%} of completions\n")
    print(report.summary())

    # Claim 1: the collector observes, never steers.
    assert report.metrics() == plain.metrics(), \
        "timeline sampling must leave end-of-run metrics bit-identical"

    # Claim 2: the fast-burn rule fires during the crowd.
    slo = report.slo
    assert slo is not None and slo.fired, \
        "the flash crowd should breach the error budget and fire"
    fast = slo.alerts_for("fast")
    assert fast, "the fast-burn rule (x10 budget burn) should fire"
    first = fast[0]
    assert CROWD_START_S <= first.fired_s <= crowd_end + 5.0, (
        f"fast alert fired at {first.fired_s:.2f} s, expected during "
        f"the crowd [{CROWD_START_S:g}, {crowd_end:g}) s (+drain)")

    # Claim 3: it clears once the backlog drains.
    assert first.cleared_s is not None, "the alert should clear"
    assert first.cleared_s > crowd_end, (
        f"alert cleared at {first.cleared_s:.2f} s, before the crowd "
        f"ended at {crowd_end:g} s — burn rates cannot have recovered")

    # Claim 4: windows account for every request.
    windows = report.timeline.windows(0)
    arrivals = sum(w.arrivals for w in windows)
    completions = sum(w.completions for w in windows)
    assert arrivals + sum(w.rejections for w in windows) == len(trace)
    assert completions == len(report.records)

    print(f"\n=> fast-burn alert fired {first.fired_s:.1f} s into the "
          f"run (crowd began at {CROWD_START_S:g} s), peaked at "
          f"{first.peak_burn_rate:.0f}x budget burn, and cleared at "
          f"{first.cleared_s:.1f} s, {first.cleared_s - crowd_end:.1f} s "
          f"after the crowd ended — and end-of-run metrics match the "
          f"untelemetered run bit for bit.")


if __name__ == "__main__":
    main()
