"""Experiment orchestration: sweep grid -> BENCH_<pr>.json -> report.

PRs 1-5 built schedulers, paging, prefix caching and fleet simulation,
but every benchmark was a one-off CLI run.  This example drives the
orchestrator end to end and *starts the perf-trajectory convention*:

1. run the committed ``demo`` sweep grid — 3 KV schemes x (reserve,
   paged, paged+prefix) on a sessionized chat trace at a tight 1 GB KV
   budget — in parallel worker processes;
2. persist every trial (config, metrics, wall time, git SHA) to
   ``build/BENCH_<pr>.json`` (``BENCH_10.json`` for the current
   trajectory) and render the markdown regression report next to it;
   ``build/`` is git-ignored, so a run never rewrites the committed
   trajectory;
3. re-run one grid cell and assert its metrics are *bit-identical* —
   the determinism the trajectory convention depends on;
4. compare the fresh run against the committed ``BENCH_<pr>.json`` at
   the repo root (or, without one, the newest earlier
   ``BENCH_<n>.json``), read-only, and **fail on any regression
   beyond tolerance** — this is the CI ``orchestrator-smoke`` gate;
5. run a 2-replica fleet mini-sweep to show the same orchestrator
   drives :mod:`repro.cluster` trials.

Run with::

    PYTHONPATH=src python examples/orchestrator_demo.py
"""

import sys
from pathlib import Path

from repro.bench.orchestrator import (
    SweepConfig,
    Trajectory,
    TrajectoryError,
    bench_path,
    compare,
    demo_config,
    find_previous,
    render_report,
    run_sweep,
    run_trial,
)

ROOT = Path(__file__).resolve().parents[1]
#: Where the fresh trajectory and report go (git-ignored).
OUT_DIR = ROOT / "build"

#: Relative tolerance for the regression gate against the committed
#: baseline.  The simulators are deterministic, so only a behavioural
#: code change can move a metric — anything beyond noise is a signal.
TOLERANCE = 0.05

#: Tiny fleet sweep showing kind="fleet" trials (not persisted; the
#: trajectory file is the serving grid).
FLEET_GRID = SweepConfig(
    name="demo-fleet",
    kind="fleet",
    modes=("fp16", "kv-cq-4"),
    admissions=("paged",),
    trace_kinds=("poisson",),
    rates=(12.0,),
    fleet_sizes=(2,),
    policies=("jsq",),
    n_requests=24,
    prompt_mean=128,
    output_mean=32,
    slo_ttft_s=2.0,
    seed=0,
)


def main() -> int:
    committed = bench_path(ROOT)
    out = bench_path(OUT_DIR)
    report_path = out.with_suffix(".md")

    baseline = None
    if committed.exists():
        try:
            baseline = Trajectory.load(committed)
            print(f"committed baseline: {committed} "
                  f"(git {baseline.git_sha or 'unknown'})")
        except TrajectoryError as exc:
            print(f"ignoring unreadable baseline: {exc}")
    else:
        previous = find_previous(ROOT)
        if previous is not None:
            baseline = Trajectory.load(previous)
            print(f"previous trajectory: {previous}")

    # -- 1. run the committed grid in parallel workers -----------------
    config = demo_config()
    print(f"sweep {config.name!r}: {len(config.trials())} trials, "
          "2 workers\n")
    trajectory = run_sweep(config, workers=2, progress=print)

    # -- 2. persist trajectory + report --------------------------------
    OUT_DIR.mkdir(exist_ok=True)
    trajectory.save(out)
    report = render_report(trajectory, baseline, tolerance=TOLERANCE)
    report_path.write_text(report + "\n")
    print(f"\ntrajectory -> {out}\nreport     -> {report_path}\n")

    # The acceptance shape of the trajectory file itself.
    assert len(trajectory.trials) >= 8, "trajectory needs >= 8 trials"
    schemes = {t.spec.mode for t in trajectory.trials}
    admissions = {t.spec.admission for t in trajectory.trials}
    assert len(schemes) >= 2, f"needs >= 2 KV schemes, got {schemes}"
    assert admissions >= {"reserve", "paged"}, \
        f"needs both admission modes, got {admissions}"
    assert Trajectory.load(out).metrics_by_trial() \
        == trajectory.metrics_by_trial(), "persistence must be lossless"
    assert "## Trials" in report

    # The grid's own story: prefix caching mostly hits on the chat
    # trace, and at equal HBM the compressed cache keeps TTFT lower.
    by_id = {t.trial_id: t.metrics for t in trajectory.trials}
    fp16_prefix = by_id["serving/fp16/paged/prefix/chat@12rps/seed0"]
    cq4_prefix = by_id["serving/kv-cq-4/paged/prefix/chat@12rps/seed0"]
    for name, metrics in (("fp16", fp16_prefix), ("kv-cq-4", cq4_prefix)):
        print(f"{name}+prefix: hit rate {metrics['prefix_hit_rate']:.0%}, "
              f"TTFT p50 {metrics['ttft_p50_ms']:.1f} ms")
        assert metrics["prefix_hit_rate"] > 0.5, \
            "chat trace should mostly hit the prefix cache"
    assert cq4_prefix["ttft_p50_ms"] < fp16_prefix["ttft_p50_ms"], \
        "kv-cq-4+prefix should beat fp16+prefix on TTFT p50 at equal HBM"

    # -- 3. determinism: re-running a cell reproduces its metrics ------
    probe = trajectory.trials[4]  # kv-cq-4/paged
    rerun = run_trial(probe.spec)
    assert rerun.metrics == probe.metrics, \
        "re-running a trial with the same seed must be bit-identical"
    print(f"\ndeterminism: re-ran {probe.trial_id}; "
          "metrics bit-identical")

    # -- 4. regression gate vs the committed baseline ------------------
    if baseline is not None:
        deltas = compare(trajectory, baseline)
        regressions = [d for d in deltas if d.is_regression(TOLERANCE)]
        print(f"regression gate: {len(deltas)} directional deltas vs "
              f"baseline, {len(regressions)} beyond {TOLERANCE:.0%}")
        for d in regressions:
            print(f"  REGRESSION {d.trial_id} {d.metric}: "
                  f"{d.before:.6g} -> {d.after:.6g} ({d.rel_change:+.1%})")
        if regressions:
            print("regression report flagged deltas beyond tolerance; "
                  "if intentional, regenerate the committed "
                  "BENCH_<pr>.json trajectory (python -m "
                  "repro.bench.orchestrator --preset demo) in this PR")
            return 1
    else:
        print("no baseline yet: this run starts the trajectory")

    # -- 5. the same orchestrator drives fleet trials ------------------
    fleet = run_sweep(FLEET_GRID, workers=1)
    print(f"\nfleet sweep ({len(fleet.trials)} trials, 2 replicas, jsq):")
    for t in fleet.trials:
        print(f"  {t.trial_id}: goodput {t.metrics['goodput_rps']:.2f} "
              f"req/s, SLO attainment {t.metrics['slo_attainment']:.0%}")
        assert t.metrics["n_replicas"] == 2
        assert t.metrics["slo_attainment"] > 0.5, \
            "a 2-replica fleet at this load should mostly meet the SLO"

    print("\nall orchestrator checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
