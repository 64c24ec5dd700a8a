"""One measured process: set up a workload, then time passes over it.

Started by ``run.py`` with the simulator on ``PYTHONPATH``; prints one
JSON object on its last stdout line.  ``--t0`` is the launcher's
``time.perf_counter()`` just before it started this process (on Linux
that clock is the system-wide ``CLOCK_MONOTONIC``), so ``setup_s``
covers interpreter start, imports, loading sample tensors, trace
generation and warm-up.

Untraced passes run under the ``(trace, report)`` capture hook and the
host-speed probe (:mod:`speed`).  With ``--trace 1`` untraced and
traced passes alternate, so the traced process also yields the tracing
overhead; traced passes carry no speed probe.  ``--prime`` loads (and on
a fresh checkout trains and stores) every sample tensor the workloads
use, untimed, and exits.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import sys
import time

import numpy as np

from layers import DERIVED_COUNTS, SETUP_METRICS, SPANS, Capture, LayerTracer
from speed import SpeedProbe, normalize, reference_s
from workloads import SAMPLE_MODES, WORKLOADS, load_expected, verify


def _prime() -> None:
    import repro.bench.cluster  # noqa: F401 - compiles what passes import
    import repro.bench.orchestrator  # noqa: F401
    from repro.bench.serving import mode_cost_kwargs

    for mode in SAMPLE_MODES:
        mode_cost_kwargs(mode)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _layer_names():
    names = {span.self_metric for span in SPANS}
    names |= {span.calls_metric for span in SPANS if span.calls_metric}
    return sorted(names | set(DERIVED_COUNTS) | {"serve.events.pops"})


def _layers(values: dict, run_s: float) -> dict:
    """Per-layer metrics of one traced pass, every name present."""
    out = {name: float(values.get(name, 0.0)) for name in _layer_names()}
    looked_up = values.get("serve.prefix.lookup_tokens", 0)
    out["serve.prefix.hit_token_ratio"] = (
        values.get("serve.prefix.hit_tokens", 0) / looked_up
        if looked_up else 0.0)
    root = values.get("bench.root_self_s", 0.0)
    out["layer_coverage_ratio"] = (run_s - root) / run_s
    out["traced_run_s"] = run_s
    return out


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items()
            if not k.endswith(("_s", "_ratio"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--prime", action="store_true")
    args = parser.parse_args(argv)
    if args.prime:
        _prime()
        return 0
    t0 = args.t0 if args.t0 is not None else time.perf_counter()
    setup_start = (t0, t0, reference_s())

    tracer = LayerTracer() if args.trace else None
    expected = load_expected(args.workload, args.seed)
    probe = SpeedProbe()
    with Capture() as capture:
        setup_layers = {}
        with probe:
            if tracer is not None:
                with tracer:
                    prepared = WORKLOADS[args.workload](args.seed)
                setup_layers = {f"setup.{name}":
                                tracer.snapshot().get(name, 0.0)
                                for name in SETUP_METRICS}
            else:
                prepared = WORKLOADS[args.workload](args.seed)
        capture.take()  # warm-up runs are not measured
        ref, now = reference_s(), time.perf_counter()
        setup_wall_s = now - t0
        _, setup_s = normalize(setup_start, probe.take(), (now, now, ref))

        passes, traced_passes = [], []
        attempted = failed = 0
        counts = None
        started = time.perf_counter()
        while True:
            traced = tracer is not None and len(passes) > len(traced_passes)
            gc.collect()
            if traced:
                before = reference_s()
                tracer.reset()
                with tracer:
                    outcomes, wall_s = tracer.root(
                        lambda: prepared.run_pass(capture))
                _, nominal_s = normalize((0.0, 0.0, before), [],
                                         (wall_s, wall_s, reference_s()))
            else:
                before = reference_s()
                with probe:
                    start = time.perf_counter()
                    outcomes = prepared.run_pass(capture)
                    end = time.perf_counter()
                after = reference_s()
                work_s, nominal_s = normalize((start, start, before),
                                              probe.take(),
                                              (end, end, after))
            completed = sum(len(report.records) for o in outcomes
                            for _, report in o.runs)
            for outcome in outcomes:
                attempted += outcome.n_requests
                failed += verify(outcome, expected)
            if traced:
                layers = _layers(tracer.snapshot(), wall_s)
                if counts is not None and _counts(layers) != counts:
                    print("layer counts differ between traced passes",
                          file=sys.stderr)
                    failed += outcomes[0].n_requests
                counts = _counts(layers)
                layers["trace_overhead_ratio"] = (nominal_s
                                                  / passes[-1]["nominal_s"])
                traced_passes.append(layers)
            else:
                passes.append({"work_s": work_s, "nominal_s": nominal_s,
                               "completed": completed})
            if tracer is not None and len(passes) > len(traced_passes):
                continue  # finish the untraced/traced pair
            # Stop when one more pass would end nearer past the budget
            # than this one ends before it.
            elapsed = time.perf_counter() - started
            if elapsed * (1 + 0.5 / len(passes)) >= args.seconds:
                break

    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "passes": passes,
        "traced_passes": traced_passes,
        "setup_layers": setup_layers,
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "versions": f"python {platform.python_version()}, "
                    f"numpy {np.__version__}",
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
