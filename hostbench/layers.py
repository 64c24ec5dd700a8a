"""Layer spans around the simulator's public calls, installed from outside.

The simulator is single-threaded and never waits, so host time along
its call tree splits exactly into *self* times: a span's duration minus
the part of it covered by nested spans.  :class:`LayerTracer` replaces
the methods named in :data:`SPANS` with timing wrappers for the duration
of a ``with`` block and restores the originals on exit; ``src/`` is
never edited.

Three kinds of hooks exist:

- :class:`Span` — timed: adds self time (and optionally a call count)
  to named metrics;
- :data:`COUNTED` — count-only: the wrapped call's time stays with its
  caller (the event heap's ``pop`` belongs to the simulator's loop);
- ``Span.stats`` — counters read off the receiving object (engine memo
  misses, bucket-table hits, prefix-tree tokens, preemptions) at its
  first call in a pass and again at the end; the pass gets the delta.

:class:`Capture` is the one hook the untraced passes also install: it
keeps each simulation's ``(trace, report)`` pair so the benchmark can
check request conservation, at one extra call per simulation.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Span:
    """One timed hook: ``owner.attr`` adds to ``self_metric``."""

    module: str
    owner: str            # class name, or "" for a module-level function
    attr: str
    self_metric: str
    calls_metric: Optional[str] = None
    #: Reads cumulative counters off the call's receiver (``args[0]``).
    stats: Optional[Callable[[object], Dict[str, float]]] = None


def _engine_stats(engine) -> Dict[str, float]:
    return {"core.engine.misses": engine.memo_info()["misses"]}


def _cost_stats(model) -> Dict[str, float]:
    return {"serve.costs.table_hits": model.table_info()["hits"]}


def _scheduler_stats(sched) -> Dict[str, float]:
    return {"serve.scheduler.preemptions": sched.n_preemptions}


def _prefix_stats(alloc) -> Dict[str, float]:
    s = alloc.prefix_stats()
    return {"serve.prefix.hit_tokens": s.hit_tokens,
            "serve.prefix.lookup_tokens": s.hit_tokens + s.miss_tokens,
            "serve.prefix.evicted_blocks": s.n_evicted_blocks}


_SCHED = "repro.serve.scheduler"
_PREFIX = "repro.serve.prefix"
_FLEET = "repro.cluster.fleet"
_SERVING = "repro.bench.serving"

#: Every timed layer boundary.  Module-level functions are patched in
#: ``repro.bench.serving``, the namespace that calls them.
SPANS: Tuple[Span, ...] = (
    *(Span("repro.core.codegen", "VQLLMCodeGenerator", attr,
           "core.codegen.self_s", "core.codegen.calls")
      for attr in ("generate_gemm", "generate_gemv", "generate_attention")),
    Span("repro.core.engine", "ComputeEngine", "batch_latency_us",
         "core.engine.self_s", "core.engine.calls", _engine_stats),
    Span("repro.core.engine", "ComputeEngine", "__init__",
         "core.engine.self_s"),
    Span("repro.serve.costs", "StepCostModel", "step_us",
         "serve.costs.self_s", "serve.costs.calls", _cost_stats),
    Span("repro.serve.costs", "StepCostModel", "__init__",
         "serve.costs.self_s"),
    Span(_SCHED, "ContinuousBatchScheduler", "schedule",
         "serve.scheduler.schedule_self_s", "serve.scheduler.schedule_calls",
         _scheduler_stats),
    Span(_SCHED, "ContinuousBatchScheduler", "complete",
         "serve.scheduler.complete_self_s"),
    Span(_SCHED, "ContinuousBatchScheduler", "submit",
         "serve.scheduler.submit_self_s"),
    Span(_SCHED, "ContinuousBatchScheduler", "fits",
         "serve.scheduler.fits_self_s"),
    Span(_SCHED, "ContinuousBatchScheduler", "__init__",
         "serve.scheduler.init_self_s"),
    Span("repro.serve.paging", "PagedKVAllocator", "ensure",
         "serve.paging.ensure_self_s", "serve.paging.ensure_calls"),
    Span("repro.serve.paging", "PagedKVAllocator", "release",
         "serve.paging.release_self_s"),
    Span(_PREFIX, "PrefixCachingAllocator", "match_and_lock",
         "serve.prefix.match_self_s", "serve.prefix.match_calls",
         _prefix_stats),
    Span(_PREFIX, "PrefixCachingAllocator", "ensure",
         "serve.prefix.ensure_self_s", None, _prefix_stats),
    Span(_PREFIX, "PrefixCachingAllocator", "release",
         "serve.prefix.release_self_s", None, _prefix_stats),
    *(Span(_FLEET, cls, "choose", "cluster.fleet.route_self_s",
           "cluster.fleet.route_calls")
      for cls in ("RoundRobinPolicy", "JoinShortestQueuePolicy",
                  "LeastKVPressurePolicy", "PrefixAffinityPolicy")),
    Span(_FLEET, "Replica", "step", "cluster.fleet.step_self_s"),
    Span("repro.serve.simulator", "ServingSimulator", "run",
         "serve.events.driver_self_s"),
    Span(_FLEET, "FleetSimulator", "run", "serve.events.driver_self_s"),
    Span("repro.serve.simulator", "ServingReport", "metrics",
         "obs.metrics_self_s"),
    Span(_FLEET, "FleetReport", "metrics", "obs.metrics_self_s"),
    *(Span(_SERVING, "", fn, "serve.requests.trace_self_s")
      for fn in ("poisson_trace", "bursty_trace", "shared_prefix_trace",
                 "multi_turn_chat_trace")),
    *(Span(_SERVING, "", fn, "bench.workloads.load_s")
      for fn in ("attention_sample", "weight_sample")),
)

#: Count-only hooks: (module, class, method, metric).
COUNTED = (("repro.serve.events", "EventLoop", "pop", "serve.events.pops"),)

#: Per-pass metrics derived from the ``stats`` counters.
DERIVED_COUNTS = ("core.engine.misses", "serve.costs.table_hits",
                  "serve.scheduler.preemptions",
                  "serve.prefix.evicted_blocks")

#: The two layers that also run in set-up; their set-up share is
#: reported under ``setup.<metric>``.
SETUP_METRICS = ("serve.requests.trace_self_s", "bench.workloads.load_s")


def _resolve(module: str, owner: str):
    mod = importlib.import_module(module)
    return getattr(mod, owner) if owner else mod


class _Patches:
    """Attribute replacements undone in reverse order on exit."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, target, attr: str, value) -> None:
        original = (target.__dict__[attr] if isinstance(target, type)
                    else getattr(target, attr))
        self._undo.append((target, attr, original))
        setattr(target, attr, value)

    def undo(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)


class Capture:
    """Records ``(trace, report)`` of every simulator ``run`` call."""

    TARGETS = (("repro.serve.simulator", "ServingSimulator"),
               (_FLEET, "FleetSimulator"))

    def __init__(self):
        self.runs: List[Tuple[list, object]] = []
        self._patches = _Patches()

    def __enter__(self) -> "Capture":
        runs = self.runs
        for module, owner in self.TARGETS:
            cls = _resolve(module, owner)
            run = cls.__dict__["run"]

            def captured(sim, trace, *args, _run=run, **kwargs):
                report = _run(sim, trace, *args, **kwargs)
                runs.append((trace, report))
                return report

            self._patches.set(cls, "run", captured)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def take(self) -> List[Tuple[list, object]]:
        out, self.runs[:] = list(self.runs), []
        return out


class LayerTracer:
    """Self time, call counts and receiver counters per layer."""

    def __init__(self):
        self._patches = _Patches()
        self.values: Dict[str, float] = defaultdict(float)
        #: id(receiver) -> (receiver, stats fn, counters at first sight)
        self._seen: Dict[int, Tuple[object, Callable, Dict[str, float]]] = {}
        #: One child-time accumulator per open span; the bottom entry
        #: belongs to :meth:`root`.
        self._stack: List[List[float]] = []

    def reset(self) -> None:
        """Forget everything recorded (the wrappers hold these objects)."""
        self.values.clear()
        self._seen.clear()
        self._stack.clear()

    # -- installation ----------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for span in SPANS:
            target = _resolve(span.module, span.owner)
            original = (target.__dict__[span.attr] if span.owner
                        else getattr(target, span.attr))
            self._patches.set(target, span.attr, self._timed(span, original))
        for module, owner, attr, metric in COUNTED:
            target = _resolve(module, owner)
            self._patches.set(target, attr,
                              self._count(metric, target.__dict__[attr]))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def _timed(self, span: Span, fn):
        stack, values, seen = self._stack, self.values, self._seen
        clock = time.perf_counter
        self_metric, calls_metric, stats = (span.self_metric,
                                            span.calls_metric, span.stats)

        def wrapper(*args, **kwargs):
            if calls_metric is not None:
                values[calls_metric] += 1
            if stats is not None and id(args[0]) not in seen:
                seen[id(args[0])] = (args[0], stats, stats(args[0]))
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                values[self_metric] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt

        wrapper.__name__ = getattr(fn, "__name__", span.attr)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count(self, metric: str, fn):
        values = self.values

        def wrapper(*args, **kwargs):
            values[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- one measured region ---------------------------------------------
    def root(self, fn):
        """Run ``fn()`` as the root span; returns ``(result, seconds)``.

        The root's self time (``bench.root_self_s``) is whatever no
        layer span covers: the benchmark's own glue and the parts of the
        program between layers.
        """
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.values["bench.root_self_s"] += dt - frame[0]
        return result, dt

    def snapshot(self) -> Dict[str, float]:
        """Accumulated values plus counter deltas since :meth:`reset`."""
        out = dict(self.values)
        for obj, stats, base in self._seen.values():
            for key, value in stats(obj).items():
                out[key] = out.get(key, 0) + value - base[key]
        return out
