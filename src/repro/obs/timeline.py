"""Windowed time-series telemetry over *simulated* time.

End-of-run aggregates (:mod:`repro.obs.metrics`) answer what a run did
on average; this module records how the run *evolved* — queue depth
climbing through a flash crowd, the KV pool saturating, per-window
TTFT tails blowing out — which is the signal an autoscaler (or an SLO
burn-rate monitor, :mod:`repro.obs.slo`) acts on.

Design mirrors the tracer contract (:mod:`repro.obs.trace`):

1. **Disabled sampling is bit-identical and near-free.**  The
   simulators guard every hook with one ``timeline is not None`` test,
   and SAMPLE events are excluded from every exported event counter
   (:class:`~repro.serve.events.EventStats.n_samples`), so a run's
   ``metrics()`` with sampling on is golden-tested equal to one with
   sampling off.
2. **Sampling is observation only.**  The collector reads scheduler
   state and appends to its own buffers; it never feeds back into
   scheduling, admission or time.

Time model: the simulators push periodic ``SAMPLE`` events onto the
shared event heap (:mod:`repro.serve.events`).  A SAMPLE at boundary
``t`` pops before any simulation event at ``t`` (kind sorts first), so
windows are half-open ``[start, end)``: per-window *flows* (arrivals,
completions, rejections) count events with timestamps in the window,
and *gauges* (queue depth, running batch, KV occupancy) are read at
the first heap pop at-or-after the boundary — the discrete-event
analogue of a scrape.  Completions are banked with their simulated
finish time and assigned at window close, because an iteration that
*starts* before a boundary can finish work *after* it.

Everything here takes simulated seconds as input and never reads the
wall clock or calls tracer methods (lint rule RPL009 enforces both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.report import percentile

__all__ = [
    "Timeline",
    "TimelineCollector",
    "TimelineConfig",
    "TimelineWindow",
]

#: Series names exposed by :meth:`Timeline.series` (one value per
#: window); also the counter tracks the Perfetto export emits.
SERIES_FIELDS = (
    "arrivals",
    "completions",
    "rejections",
    "preemptions",
    "queue_depth",
    "running",
    "kv_occupancy",
    "prefix_hit_rate",
)


@dataclass(frozen=True)
class TimelineConfig:
    """Sampling options, passed as ``SimConfig(timeline=...)`` /
    ``FleetConfig(timeline=...)``.

    ``slo_ttft_s`` / ``slo_tpot_s`` are optional per-request limits:
    when set, every window also counts SLO violations among its
    completions, which is what the burn-rate monitor
    (:class:`repro.obs.slo.SLOMonitor`) consumes, and the simulators
    attach an evaluated :class:`~repro.obs.slo.SLOReport` to the run
    report.  ``slo_target`` is the attainment objective the error
    budget is defined against (0.99 → 1% of completions may violate).
    """

    #: Window length in simulated seconds.
    window_s: float = 0.25
    #: Optional per-request TTFT limit (seconds) for SLO accounting.
    slo_ttft_s: Optional[float] = None
    #: Optional per-request TPOT limit (seconds) for SLO accounting.
    slo_tpot_s: Optional[float] = None
    #: Target attainment fraction the error budget derives from.
    slo_target: float = 0.99

    def __post_init__(self):
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.slo_ttft_s is not None and self.slo_ttft_s <= 0:
            raise ValueError("slo_ttft_s must be positive")
        if self.slo_tpot_s is not None and self.slo_tpot_s <= 0:
            raise ValueError("slo_tpot_s must be positive")
        if not 0 < self.slo_target < 1:
            raise ValueError("slo_target must be in (0, 1)")

    @property
    def tracks_slo(self) -> bool:
        return self.slo_ttft_s is not None or self.slo_tpot_s is not None


@dataclass(frozen=True)
class TimelineWindow:
    """One closed sampling window of one replica.

    Flow fields count events whose simulated timestamp fell in
    ``[t_start_s, t_end_s)``; gauge fields are the state observed at
    the window-closing sample.  ``ttft_ms`` / ``tpot_ms`` keep the raw
    per-completion samples so percentiles (and post-hoc SLO sweeps)
    need no re-simulation.
    """

    t_start_s: float
    t_end_s: float
    # -- flows over the window ----------------------------------------
    arrivals: int = 0
    completions: int = 0
    rejections: int = 0
    preemptions: int = 0
    prefix_lookups: int = 0
    prefix_hits: int = 0
    #: Completions violating the configured SLO limits (0 when the
    #: timeline ran without SLO limits).
    slo_violations: int = 0
    # -- gauges at the window boundary --------------------------------
    queue_depth: int = 0
    running: int = 0
    kv_occupancy: float = 0.0
    # -- raw latency samples of completions in the window -------------
    ttft_ms: Tuple[float, ...] = ()
    tpot_ms: Tuple[float, ...] = ()

    @property
    def duration_s(self) -> float:
        return self.t_end_s - self.t_start_s

    @property
    def prefix_hit_rate(self) -> float:
        """Windowed admission hit rate (0.0 with no lookups)."""
        return self.prefix_hits / self.prefix_lookups \
            if self.prefix_lookups else 0.0

    def ttft_p(self, q: float) -> float:
        """Windowed TTFT percentile in ms (NaN with no completions)."""
        return percentile(self.ttft_ms, q) if self.ttft_ms else math.nan

    def tpot_p(self, q: float) -> float:
        """Windowed TPOT percentile in ms (NaN with no samples)."""
        return percentile(self.tpot_ms, q) if self.tpot_ms else math.nan

    def to_json(self) -> dict:
        """Plain JSON-safe dict (raw samples included)."""
        return {
            "t_start_s": self.t_start_s,
            "t_end_s": self.t_end_s,
            "arrivals": self.arrivals,
            "completions": self.completions,
            "rejections": self.rejections,
            "preemptions": self.preemptions,
            "prefix_lookups": self.prefix_lookups,
            "prefix_hits": self.prefix_hits,
            "slo_violations": self.slo_violations,
            "queue_depth": self.queue_depth,
            "running": self.running,
            "kv_occupancy": self.kv_occupancy,
            "ttft_ms": list(self.ttft_ms),
            "tpot_ms": list(self.tpot_ms),
        }


@dataclass
class Timeline:
    """The finished product: per-replica window series of one run."""

    name: str
    window_s: float
    #: Replica id -> windows in time order (single-engine runs use
    #: replica 0).  Every replica has the same number of windows.
    replicas: Dict[int, List[TimelineWindow]] = field(default_factory=dict)
    config: Optional[TimelineConfig] = None

    @property
    def replica_ids(self) -> List[int]:
        return sorted(self.replicas)

    @property
    def n_windows(self) -> int:
        first = self.replica_ids
        return len(self.replicas[first[0]]) if first else 0

    def windows(self, replica: int = 0) -> List[TimelineWindow]:
        return self.replicas[replica]

    def series(self, name: str, replica: int = 0
               ) -> List[Tuple[float, float]]:
        """``[(t_end_s, value), ...]`` of one per-window series."""
        if name not in SERIES_FIELDS:
            raise KeyError(f"unknown series {name!r}; "
                           f"known: {list(SERIES_FIELDS)}")
        return [(w.t_end_s, getattr(w, name))
                for w in self.replicas[replica]]

    def merged(self) -> List[TimelineWindow]:
        """Fleet-wide windows: flows summed, gauges summed across
        replicas (queue depth and running batch add; kv_occupancy is
        averaged, being a fraction)."""
        ids = self.replica_ids
        if len(ids) == 1:
            return list(self.replicas[ids[0]])
        out = []
        for i in range(self.n_windows):
            rows = [self.replicas[rid][i] for rid in ids]
            out.append(TimelineWindow(
                t_start_s=rows[0].t_start_s,
                t_end_s=rows[0].t_end_s,
                arrivals=sum(r.arrivals for r in rows),
                completions=sum(r.completions for r in rows),
                rejections=sum(r.rejections for r in rows),
                preemptions=sum(r.preemptions for r in rows),
                prefix_lookups=sum(r.prefix_lookups for r in rows),
                prefix_hits=sum(r.prefix_hits for r in rows),
                slo_violations=sum(r.slo_violations for r in rows),
                queue_depth=sum(r.queue_depth for r in rows),
                running=sum(r.running for r in rows),
                kv_occupancy=sum(r.kv_occupancy for r in rows)
                / len(rows),
                ttft_ms=tuple(v for r in rows for v in r.ttft_ms),
                tpot_ms=tuple(v for r in rows for v in r.tpot_ms),
            ))
        return out

    def to_json(self) -> dict:
        """JSON-safe form (what ``--timeline-dir`` persists)."""
        return {
            "name": self.name,
            "window_s": self.window_s,
            "replicas": {str(rid): [w.to_json() for w in wins]
                         for rid, wins in sorted(self.replicas.items())},
        }


class _Accum:
    """Mutable per-replica accumulation of the currently open window."""

    __slots__ = ("arrivals", "rejections", "pending",
                 "prev_preemptions", "prev_lookups", "prev_hits")

    def __init__(self):
        self.arrivals = 0
        self.rejections = 0
        #: Completions banked with finish time, drained at window
        #: close: ``(finished_s, ttft_ms, tpot_ms_or_None, violated)``.
        self.pending: List[Tuple[float, float, Optional[float], bool]] = []
        self.prev_preemptions = 0
        self.prev_lookups = 0
        self.prev_hits = 0


class TimelineCollector:
    """Accumulates windows while a simulation runs.

    The owning simulator pushes a SAMPLE event at
    :attr:`next_sample_s`, calls :meth:`sample` when it pops (passing
    the live schedulers, one per replica), and re-pushes while work or
    arrivals remain; flows are fed through :meth:`on_arrival` /
    :meth:`on_reject` / :meth:`on_complete`.  :meth:`finalize` flushes
    the trailing partial window and returns the :class:`Timeline`.

    Every method takes simulated time as input; the collector is
    forbidden (lint rule RPL009) from reading the wall clock or
    calling tracer methods.
    """

    def __init__(self, config: TimelineConfig, n_replicas: int = 1,
                 name: str = "timeline", start_s: float = 0.0):
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.config = config
        self.name = name
        self.window_s = config.window_s
        self._start_s = start_s
        self._next_s = start_s + config.window_s
        self._accums = [_Accum() for _ in range(n_replicas)]
        self._windows: Dict[int, List[TimelineWindow]] = {
            rid: [] for rid in range(n_replicas)}

    @property
    def next_sample_s(self) -> float:
        """Boundary of the currently open window (next SAMPLE time)."""
        return self._next_s

    # -- flow hooks (hot path: appends and increments only) -----------
    def on_arrival(self, replica: int) -> None:
        """One request routed/admitted to ``replica``'s queue."""
        self._accums[replica].arrivals += 1

    def on_reject(self, replica: int) -> None:
        """One request rejected outright at arrival."""
        self._accums[replica].rejections += 1

    def on_complete(self, replica: int, seqs: Sequence, t_s: float) -> None:
        """Bank finished sequences (``SequenceState``) at time ``t_s``.

        ``t_s`` may lie past the open window's boundary (the iteration
        that produced the completions straddled it); assignment to a
        window happens at close time.
        """
        cfg = self.config
        pending = self._accums[replica].pending
        for s in seqs:
            req = s.request
            ttft_s = s.first_token_s - req.arrival_s
            tpot_s = None
            if req.output_tokens > 1:
                tpot_s = ((s.finished_s - s.first_token_s)
                          / (req.output_tokens - 1))
            violated = False
            if cfg.slo_ttft_s is not None and ttft_s > cfg.slo_ttft_s:
                violated = True
            if (cfg.slo_tpot_s is not None and tpot_s is not None
                    and tpot_s > cfg.slo_tpot_s):
                violated = True
            pending.append(
                (s.finished_s, ttft_s * 1e3,
                 None if tpot_s is None else tpot_s * 1e3, violated))

    # -- window closing -----------------------------------------------
    def _gauge(self, sched) -> Tuple[int, int, float, int, int, int]:
        queued = len(sched.waiting) + len(sched.preempted)
        running = len(sched.running)
        occupancy = float(sched.kv_occupancy)
        preemptions = int(sched.n_preemptions)
        lookups = hits = 0
        if sched.prefix_caching:
            stats = sched.prefix_stats()
            lookups, hits = stats.n_lookups, stats.n_lookup_hits
        return queued, running, occupancy, preemptions, lookups, hits

    def _close(self, boundary_s: float, schedulers: Sequence,
               inclusive: bool = False) -> None:
        for rid, sched in enumerate(schedulers):
            acc = self._accums[rid]
            if inclusive:  # final flush: makespan completions count
                done, acc.pending = acc.pending, []
            else:  # half-open window: boundary completions wait
                done = [p for p in acc.pending if p[0] < boundary_s]
                acc.pending = [p for p in acc.pending
                               if p[0] >= boundary_s]
            queued, running, occupancy, preempt, lookups, hits = \
                self._gauge(sched)
            self._windows[rid].append(TimelineWindow(
                t_start_s=self._start_s,
                t_end_s=boundary_s,
                arrivals=acc.arrivals,
                completions=len(done),
                rejections=acc.rejections,
                preemptions=preempt - acc.prev_preemptions,
                prefix_lookups=lookups - acc.prev_lookups,
                prefix_hits=hits - acc.prev_hits,
                slo_violations=sum(1 for p in done if p[3]),
                queue_depth=queued,
                running=running,
                kv_occupancy=occupancy,
                ttft_ms=tuple(p[1] for p in done),
                tpot_ms=tuple(p[2] for p in done if p[2] is not None),
            ))
            acc.arrivals = 0
            acc.rejections = 0
            acc.prev_preemptions = preempt
            acc.prev_lookups = lookups
            acc.prev_hits = hits

    def sample(self, t_s: float, schedulers: Sequence) -> None:
        """Close the open window at its boundary (``t_s`` is the SAMPLE
        event's scheduled time, i.e. :attr:`next_sample_s`)."""
        self._close(self._next_s, schedulers)
        self._start_s = self._next_s
        self._next_s += self.window_s

    def finalize(self, t_end_s: float, schedulers: Sequence) -> Timeline:
        """Flush the trailing partial window and build the timeline.

        ``t_end_s`` is the run's makespan; a trailing window is only
        emitted when the run extended past the last closed boundary or
        activity is still banked (completions landing exactly on the
        final boundary would otherwise be lost to the half-open
        convention).
        """
        leftover = any(acc.pending or acc.arrivals or acc.rejections
                       for acc in self._accums)
        if t_end_s > self._start_s or leftover:
            self._close(max(t_end_s, self._start_s), schedulers,
                        inclusive=True)
        return Timeline(name=self.name, window_s=self.window_s,
                        replicas=self._windows, config=self.config)
