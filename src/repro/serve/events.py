"""Global event heap: the time source of the fast-path simulators.

:class:`EventLoop` is one ``heapq`` ordered by simulated time, shared
by the single-engine and the fleet driver.  Event kinds:

- :data:`ARRIVAL` — a request hits the front end;
- :data:`STEP` — a fleet replica reaches its next iteration boundary
  (the single-engine driver advances its one clock directly and
  pushes none);
- :data:`TRANSFER` — reserved for cross-replica work movement
  (prefill/decode disaggregation, the ROADMAP item this core exists
  to unlock); no current producer.
- :data:`SAMPLE` — a periodic telemetry boundary
  (:mod:`repro.obs.timeline`): pure observation, never simulation.
  SAMPLE pops are counted separately (``EventStats.n_samples``) and
  excluded from every exported counter, so a run's ``metrics()`` stays
  bit-identical with sampling on or off.

Ordering is ``(time, kind, seq)``: at equal time an ARRIVAL pops
before a STEP, which reproduces the lockstep contract exactly — only
iterations that start strictly *before* an arrival (``now_s < t``)
count as run when it is routed, and an iteration boundary landing
exactly on the arrival instant waits until after routing.  SAMPLE sorts before both,
so timeline windows are half-open ``[start, end)`` — an arrival landing
exactly on a window boundary counts in the *next* window.  ``seq`` is
a monotone tiebreaker so payloads never need comparing.

Because replicas interact only through routing, the fleet is
*bit-identical* to a lockstep schedule that advances every replica to
each arrival before routing it, though no replica is advanced to every
arrival any more: each replica's iteration chain is a function of its
own submissions and clock, and the router reads each replica as of the
arrival instant.  A replica's replayed decode run stays in flight
across arrivals routed elsewhere; the router reads it through views
that add what the run's iterations before the arrival change
(:class:`~repro.cluster.fleet.RouterPolicy`), and only an arrival
routed to the replica cuts it.  An idle replica is not in the heap at
all, so sparse-arrival fleets never pay a poll-everyone tax
(:class:`EventStats` counts exactly that; ``tests/test_serve_events.py``
pins the equivalence against a lockstep oracle, read by read, and the
drop).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

__all__ = ["ARRIVAL", "SAMPLE", "STEP", "TRANSFER", "EventLoop",
           "EventStats"]

#: Event kinds, in tie-break priority order (lower pops first at equal
#: simulated time — see the module docstring for why
#: SAMPLE < ARRIVAL < STEP).
SAMPLE = -1
ARRIVAL = 0
STEP = 1
TRANSFER = 2


@dataclass
class EventStats:
    """Counters of one event-loop run (wakeup accounting).

    ``n_step_events`` counts the iterations a fleet's replicas applied,
    and ``n_events`` counts them the same way, not STEP pops: a replica
    lays out a whole run of identical decode-only iterations on one
    STEP pop and may apply it at a later ARRIVAL, SAMPLE or STEP, and a
    cut leaves a stale STEP in the heap whose pop runs nothing, so the
    fleet driver sets both from the iterations applied
    (``Replica.n_wakeups`` counts the STEP pops that plan).  The
    single-engine driver pushes no STEP events, so its
    ``n_step_events`` is 0.  ``n_idle_polls`` counts wakeups that found
    no runnable work; the heap keeps it at zero by construction, and
    the regression test holds it there.
    """

    n_events: int = 0
    n_arrivals: int = 0
    n_step_events: int = 0
    n_transfers: int = 0
    n_idle_polls: int = 0
    #: Timeline SAMPLE pops.  Deliberately *not* part of ``n_events``
    #: and never exported by :meth:`emit_metrics`: the sampling cadence
    #: is an observability knob, and report metrics must stay
    #: bit-identical whether a run sampled or not.
    n_samples: int = 0

    def emit_metrics(self, registry, **labels) -> None:
        """Emit these counters into a
        :class:`~repro.obs.metrics.MetricsRegistry` (``n_idle_polls``
        stays zero by construction — exporting it makes the invariant
        monitorable, not just testable)."""
        registry.counter(
            "events_total", "Events popped from the global heap",
            **labels).inc(self.n_events)
        registry.counter(
            "events_arrivals_total", "ARRIVAL events popped",
            **labels).inc(self.n_arrivals)
        registry.counter(
            "events_steps_total", "Iterations run by STEP events",
            **labels).inc(self.n_step_events)
        registry.counter(
            "events_transfers_total", "TRANSFER events popped",
            **labels).inc(self.n_transfers)
        registry.counter(
            "events_idle_polls_total",
            "Wakeups that found no runnable work",
            **labels).inc(self.n_idle_polls)


class EventLoop:
    """A ``heapq``-based future event list over simulated seconds."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self.stats = EventStats()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def empty(self) -> bool:
        return not self._heap

    def push(self, time_s: float, kind: int, payload: Any = None) -> None:
        """Schedule ``payload`` at ``time_s`` (stable FIFO at ties)."""
        self._seq += 1
        heapq.heappush(self._heap, (time_s, kind, self._seq, payload))

    def peek(self) -> Optional[Tuple[float, int, Any]]:
        """The next event without popping it, or ``None``."""
        if not self._heap:
            return None
        time_s, kind, _, payload = self._heap[0]
        return time_s, kind, payload

    def pop(self) -> Tuple[float, int, Any]:
        """Remove and return the next ``(time_s, kind, payload)``."""
        time_s, kind, _, payload = heapq.heappop(self._heap)
        st = self.stats
        if kind == SAMPLE:
            # Observation only: excluded from every exported counter.
            st.n_samples += 1
            return time_s, kind, payload
        st.n_events += 1
        if kind == ARRIVAL:
            st.n_arrivals += 1
        elif kind == STEP:
            st.n_step_events += 1
        else:
            st.n_transfers += 1
        return time_s, kind, payload
