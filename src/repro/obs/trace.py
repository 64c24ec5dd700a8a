"""Cross-layer run tracer with a near-zero-cost disabled path.

Aggregate metrics (:meth:`~repro.serve.simulator.ServingReport.metrics`)
answer *what* a run did; this module records *why* — per-request
lifecycle timelines and per-iteration batch composition — without
perturbing the simulation.  Two invariants shape the design:

1. **Disabled tracing is bit-identical and near-free.**  The default
   tracer is the module-level :data:`NULL_TRACER` singleton whose
   methods are no-ops; hot paths guard every recording site with
   ``if tracer.enabled:`` (one attribute read per iteration), so a
   run with tracing off takes the exact same arithmetic path as
   before this module existed.  Golden tests pin that.
2. **Enabled tracing is observation only.**  The tracer appends plain
   tuples to column-oriented list buffers — it never reads back into
   scheduling decisions, so metrics with tracing *on* are also
   bit-identical to tracing off (tested).

Three buffers, all lists of tuples (column meanings below):

- :attr:`Tracer.steps` — one row per executed iteration:
  ``(replica, t_start_s, dur_us, n_prefill_seqs, prefill_tokens,
  decode_batch, kv_occupancy)``;
- :attr:`Tracer.events` — instant events:
  ``(kind, t_s, replica, req_id, value)`` with ``kind`` one of the
  ``EVT_*`` constants (``value`` is kind-specific: recompute tokens
  for preemptions, evicted block count for evictions, chunk tokens
  for prefill chunks, 1 for a re-admission);
- :attr:`Tracer.requests` — one summary row per finished request:
  ``(req_id, replica, arrival_s, admitted_s, first_token_s,
  finished_s, prompt_tokens, output_tokens, cached_tokens,
  preemptions)``.  ``admitted_s`` is the *first* admission, so
  ``arrival -> admitted -> first_token -> finished`` partitions the
  lifetime into queued / prefill / decode spans (a preempted
  request's recompute time lands in its decode span).

Exporters live next door: :mod:`repro.obs.perfetto` renders the
buffers as Chrome/Perfetto ``trace_event`` JSON and
:mod:`repro.obs.report` turns that into a markdown time breakdown.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = [
    "EVT_ADMITTED",
    "EVT_EVICTED",
    "EVT_PREEMPTED",
    "EVT_PREFILL_CHUNK",
    "EVT_REJECTED",
    "EVENT_NAMES",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
]

#: Instant-event kinds (the ``kind`` column of :attr:`Tracer.events`).
EVT_ADMITTED = 0
EVT_PREEMPTED = 1
EVT_REJECTED = 2
EVT_EVICTED = 3
EVT_PREFILL_CHUNK = 4

#: Human-readable names, used by the exporters.
EVENT_NAMES = {
    EVT_ADMITTED: "admitted",
    EVT_PREEMPTED: "preempted",
    EVT_REJECTED: "rejected",
    EVT_EVICTED: "evicted",
    EVT_PREFILL_CHUNK: "prefill_chunk",
}


class NullTracer:
    """The disabled path: every recording method is a no-op.

    ``enabled`` is a class attribute, so the per-iteration guard
    ``if tracer.enabled:`` costs one attribute read and a branch.
    Use the shared :data:`NULL_TRACER` singleton rather than
    constructing instances.
    """

    __slots__ = ()
    enabled = False

    def step(self, replica, t_s, dur_us, plan, kv_occupancy) -> None:
        pass

    def event(self, kind, t_s, replica, req_id, value=0) -> None:
        pass

    def request(self, *row) -> None:
        pass

    def record_sequences(self, replica, seqs) -> None:
        pass


#: Module-level no-op tracer: the default value of every ``tracer``
#: attribute in the serving stack.
NULL_TRACER = NullTracer()


class Tracer:
    """Column-oriented buffers of one traced run (see module docs)."""

    __slots__ = ("name", "steps", "events", "requests")
    enabled = True

    def __init__(self, name: str = "trace"):
        self.name = name
        self.steps: List[Tuple] = []
        self.events: List[Tuple] = []
        self.requests: List[Tuple] = []

    # -- recording (hot path: keep these append-only) ------------------
    def step(self, replica: int, t_s: float, dur_us: float, plan,
             kv_occupancy: float) -> None:
        """Record one executed iteration and its prefill chunks.

        ``plan`` is a :class:`~repro.serve.scheduler.BatchPlan` (duck
        typed: ``prefill`` pairs and ``decode`` list) priced at
        ``dur_us``, starting at simulated second ``t_s``.
        """
        prefill = plan.prefill
        self.steps.append(
            (replica, t_s, dur_us, len(prefill),
             sum(chunk for _, chunk in prefill), len(plan.decode),
             kv_occupancy))
        if prefill:
            append = self.events.append
            for seq, chunk in prefill:
                append((EVT_PREFILL_CHUNK, t_s, replica,
                        seq.request.req_id, chunk))

    def event(self, kind: int, t_s: float, replica: int, req_id: int,
              value: int = 0) -> None:
        """Record one instant event (an ``EVT_*`` kind)."""
        self.events.append((kind, t_s, replica, req_id, value))

    def request(self, req_id: int, replica: int, arrival_s: float,
                admitted_s: float, first_token_s: float,
                finished_s: float, prompt_tokens: int, output_tokens: int,
                cached_tokens: int, preemptions: int) -> None:
        """Record one finished request's lifecycle summary row."""
        self.requests.append(
            (req_id, replica, arrival_s, admitted_s, first_token_s,
             finished_s, prompt_tokens, output_tokens, cached_tokens,
             preemptions))

    def record_sequences(self, replica: int, seqs) -> None:
        """Append request rows for finished
        :class:`~repro.serve.scheduler.SequenceState` objects (called
        once at end of run, not in the hot loop)."""
        for s in seqs:
            req = s.request
            self.request(req.req_id, replica, req.arrival_s, s.admitted_s,
                         s.first_token_s, s.finished_s, req.prompt_tokens,
                         req.output_tokens, s.cached_tokens, s.preemptions)

    # -- introspection --------------------------------------------------
    @property
    def n_requests(self) -> int:
        return len(self.requests)

    @property
    def replicas(self) -> List[int]:
        """Sorted replica ids appearing anywhere in the buffers."""
        ids = {row[0] for row in self.steps}
        ids.update(row[2] for row in self.events)
        ids.update(row[1] for row in self.requests)
        return sorted(ids)
