"""Per-request latency decomposition and tail-TTFT attribution.

Run-level percentiles say a run's TTFT p99 is high; this module says
*why*.  From a recorded trace (the ``trace_event`` JSON of
:mod:`repro.obs.perfetto`), each completed request's lifetime is
decomposed into four additive segments:

- **queued** — arrival to first admission (the ``queued`` span);
- **prefill** — first admission to first output token, *minus* any
  preemption stall that landed inside it;
- **stall** — time between a ``preempted`` instant and the matching
  re-admission instant (``readmission`` marker), summed per request.
  The lifecycle spans alone hide this: a preempted request's recompute
  wait is buried inside its prefill/decode spans;
- **decode** — first token to completion, minus decode-phase stall.

The segments sum to end-to-end latency exactly (tested as an
invariant), so phase shares are honest fractions of real time.  Tail
attribution then answers the paper-review question "what dominates
p99 TTFT?": among requests whose TTFT is at or above the tail
percentile, how does queue wait vs prefill compute split, compared to
the overall population — a scheduling problem reads as queued-share,
a compute problem as prefill-share.

Consumed by ``python -m repro.obs.report`` (tables + dashboard) and
importable directly for tests and notebooks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from repro.obs.report import percentile

__all__ = ["breakdown_summary", "request_breakdowns"]

_SEGMENTS = ("queued", "prefill", "stall", "decode")


def _pair_stalls(instants: List[tuple]) -> List[tuple]:
    """``(t_preempt, t_readmit)`` pairs from a request's instant list.

    ``instants`` is ``[(ts_s, name, readmission), ...]`` in time
    order.  Every ``preempted`` is matched with the next re-admission
    (``admitted`` carrying the readmission marker); an unmatched
    trailing preemption (request still stalled at trace end) is
    dropped — its wait never resolved into more progress.
    """
    pairs = []
    pending: Optional[float] = None
    for ts, name, readmission in instants:
        if name == "preempted":
            if pending is None:
                pending = ts
        elif name == "admitted" and readmission and pending is not None:
            pairs.append((pending, ts))
            pending = None
    return pairs


def request_breakdowns(doc: dict) -> List[dict]:
    """Per-request segment dicts from a ``trace_event`` document.

    Handles fleet (multi-pid) and merged multi-run traces: requests
    are keyed by ``(pid, tid)``, and each output row carries its
    ``pid`` so callers can aggregate per replica.  Only requests with
    all three lifecycle spans (completed within the trace) appear.
    """
    spans: Dict[tuple, Dict[str, tuple]] = defaultdict(dict)
    args: Dict[tuple, dict] = defaultdict(dict)
    instants: Dict[tuple, List[tuple]] = defaultdict(list)
    for ev in doc["traceEvents"]:
        ph = ev.get("ph")
        if ph == "X" and ev.get("cat") == "request":
            key = (ev["pid"], ev["tid"])
            spans[key][ev["name"]] = (ev["ts"] / 1e6,
                                      ev.get("dur", 0.0) / 1e6)
            args[key].update(ev.get("args", {}))
        elif ph == "i" and ev.get("name") in ("preempted", "admitted"):
            key = (ev["pid"], ev["tid"])
            instants[key].append(
                (ev["ts"] / 1e6, ev["name"],
                 ev.get("args", {}).get("readmission", 0)))

    out = []
    for key in sorted(spans):
        phases = spans[key]
        if not all(p in phases for p in ("queued", "prefill", "decode")):
            continue
        q_ts, q_dur = phases["queued"]
        p_ts, p_dur = phases["prefill"]
        d_ts, d_dur = phases["decode"]
        first_token_s = p_ts + p_dur
        prefill_stall = decode_stall = 0.0
        for t0, t1 in _pair_stalls(sorted(instants.get(key, []))):
            # A stall belongs to the phase it started in.
            if t0 < first_token_s:
                prefill_stall += t1 - t0
            else:
                decode_stall += t1 - t0
        out.append({
            "pid": key[0],
            "req_id": key[1] - 1,  # request tracks are tid = req_id + 1
            "queued": q_dur,
            "prefill": max(p_dur - prefill_stall, 0.0),
            "stall": prefill_stall + decode_stall,
            "decode": max(d_dur - decode_stall, 0.0),
            "ttft_s": q_dur + p_dur,
            "latency_s": q_dur + p_dur + d_dur,
            "output_tokens": args[key].get("output_tokens", 0),
            "preemptions": args[key].get("preemptions", 0),
        })
    return out


def breakdown_summary(breakdowns: List[dict],
                      tail_q: float = 99.0) -> dict:
    """Aggregate a breakdown list into totals, shares and the tail
    attribution (which phase dominates TTFT at/above ``tail_q``)."""
    n = len(breakdowns)
    totals = {seg: sum(b[seg] for b in breakdowns) for seg in _SEGMENTS}
    grand = sum(totals.values())
    shares = {seg: (totals[seg] / grand if grand > 0 else 0.0)
              for seg in _SEGMENTS}

    per_replica: Dict[int, dict] = {}
    for b in breakdowns:
        agg = per_replica.setdefault(
            b["pid"], {seg: 0.0 for seg in _SEGMENTS} | {"requests": 0})
        agg["requests"] += 1
        for seg in _SEGMENTS:
            agg[seg] += b[seg]

    ttfts = [b["ttft_s"] for b in breakdowns]
    tail_cut = percentile(ttfts, tail_q) if n else float("nan")
    tail = [b for b in breakdowns if b["ttft_s"] >= tail_cut]

    def _ttft_split(rows: List[dict]) -> dict:
        """Queue-wait vs prefill-compute vs stall shares of summed
        TTFT (decode never contributes to TTFT)."""
        queued = sum(r["queued"] for r in rows)
        stall = sum(min(r["stall"], max(r["ttft_s"] - r["queued"]
                                        - r["prefill"], 0.0))
                    for r in rows)
        prefill = sum(r["ttft_s"] for r in rows) - queued - stall
        total = queued + prefill + stall
        if total <= 0:
            return {"queued": 0.0, "prefill": 0.0, "stall": 0.0}
        return {"queued": queued / total, "prefill": prefill / total,
                "stall": stall / total}

    tail_split = _ttft_split(tail)
    overall_split = _ttft_split(breakdowns)
    dominant = max(tail_split, key=lambda k: (tail_split[k], k)) \
        if tail else None

    return {
        "n_requests": n,
        "totals_s": totals,
        "shares": shares,
        "per_replica": {
            pid: agg for pid, agg in sorted(per_replica.items())},
        "ttft_tail_q": tail_q,
        "ttft_tail_cut_ms": tail_cut * 1e3,
        "tail_n": len(tail),
        "tail_ttft_split": tail_split,
        "overall_ttft_split": overall_split,
        "tail_dominant_phase": dominant,
    }
