"""``python -m repro.obs.report`` — markdown breakdown of a Perfetto trace.

Consumes the ``trace_event`` JSON written by :mod:`repro.obs.perfetto`
(or by the ``--trace-out`` / ``--trace-dir`` flags that wrap it) and
renders the causal story behind a run's aggregate metrics:

- a **time breakdown**: total/mean queued vs prefill vs
  preemption-stall vs decode seconds across requests
  (:mod:`repro.obs.breakdown`), aggregated overall *and* per replica
  for fleet (multi-pid) traces, with tail-TTFT attribution;
- **latency percentiles**: TTFT (queued + prefill) and TPOT (decode
  time per generated token) — these reconcile with
  ``ServingReport.metrics()`` because both derive from the same
  simulated timestamps (percentiles replicate ``np.percentile``'s
  linear interpolation, see :func:`repro.obs.metrics.percentile`);
- **preemption causes**: per-replica preemption counts and recompute
  token totals (the only cause today is KV block exhaustion under
  paged admission);
- **per-replica load**: requests served, steps executed, busy seconds
  and the max/mean imbalance ratio across replicas;
- a **dashboard** (``--dashboard`` / ``--html``): sparkline tables of
  the timeline counter tracks (``"C"`` events — queue depth, running
  batch, KV occupancy, windowed flow rates) plus the SLO alert
  history, when the trace carries them.

The module is import-safe (pure stdlib) and the CLI writes markdown to
stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import html as _html
import json
import math
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.obs.breakdown import breakdown_summary, request_breakdowns
from repro.obs.metrics import percentile

__all__ = [
    "build_report",
    "counter_series",
    "load_trace",
    "render_dashboard",
    "render_html",
    "render_markdown",
    "sparkline",
]

_PHASES = ("queued", "prefill", "decode")
_SEGMENTS = ("queued", "prefill", "stall", "decode")


def load_trace(path) -> dict:
    """Load and structurally validate a ``trace_event`` JSON file."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise ValueError(
            f"{path}: not a trace_event JSON object (missing traceEvents)")
    if not isinstance(doc["traceEvents"], list):
        raise ValueError(f"{path}: traceEvents is not a list")
    return doc


def build_report(doc: dict) -> dict:
    """Digest a trace document into plain aggregate structures."""
    # Per-request phase spans, keyed by (pid, tid).
    spans: Dict[tuple, Dict[str, float]] = defaultdict(dict)
    req_args: Dict[tuple, Dict[str, float]] = defaultdict(dict)
    # Per-replica (pid) engine accounting.
    steps: Dict[int, int] = defaultdict(int)
    busy_us: Dict[int, float] = defaultdict(float)
    preemptions: Dict[int, int] = defaultdict(int)
    recompute_tokens: Dict[int, int] = defaultdict(int)
    evicted_blocks: Dict[int, int] = defaultdict(int)
    rejected = 0
    pid_names: Dict[int, str] = {}
    t_min, t_max = math.inf, -math.inf

    for ev in doc["traceEvents"]:
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") == "process_name":
                pid_names[ev["pid"]] = ev["args"]["name"]
            continue
        ts = ev.get("ts")
        if ts is not None:
            t_min = min(t_min, ts)
            t_max = max(t_max, ts + ev.get("dur", 0.0))
        if ph == "X":
            if ev.get("cat") == "engine":
                steps[ev["pid"]] += 1
                busy_us[ev["pid"]] += ev["dur"]
            elif ev.get("cat") == "request":
                key = (ev["pid"], ev["tid"])
                spans[key][ev["name"]] = ev["dur"] / 1e6
                req_args[key].update(ev.get("args", {}))
        elif ph == "i":
            name = ev.get("name")
            if name == "preempted":
                preemptions[ev["pid"]] += 1
                recompute_tokens[ev["pid"]] += \
                    ev.get("args", {}).get("recompute_tokens", 0)
            elif name == "evicted":
                evicted_blocks[ev["pid"]] += \
                    ev.get("args", {}).get("evicted_blocks", 0)
            elif name == "rejected":
                rejected += 1

    # Phase aggregates across completed requests (all three spans seen).
    complete = {k: v for k, v in spans.items()
                if all(p in v for p in _PHASES)}
    phase_totals = {p: sum(v[p] for v in complete.values())
                    for p in _PHASES}
    ttft_ms = [(v["queued"] + v["prefill"]) * 1e3
               for v in complete.values()]
    tpot_ms: List[float] = []
    requests_per_pid: Dict[int, int] = defaultdict(int)
    for key, v in complete.items():
        requests_per_pid[key[0]] += 1
        out_tokens = req_args[key].get("output_tokens", 0)
        if out_tokens > 1:
            tpot_ms.append(v["decode"] * 1e3 / (out_tokens - 1))

    pids = sorted(set(steps) | set(requests_per_pid) | set(preemptions))
    replicas = []
    busy_values = []
    span_s = (t_max - t_min) / 1e6 if t_max > t_min else 0.0
    for pid in pids:
        busy_s = busy_us[pid] / 1e6
        busy_values.append(busy_s)
        replicas.append({
            "pid": pid,
            "name": pid_names.get(pid, f"pid {pid}"),
            "requests": requests_per_pid[pid],
            "steps": steps[pid],
            "busy_s": busy_s,
            "utilization": busy_s / span_s if span_s > 0 else 0.0,
            "preemptions": preemptions[pid],
            "recompute_tokens": recompute_tokens[pid],
            "evicted_blocks": evicted_blocks[pid],
        })
    mean_busy = sum(busy_values) / len(busy_values) if busy_values else 0.0
    imbalance = (max(busy_values) / mean_busy
                 if busy_values and mean_busy > 0 else 1.0)

    breakdown = breakdown_summary(request_breakdowns(doc))

    return {
        "name": doc.get("otherData", {}).get("name", "trace"),
        "n_requests": len(complete),
        "n_rejected": rejected,
        "n_preempted": sum(preemptions.values()),
        "span_s": span_s,
        "phase_totals_s": phase_totals,
        "ttft_ms": ttft_ms,
        "tpot_ms": tpot_ms,
        "replicas": replicas,
        "imbalance": imbalance,
        "breakdown": breakdown,
        "pid_names": pid_names,
    }


def _fmt(value: float, digits: int = 3) -> str:
    if value != value:  # NaN
        return "-"
    return f"{value:.{digits}f}"


def render_markdown(report: dict) -> str:
    """Render :func:`build_report` output as a markdown document."""
    lines = [f"# Trace report: {report['name']}", ""]
    lines.append(f"- requests completed: **{report['n_requests']}**"
                 f" · rejected: {report['n_rejected']}"
                 f" · preempted: {report['n_preempted']}")
    lines.append(f"- traced span: {_fmt(report['span_s'])} s"
                 f" · replicas: {len(report['replicas'])}"
                 f" · load imbalance (max/mean busy):"
                 f" {_fmt(report['imbalance'], 2)}x")
    lines.append("")

    lines.append("## Where request time goes")
    lines.append("")
    lines.append("| phase | total s | mean ms/req | share |")
    lines.append("|---|---|---|---|")
    total = sum(report["phase_totals_s"].values()) or math.nan
    n = report["n_requests"] or 1
    for phase in _PHASES:
        t = report["phase_totals_s"].get(phase, 0.0)
        lines.append(f"| {phase} | {_fmt(t)} | {_fmt(t * 1e3 / n)} "
                     f"| {_fmt(100.0 * t / total, 1)}% |")
    lines.append("")

    bd = report.get("breakdown")
    if bd and bd["n_requests"]:
        lines.append("## Latency breakdown")
        lines.append("")
        lines.append("Queue wait, prefill compute, preemption stall and "
                     "decode, summing exactly to end-to-end latency.")
        lines.append("")
        lines.append("| segment | total s | mean ms/req | share |")
        lines.append("|---|---|---|---|")
        n_bd = bd["n_requests"]
        for seg in _SEGMENTS:
            t = bd["totals_s"][seg]
            lines.append(f"| {seg} | {_fmt(t)} "
                         f"| {_fmt(t * 1e3 / n_bd)} "
                         f"| {_fmt(100.0 * bd['shares'][seg], 1)}% |")
        lines.append("")
        if len(bd["per_replica"]) > 1:
            names = report.get("pid_names", {})
            lines.append("### Per replica")
            lines.append("")
            lines.append("| replica | requests | queued s | prefill s "
                         "| stall s | decode s |")
            lines.append("|---|---|---|---|---|---|")
            for pid, agg in bd["per_replica"].items():
                label = names.get(pid, f"pid {pid}")
                lines.append(
                    f"| {label} | {agg['requests']} "
                    f"| {_fmt(agg['queued'])} | {_fmt(agg['prefill'])} "
                    f"| {_fmt(agg['stall'])} | {_fmt(agg['decode'])} |")
            lines.append("")
        tail = bd["tail_ttft_split"]
        overall = bd["overall_ttft_split"]
        lines.append(
            f"Tail TTFT (p{bd['ttft_tail_q']:g}, "
            f">= {_fmt(bd['ttft_tail_cut_ms'], 1)} ms, "
            f"{bd['tail_n']} requests) splits "
            f"{100 * tail['queued']:.0f}% queued / "
            f"{100 * tail['prefill']:.0f}% prefill / "
            f"{100 * tail['stall']:.0f}% stall, vs "
            f"{100 * overall['queued']:.0f}% / "
            f"{100 * overall['prefill']:.0f}% / "
            f"{100 * overall['stall']:.0f}% overall — dominant tail "
            f"phase: **{bd['tail_dominant_phase']}**.")
        lines.append("")

    lines.append("## Latency percentiles")
    lines.append("")
    lines.append("| metric | p50 | p95 | p99 | mean |")
    lines.append("|---|---|---|---|---|")
    for label, values in (("TTFT ms", report["ttft_ms"]),
                          ("TPOT ms", report["tpot_ms"])):
        p50, p95, p99, mean = (
            (percentile(values, 50), percentile(values, 95),
             percentile(values, 99), sum(values) / len(values))
            if values else (math.nan,) * 4)
        lines.append(f"| {label} | {_fmt(p50)} | {_fmt(p95)} "
                     f"| {_fmt(p99)} | {_fmt(mean)} |")
    lines.append("")

    if report["n_preempted"]:
        lines.append("## Preemptions")
        lines.append("")
        lines.append("All preemptions are recompute preemptions caused by "
                     "KV block exhaustion under paged admission.")
        lines.append("")
        lines.append("| replica | preemptions | recompute tokens "
                     "| evicted blocks |")
        lines.append("|---|---|---|---|")
        for rep in report["replicas"]:
            if rep["preemptions"] or rep["evicted_blocks"]:
                lines.append(f"| {rep['name']} | {rep['preemptions']} "
                             f"| {rep['recompute_tokens']} "
                             f"| {rep['evicted_blocks']} |")
        lines.append("")

    lines.append("## Per-replica load")
    lines.append("")
    lines.append("| replica | requests | steps | busy s | utilization |")
    lines.append("|---|---|---|---|---|")
    for rep in report["replicas"]:
        lines.append(f"| {rep['name']} | {rep['requests']} "
                     f"| {rep['steps']} | {_fmt(rep['busy_s'])} "
                     f"| {_fmt(100.0 * rep['utilization'], 1)}% |")
    lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Dashboard: timeline counter tracks + SLO history as sparkline tables
# ----------------------------------------------------------------------
_SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Counter events whose args carry a generic value key keep the track
#: name instead (``kv_occupancy`` args are ``{"fraction": ...}``).
_GENERIC_ARG_KEYS = frozenset({"fraction", "rate", "value"})


def counter_series(doc: dict) -> Dict[int, Dict[str, List[tuple]]]:
    """Per-pid counter series from a trace's ``"C"`` events.

    Returns ``{pid: {series_name: [(t_s, value), ...]}}`` in time
    order.  Series names come from the counter args (``queue_depth``,
    ``arrivals_per_s``, ...); single-value counters like
    ``kv_occupancy`` use the track name.
    """
    series: Dict[int, Dict[str, List[tuple]]] = defaultdict(
        lambda: defaultdict(list))
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "C":
            continue
        pid = ev["pid"]
        for key, value in ev.get("args", {}).items():
            name = ev["name"] if key in _GENERIC_ARG_KEYS else key
            series[pid][name].append((ev["ts"] / 1e6, float(value)))
    return {pid: {name: sorted(points) for name, points in tracks.items()}
            for pid, tracks in series.items()}


def sparkline(values: Sequence[float], width: int = 48) -> str:
    """Unicode sparkline of a series, downsampled to ``width`` cells.

    Downsampling takes the max of each cell's bucket — a dashboard
    exists to surface spikes, and mean-pooling would erase exactly the
    windows worth looking at.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        per = len(vals) / width
        vals = [max(vals[int(i * per):max(int(i * per) + 1,
                                          int((i + 1) * per))])
                for i in range(width)]
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK_CHARS[0] * len(vals)
    scale = (len(_SPARK_CHARS) - 1) / (hi - lo)
    return "".join(_SPARK_CHARS[int((v - lo) * scale)] for v in vals)


def _slo_events(doc: dict) -> List[dict]:
    return [ev for ev in doc["traceEvents"]
            if ev.get("ph") == "i" and ev.get("cat") == "slo"]


def render_dashboard(doc: dict) -> str:
    """Markdown dashboard: one sparkline table per replica plus the
    SLO alert history, from the trace's counter tracks alone (no
    separate timeline file needed)."""
    report = build_report(doc)
    counters = counter_series(doc)
    names = report.get("pid_names", {})
    lines = [f"# Dashboard: {report['name']}", ""]
    lines.append(f"- traced span: {_fmt(report['span_s'])} s"
                 f" · requests completed: {report['n_requests']}"
                 f" · rejected: {report['n_rejected']}"
                 f" · preempted: {report['n_preempted']}")
    lines.append("")

    if not counters:
        lines.append("_No timeline counter tracks in this trace — "
                     "re-run with `--timeline-out` (bench) or "
                     "`SimConfig(timeline=TimelineConfig(...))`._")
        lines.append("")
    for pid in sorted(counters):
        lines.append(f"## {names.get(pid, f'pid {pid}')}")
        lines.append("")
        lines.append("| series | trend | min | mean | max | last |")
        lines.append("|---|---|---|---|---|---|")
        for name, points in sorted(counters[pid].items()):
            vals = [v for _, v in points]
            mean = sum(vals) / len(vals)
            lines.append(
                f"| {name} | `{sparkline(vals)}` "
                f"| {_fmt(min(vals))} | {_fmt(mean)} "
                f"| {_fmt(max(vals))} | {_fmt(vals[-1])} |")
        lines.append("")

    slo_evs = _slo_events(doc)
    if slo_evs:
        lines.append("## SLO alerts")
        lines.append("")
        lines.append("| event | t (s) | peak burn |")
        lines.append("|---|---|---|")
        for ev in sorted(slo_evs, key=lambda e: e["ts"]):
            burn = ev.get("args", {}).get("peak_burn_rate",
                                          math.nan)
            lines.append(f"| {ev['name']} | {_fmt(ev['ts'] / 1e6)} "
                         f"| {_fmt(burn, 1)}x |")
        lines.append("")

    bd = report.get("breakdown")
    if bd and bd["n_requests"]:
        lines.append("## Latency breakdown")
        lines.append("")
        lines.append("| segment | share |")
        lines.append("|---|---|")
        for seg in _SEGMENTS:
            lines.append(
                f"| {seg} | {_fmt(100.0 * bd['shares'][seg], 1)}% |")
        lines.append("")
        lines.append(f"Dominant tail-TTFT phase "
                     f"(p{bd['ttft_tail_q']:g}): "
                     f"**{bd['tail_dominant_phase']}**.")
        lines.append("")
    return "\n".join(lines)


def render_html(markdown: str, title: str = "repro dashboard") -> str:
    """Self-contained HTML page from this module's own markdown.

    Handles exactly the constructs the renderers above emit (headers,
    pipe tables, lists, inline code/bold) — not a general markdown
    engine, just enough to open a dashboard in a browser.
    """
    out = ["<!DOCTYPE html>", "<html><head>",
           '<meta charset="utf-8">',
           f"<title>{_html.escape(title)}</title>",
           "<style>",
           "body{font-family:system-ui,sans-serif;margin:2em;"
           "max-width:72em}",
           "table{border-collapse:collapse;margin:1em 0}",
           "td,th{border:1px solid #ccc;padding:.3em .6em;"
           "text-align:left}",
           "code{font-family:monospace;white-space:pre}",
           "</style>", "</head><body>"]

    def inline(text: str) -> str:
        text = _html.escape(text)
        while "`" in text:
            pre, _, rest = text.partition("`")
            code, tick, rest = rest.partition("`")
            if not tick:
                text = pre + "`" + code
                break
            text = pre + f"<code>{code}</code>" + rest
        while "**" in text:
            pre, _, rest = text.partition("**")
            bold, mark, rest = rest.partition("**")
            if not mark:
                text = pre + "**" + bold
                break
            text = pre + f"<b>{bold}</b>" + rest
        return text

    in_table = False
    for line in markdown.splitlines():
        stripped = line.strip()
        is_row = stripped.startswith("|") and stripped.endswith("|")
        if in_table and not is_row:
            out.append("</table>")
            in_table = False
        if not stripped:
            continue
        if stripped.startswith("#"):
            level = len(stripped) - len(stripped.lstrip("#"))
            out.append(f"<h{level}>"
                       f"{inline(stripped[level:].strip())}</h{level}>")
        elif is_row:
            cells = [c.strip() for c in stripped.strip("|").split("|")]
            if all(set(c) <= set("-: ") for c in cells):
                continue  # separator row
            tag = "td" if in_table else "th"
            if not in_table:
                out.append("<table>")
                in_table = True
            out.append("<tr>" + "".join(
                f"<{tag}>{inline(c)}</{tag}>" for c in cells) + "</tr>")
        elif stripped.startswith("- "):
            out.append(f"<p>{inline(stripped[2:])}</p>")
        else:
            out.append(f"<p>{inline(stripped)}</p>")
    if in_table:
        out.append("</table>")
    out.append("</body></html>")
    return "\n".join(out)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a markdown breakdown of a repro.obs "
                    "Perfetto trace.")
    parser.add_argument("trace", help="trace_event JSON file "
                                      "(from --trace-out / --trace-dir)")
    parser.add_argument("--out", default=None,
                        help="write markdown here instead of stdout")
    parser.add_argument("--dashboard", action="store_true",
                        help="render the sparkline dashboard (timeline "
                             "counter tracks + SLO history) instead of "
                             "the trace report")
    parser.add_argument("--html", default=None, metavar="PATH",
                        help="additionally write the output as a "
                             "self-contained HTML page")
    args = parser.parse_args(argv)

    doc = load_trace(args.trace)
    if args.dashboard:
        markdown = render_dashboard(doc)
    else:
        markdown = render_markdown(build_report(doc))
    if args.html:
        with open(args.html, "w") as fh:
            fh.write(render_html(
                markdown, title=doc.get("otherData", {}).get(
                    "name", "repro dashboard")))
        print(f"wrote {args.html}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(markdown)
        print(f"wrote {args.out}")
    elif not args.html:
        sys.stdout.write(markdown)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
