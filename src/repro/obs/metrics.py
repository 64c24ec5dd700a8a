"""Metrics registry: counters, gauges and log-bucketed histograms.

The serving stack keeps its operational counters as plain instance
attributes (``scheduler.n_preemptions``, ``allocator.n_evicted_blocks``,
``EventStats.n_idle_polls`` ...) because that is the cheapest thing to
increment in a hot loop.  :class:`MetricsRegistry` is the *export*
surface those attributes flow into at end of run: each subsystem
implements ``emit_metrics(registry, **labels)`` (see
:mod:`repro.serve.scheduler`, :mod:`repro.serve.paging`,
:mod:`repro.serve.prefix`, :mod:`repro.serve.events`,
:mod:`repro.cluster.fleet`), and the registry renders one view,
:meth:`MetricsRegistry.to_flat_dict` — plain ``{name: number}``,
merged into ``ServingReport.metrics()`` / ``FleetReport.metrics()``
and thence into the ``BENCH_<pr>.json`` perf trajectory (histograms
contribute ``<name>_count`` / ``<name>_sum`` plus interpolated
``<name>_p50`` / ``<name>_p95`` / ``<name>_p99`` estimates).

Emission is *unconditional* (every run builds its registry, traced or
not) and reads only end-of-run state, so registry contents are a pure
function of the simulation — bit-identical with tracing on or off,
which the golden tests rely on.

Histograms are log-bucketed: bucket upper bounds form a geometric
series ``start * factor**i`` (Prometheus ``le`` semantics — a value
equal to a boundary falls in that bucket), with one overflow bucket
above the last boundary.  Latency-shaped data spans four orders of
magnitude; log buckets keep relative resolution constant across them.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterator

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


def _label_suffix(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Dict[str, str] | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc by {amount})")
        self.value += amount

    def flat(self) -> Dict[str, float]:
        return {self.name + _label_suffix(self.labels): self.value}


class Gauge:
    """A point-in-time value (peaks, pool sizes, fractions)."""

    __slots__ = ("name", "help", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Dict[str, str] | None = None):
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def flat(self) -> Dict[str, float]:
        return {self.name + _label_suffix(self.labels): self.value}


class Histogram:
    """A log-bucketed distribution with Prometheus ``le`` semantics.

    ``boundaries[i]`` is the inclusive upper bound of bucket ``i``
    (``start * factor**i``); one extra overflow bucket catches values
    above the last boundary.  :meth:`bucket_index` is the placement
    function the property tests pin: for any finite ``value``,
    ``boundaries[index - 1] < value <= boundaries[index]`` (with the
    obvious edge handling at both ends).
    """

    __slots__ = ("name", "help", "labels", "boundaries", "counts",
                 "total", "sum")
    kind = "histogram"

    def __init__(self, name: str, help: str = "", start: float = 0.001,
                 factor: float = 2.0, n_buckets: int = 32,
                 labels: Dict[str, str] | None = None):
        if start <= 0:
            raise ValueError("start must be positive")
        if factor <= 1:
            raise ValueError("factor must be > 1")
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.boundaries = [start * factor ** i for i in range(n_buckets)]
        self.counts = [0] * (n_buckets + 1)  # +1 overflow bucket
        self.total = 0
        self.sum = 0.0

    def bucket_index(self, value: float) -> int:
        """Index of the bucket ``value`` falls in (``le`` inclusive)."""
        if math.isnan(value):
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        return bisect_left(self.boundaries, value)

    def observe(self, value: float) -> None:
        self.counts[self.bucket_index(value)] += 1
        self.total += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from buckets.

        Finds the first bucket whose cumulative count reaches the
        target rank, then interpolates *geometrically* within it —
        the natural interpolation for log-spaced bucket bounds (linear
        interpolation in log space).  The first bucket has no positive
        lower bound, so it interpolates linearly from 0; ranks landing
        in the overflow bucket clamp to the last boundary (the largest
        value the histogram can still localise).  Empty histograms
        estimate 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = q * self.total
        running = 0
        for i, count in enumerate(self.counts):
            running += count
            if running >= rank and count:
                if i == len(self.boundaries):
                    return self.boundaries[-1]
                upper = self.boundaries[i]
                # Fraction of this bucket's count below the rank.
                frac = (rank - (running - count)) / count
                lower = self.boundaries[i - 1] if i else 0.0
                if lower <= 0.0:
                    return upper * frac
                return lower * (upper / lower) ** frac
        return self.boundaries[-1]  # pragma: no cover - rank <= total

    def flat(self) -> Dict[str, float]:
        suffix = _label_suffix(self.labels)
        out = {self.name + "_count" + suffix: self.total,
               self.name + "_sum" + suffix: self.sum}
        for q, tag in ((0.5, "_p50"), (0.95, "_p95"), (0.99, "_p99")):
            out[self.name + tag + suffix] = self.quantile(q)
        return out


class MetricsRegistry:
    """Get-or-create registry of metrics, keyed by name plus labels.

    ``counter`` / ``gauge`` / ``histogram`` return the existing metric
    when the (name, labels) pair is already registered — asking for it
    as a different kind raises — so independent subsystems can emit
    into one registry without coordination.
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[object]:
        """Metrics in sorted full-name order (deterministic exports)."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def _get_or_create(self, cls, name, help, labels, **kwargs):
        key = name + _label_suffix(labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {key!r} is a {existing.kind}, not a "
                    f"{cls.kind}")
            return existing
        metric = cls(name, help=help, labels=labels, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "", start: float = 0.001,
                  factor: float = 2.0, n_buckets: int = 32,
                  **labels) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   start=start, factor=factor,
                                   n_buckets=n_buckets)

    # -- exports ---------------------------------------------------------
    def to_flat_dict(self) -> Dict[str, float]:
        """Plain JSON-safe ``{name: number}`` across every metric.

        This is what report ``metrics()`` dicts merge (and the perf
        trajectory persists): counters and gauges by full name,
        histograms as ``<name>_count`` / ``<name>_sum`` plus the
        interpolated ``<name>_p50`` / ``<name>_p95`` / ``<name>_p99``
        quantile estimates (per-bucket counts would explode the
        trajectory's key space).
        """
        out: Dict[str, float] = {}
        for metric in self:
            out.update(metric.flat())
        return out
