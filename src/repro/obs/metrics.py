"""The metrics registry: counters, gauges and bucketed histograms.

A :class:`MetricsRegistry` maps ``(name, labels)`` to metric instruments.
The process-global :func:`default_registry` is where the execution layers
(engine, backends, the incremental engine) record their instrumentation —
kernel-vs-interpreted dispatch counts, shuffle bytes, rows in/out, refresh
latencies; the query service additionally keeps a *per-service* registry so
two services in one process never mix their serving counters.

Instruments are cheap (one small lock per instrument, no allocation per
observation) and handles are meant to be looked up once and kept — the
engine creates its counters at import time, the service at construction.
Histograms are fixed-bucket: percentiles (p50/p95/p99) are interpolated from
the bucket counts, the exact ``sum``/``count``/``min``/``max`` are tracked
alongside, and the Prometheus exporter renders the classic cumulative
``_bucket``/``_sum``/``_count`` family.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "default_registry",
]

#: Label set of one instrument, canonicalised to a sorted tuple of pairs.
LabelSet = Tuple[Tuple[str, str], ...]

#: Default histogram buckets for latencies in seconds: ~1/4-decade steps
#: from 100 µs to 100 s, which brackets everything from a plan-cache hit to
#: a cold parallel-backend program run.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    float("inf"),
)


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (pool sizes, cache occupancy)."""

    kind = "gauge"

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket distribution with interpolated percentiles."""

    kind = "histogram"

    __slots__ = (
        "name",
        "labels",
        "buckets",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be ascending: {bounds}")
        if bounds[-1] != float("inf"):
            bounds = bounds + (float("inf"),)
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.bucket_counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.RLock()  # a gc callback may re-enter observe()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            # Linear scan: bucket lists are short and observations are per
            # job/request, not per row.
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    break
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def percentile(self, q: float) -> float:
        """The *q*-quantile (``0 < q <= 1``), interpolated within its bucket.

        The finite-bucket estimate interpolates linearly between the bucket's
        bounds; a rank landing in the ``+Inf`` bucket returns the exact
        observed maximum.  0.0 when nothing was observed.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = q * self.count
            cumulative = 0
            for index, bucket_count in enumerate(self.bucket_counts):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= rank:
                    if self.buckets[index] == float("inf"):
                        return self.max
                    lower = self.buckets[index - 1] if index > 0 else 0.0
                    upper = self.buckets[index]
                    fraction = (rank - cumulative) / bucket_count
                    estimate = lower + (upper - lower) * fraction
                    # Never estimate outside the observed range.
                    return min(max(estimate, self.min), self.max)
                cumulative += bucket_count
            return self.max

    def summary(self) -> Dict[str, float]:
        with self._lock:
            count, total = self.count, self.sum
            observed_min = self.min if count else 0.0
            observed_max = self.max if count else 0.0
        return {
            "count": count,
            "sum": total,
            "min": observed_min,
            "max": observed_max,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def snapshot(self) -> "Histogram":
        """An independent copy (for :meth:`QueryService.metrics_history`)."""
        with self._lock:
            copy = Histogram(self.name, self.labels, self.buckets)
            copy.bucket_counts = list(self.bucket_counts)
            copy.count = self.count
            copy.sum = self.sum
            copy.min = self.min
            copy.max = self.max
        return copy


class MetricsRegistry:
    """A named collection of instruments, keyed by ``(name, labels)``.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name and labels returns the same instrument; asking for the same
    name with a different *kind* raises, so exporters never meet a family of
    mixed types.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[Tuple[str, LabelSet], object] = {}
        self._kinds: Dict[str, str] = {}

    def _get_or_create(self, cls, name: str, labels: LabelSet, **kwargs):
        with self._lock:
            known_kind = self._kinds.get(name)
            if known_kind is not None and known_kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{known_kind}, not a {cls.kind}"
                )
            key = (name, labels)
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kwargs)
                self._metrics[key] = metric
                self._kinds[name] = cls.kind
            return metric

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, _labelset(labels))

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, _labelset(labels))

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, _labelset(labels), buckets=buckets
        )

    def collect(self) -> List[Tuple[str, str, List[object]]]:
        """``(name, kind, [instruments])`` families, sorted by name."""
        with self._lock:
            families: Dict[str, List[object]] = {}
            for (name, _), metric in sorted(self._metrics.items()):
                families.setdefault(name, []).append(metric)
            return [
                (name, self._kinds[name], instruments)
                for name, instruments in sorted(families.items())
            ]

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready dump: every instrument's current value/summary."""
        dump: Dict[str, object] = {}
        for name, kind, instruments in self.collect():
            rows = []
            for metric in instruments:
                labels = dict(metric.labels)
                if kind == "histogram":
                    rows.append({"labels": labels, **metric.summary()})
                else:
                    rows.append({"labels": labels, "value": metric.value})
            dump[name] = {"kind": kind, "series": rows}
        return dump

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry the execution layers record into."""
    return _default_registry


def registries_for_export(
    extra: Optional[Iterable[MetricsRegistry]] = None,
) -> List[MetricsRegistry]:
    """The default registry plus any extras, deduplicated, export order."""
    registries: List[MetricsRegistry] = [_default_registry]
    for registry in extra or ():
        if registry is not None and registry not in registries:
            registries.append(registry)
    return registries
