"""Process-wide metrics registry.

Named counters, gauges, and histograms that accumulate *across* queries —
the cross-query complement to the per-query :class:`~repro.observe.trace.QueryTracer`.
The engine feeds it plan-cache hit/miss/eviction counts, reoptimizer
switch/reallocation counts, join row counts and rows folded, and
buffer-pool hit rates; benchmarks dump :meth:`MetricsRegistry.snapshot`
into their ``BENCH_*.json`` documents so the perf trajectory records the
*why* alongside the timings.

Everything here is simulated-clock-free and purely additive: recording a
metric never touches the cost clock, so metrics (like tracing) cannot
perturb parity.
"""

from __future__ import annotations

import threading
from typing import Iterable


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
]

#: Default histogram bucket upper bounds (wide enough for both wall-clock
#: seconds and simulated cost units).
DEFAULT_BUCKETS = (
    0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0,
)


class Counter:
    """Monotonically increasing named value.

    ``inc`` holds a per-metric lock: Python's ``+=`` on an attribute is a
    read-modify-write, and concurrent server sessions incrementing the same
    counter must not lose updates.
    """

    __slots__ = ("name", "value", "_lock", "__weakref__")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-write-wins named value."""

    __slots__ = ("name", "value", "_lock", "__weakref__")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> float:
        """Atomic read-modify-write adjust (queue depths, active sessions)."""
        with self._lock:
            self.value += float(delta)
            return self.value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with count/sum/min/max.

    ``observe`` updates five fields; the per-metric lock keeps them mutually
    consistent under concurrent sessions (count must equal the bucket sum).
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "minimum", "maximum", "_lock", "__weakref__")

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds = tuple(sorted(float(bound) for bound in buckets))
        if not self.bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bucket")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.minimum = value if self.minimum is None else min(self.minimum, value)
            self.maximum = value if self.maximum is None else max(self.maximum, value)
            for index, bound in enumerate(self.bounds):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    return
            self.bucket_counts[-1] += 1

    def snapshot(self) -> dict:
        with self._lock:
            buckets = {
                f"le_{bound:g}": count
                for bound, count in zip(self.bounds, self.bucket_counts)
            }
            buckets["le_inf"] = self.bucket_counts[-1]
            return {
                "type": "histogram",
                "count": self.count,
                "sum": round(self.total, 9),
                "min": self.minimum,
                "max": self.maximum,
                "buckets": buckets,
            }


class MetricsRegistry:
    """Thread-safe registry of named metrics.

    Names are dotted (``plan_cache.hits``); the first accessor to use a
    name fixes its type, and re-registering under a different type raises.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get(name, Histogram, lambda: Histogram(name, buckets))

    def snapshot(self) -> dict[str, dict]:
        """Plain-dict snapshot of every metric, sorted by name — safe to
        embed directly in JSON benchmark documents."""
        with self._lock:
            return {
                name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())
            }

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry engines record into unless given their own."""
    return _DEFAULT_REGISTRY
