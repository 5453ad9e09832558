"""The statistics collector as it was, kept as the oracle for the rebuilt one.

Until the collectors were rebuilt, :class:`RuntimeCollector` kept one
:class:`Reservoir` per histogram column — every one seeded with the same
``config.seed``, so a collector with four histograms ran four identical RNG
streams, one ``randrange`` per row each — folded min/max over every numeric
column, and fed every value of every batch to the distinct sketches.  These
are those classes, verbatim apart from the imports and a ``HybridDistinct``
subclass that restores the sketch's original un-deduplicated ``add_batch``:
``tests/test_collector_oracle.py`` requires the one-sampler collector to equal
them statistic for statistic, and ``tests/test_random_queries.py`` swaps them
into the engine to require identical plans, switches and simulated costs.
"""

from __future__ import annotations

import random
from operator import itemgetter
from typing import Iterable, Sequence

from repro.config import EngineConfig
from repro.errors import StatisticsError
from repro.executor.collector import ObservedStatistics
from repro.plans.physical import CollectorSpec, StatsCollectorNode
from repro.stats.distinct import HybridDistinct as _HybridDistinct
from repro.stats.histogram import Histogram, HistogramKind, from_sample
from repro.storage.schema import Schema
from repro.storage.table import Row


class HybridDistinct(_HybridDistinct):
    """The sketch with its original feed: every value hashed, every batch."""

    def add_batch(self, values) -> None:
        self._sketch.add_batch(values)
        if self._exact is not None:
            self._exact.update(values)
            if len(self._exact) > self._threshold:
                self._exact = None


class Reservoir:
    """A fixed-capacity uniform random sample maintained in one pass."""

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise StatisticsError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        self._sample: list = []
        self._rng = random.Random(seed)

    def __len__(self) -> int:
        return len(self._sample)

    def add(self, value) -> None:
        """Offer one value to the reservoir (Algorithm R replacement step)."""
        self.seen += 1
        if len(self._sample) < self.capacity:
            self._sample.append(value)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.capacity:
            self._sample[slot] = value

    def extend(self, values: Iterable) -> None:
        """Offer every value from an iterable."""
        for value in values:
            self.add(value)

    def add_batch(self, values: Sequence) -> None:
        """Offer a batch of values with one bookkeeping pass.

        Consumes the RNG exactly as per-value :meth:`add` calls would (one
        ``randrange`` per value past capacity, with the same running
        ``seen``), so the resulting sample is bit-identical to the
        row-at-a-time path.
        """
        sample = self._sample
        capacity = self.capacity
        seen = self.seen
        index = 0
        total = len(values)
        while len(sample) < capacity and index < total:
            sample.append(values[index])
            index += 1
            seen += 1
        randrange = self._rng.randrange
        for index in range(index, total):
            seen += 1
            slot = randrange(seen)
            if slot < capacity:
                sample[slot] = values[index]
        self.seen = seen

    @property
    def sample(self) -> Sequence:
        """The current sample (length ``min(capacity, seen)``)."""
        return tuple(self._sample)

    @property
    def is_exhaustive(self) -> bool:
        """True when the reservoir holds *every* value seen so far."""
        return self.seen <= self.capacity

    def scale_factor(self) -> float:
        """Multiplier mapping sample frequencies to population frequencies."""
        if not self._sample:
            return 0.0
        return self.seen / len(self._sample)


class RuntimeCollector:
    """Per-execution state of one statistics collector."""

    def __init__(
        self,
        node: StatsCollectorNode,
        schema: Schema,
        config: EngineConfig,
    ) -> None:
        self.node = node
        self.schema = schema
        self.config = config
        self.row_count = 0
        spec: CollectorSpec = node.spec
        self._numeric_positions: list[tuple[str, int]] = [
            (col.name, i)
            for i, col in enumerate(schema.columns)
            if col.dtype.is_numeric
        ]
        self._minmax: dict[str, list[float]] = {}
        self._reservoirs: dict[str, tuple[int, Reservoir]] = {
            col: (
                schema.index_of(col),
                Reservoir(config.reservoir_sample_size, seed=config.seed),
            )
            for col in spec.histogram_columns
        }
        self._sketches: dict[tuple[str, ...], tuple[tuple[int, ...], HybridDistinct]] = {}
        for cols in spec.distinct_column_sets:
            positions = tuple(schema.index_of(c) for c in cols)
            self._sketches[cols] = (positions, HybridDistinct(seed=config.seed))

    def observe(self, row: Row) -> None:
        """Examine one tuple (the hot path of the collector operator)."""
        self.row_count += 1
        for name, position in self._numeric_positions:
            value = row[position]
            entry = self._minmax.get(name)
            if entry is None:
                self._minmax[name] = [value, value]
            else:
                if value < entry[0]:
                    entry[0] = value
                elif value > entry[1]:
                    entry[1] = value
        for position, reservoir in self._reservoirs.values():
            reservoir.add(row[position])
        for positions, sketch in self._sketches.values():
            if len(positions) == 1:
                sketch.add(row[positions[0]])
            else:
                sketch.add(tuple(row[p] for p in positions))

    def observe_batch(self, rows: Sequence[Row]) -> None:
        """Examine one batch of tuples (the batch-path fast path).

        Produces state identical to calling :meth:`observe` per row in
        order — running counts and min/max fold over the batch, reservoir
        and sketch updates preserve per-value order so the reservoir's RNG
        stream (and therefore the final histogram) is bit-identical.
        """
        if not rows:
            return
        self.row_count += len(rows)
        minmax = self._minmax
        for name, position in self._numeric_positions:
            values = list(map(itemgetter(position), rows))
            lo = min(values)
            hi = max(values)
            entry = minmax.get(name)
            if entry is None:
                minmax[name] = [lo, hi]
            else:
                if lo < entry[0]:
                    entry[0] = lo
                if hi > entry[1]:
                    entry[1] = hi
        for position, reservoir in self._reservoirs.values():
            reservoir.add_batch(list(map(itemgetter(position), rows)))
        for positions, sketch in self._sketches.values():
            # itemgetter yields the scalar for one position, the tuple for
            # several — matching observe()'s per-row extraction.
            sketch.add_batch(list(map(itemgetter(*positions), rows)))

    def finalize(self) -> ObservedStatistics:
        """Turn the accumulated state into observed statistics."""
        histograms: dict[str, Histogram] = {}
        for column, (__, reservoir) in self._reservoirs.items():
            if reservoir.seen == 0:
                continue
            histograms[column] = from_sample(
                [float(v) for v in reservoir.sample],
                population_count=reservoir.seen,
                kind=HistogramKind.MAXDIFF,
                num_buckets=self.config.runtime_histogram_buckets,
            )
        distincts = {
            cols: max(1.0, min(sketch.estimate(), float(self.row_count)))
            for cols, (__, sketch) in self._sketches.items()
            if self.row_count > 0
        }
        minmax = {
            name: (float(entry[0]), float(entry[1]))
            for name, entry in self._minmax.items()
            if isinstance(entry[0], (int, float))
        }
        return ObservedStatistics(
            node_id=self.node.node_id,
            row_count=self.row_count,
            row_bytes=float(self.schema.row_bytes),
            minmax=minmax,
            histograms=histograms,
            distincts=distincts,
        )
