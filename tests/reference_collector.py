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
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from repro.config import EngineConfig
from repro.errors import StatisticsError
from repro.executor.collector import ObservedStatistics
from repro.plans.physical import CollectorSpec, StatsCollectorNode
from repro.stats.distinct import HybridDistinct as _HybridDistinct, _mix64
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

    def merge(self, other: "Reservoir", rng: random.Random | None = None) -> None:
        """Fold another reservoir into this one (weighted union sampling).

        After merging, this reservoir holds a uniform random sample of the
        *combined* population: each retained element of either input stands
        for ``seen / len(sample)`` population values, and elements are drawn
        from the two (shuffled) samples with probability proportional to the
        unrepresented population weight remaining on each side — the
        standard distributed-reservoir union.  When both inputs are
        exhaustive (``seen <= capacity`` combined) the merge is a plain
        concatenation and stays exhaustive.

        ``rng`` selects the randomness source for the weighted draw (the
        parallel executor passes a dedicated merge RNG so results depend
        only on morsel order, never on worker scheduling); by default this
        reservoir's own RNG is used.
        """
        if other.seen == 0:
            return
        if self.capacity != other.capacity:
            raise StatisticsError(
                f"cannot merge reservoirs of capacity {other.capacity} "
                f"into {self.capacity}"
            )
        if self.seen == 0:
            self.seen = other.seen
            self._sample = list(other._sample)
            return
        total = self.seen + other.seen
        if total <= self.capacity:
            self._sample.extend(other._sample)
            self.seen = total
            return
        rng = self._rng if rng is None else rng
        ours = list(self._sample)
        theirs = list(other._sample)
        rng.shuffle(ours)
        rng.shuffle(theirs)
        # Remaining population weight on each side; consumed in per-element
        # decrements so early draws from a side make later ones less likely.
        weight_ours = float(self.seen)
        weight_theirs = float(other.seen)
        step_ours = weight_ours / len(ours)
        step_theirs = weight_theirs / len(theirs)
        merged: list = []
        i = j = 0
        target = min(self.capacity, len(ours) + len(theirs))
        while len(merged) < target:
            if i >= len(ours):
                merged.append(theirs[j])
                j += 1
                continue
            if j >= len(theirs):
                merged.append(ours[i])
                i += 1
                continue
            if rng.random() * (weight_ours + weight_theirs) < weight_ours:
                merged.append(ours[i])
                i += 1
                weight_ours -= step_ours
            else:
                merged.append(theirs[j])
                j += 1
                weight_theirs -= step_theirs
        self._sample = merged
        self.seen = total

    def __getstate__(self) -> dict:
        """Compact picklable state (workers ship reservoirs back by value)."""
        return {
            "capacity": self.capacity,
            "seen": self.seen,
            "sample": list(self._sample),
            "rng": self._rng.getstate(),
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.seen = state["seen"]
        self._sample = list(state["sample"])
        self._rng = random.Random()
        self._rng.setstate(state["rng"])

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


#: Salt for the dedicated reservoir-merge RNG, so merge randomness never
#: aliases the per-reservoir sampling streams derived from the same seed.
_MERGE_RNG_SALT = 0xC2B2AE3D27D4EB4F


@dataclass
class CollectorPartial:
    """Picklable partial collector state for one morsel of input.

    Everything a parallel worker ships back about the statistics side of a
    leaf pipeline: running count, per-column min/max, the distinct sketches
    (bitmap-OR mergeable), and — in merge-mode statistics only — one
    per-morsel-seeded reservoir per histogram column.  Exact-mode workers
    ship ``reservoirs=None``; the parent replays its serially-seeded
    reservoirs over the (already shipped) output rows instead.
    """

    row_count: int
    minmax: dict[str, list]
    sketches: dict[tuple[str, ...], HybridDistinct]
    reservoirs: dict[str, Reservoir] | None


class RuntimeCollector:
    """Per-execution state of one statistics collector."""

    def __init__(
        self,
        node: StatsCollectorNode,
        schema: Schema,
        config: EngineConfig,
        collect_reservoirs: bool = True,
        reservoir_seed: int | None = None,
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
        # ``collect_reservoirs=False`` is the exact-statistics parallel
        # worker: reservoir sampling is the one non-mergeable statistic (its
        # sample depends on one serial RNG stream), so workers skip it and
        # the parent replays it over the merged output.  ``reservoir_seed``
        # is the merge-statistics worker: an independent stream per morsel
        # index, making merged samples schedule-independent.
        seed = config.seed if reservoir_seed is None else reservoir_seed
        self._reservoirs: dict[str, tuple[int, Reservoir]] = (
            {
                col: (schema.index_of(col), Reservoir(config.reservoir_sample_size, seed=seed))
                for col in spec.histogram_columns
            }
            if collect_reservoirs
            else {}
        )
        self._merge_rng: random.Random | None = None
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

    def export_partial(self) -> CollectorPartial:
        """Package this collector's state for shipping to a merging parent."""
        return CollectorPartial(
            row_count=self.row_count,
            minmax={name: list(entry) for name, entry in self._minmax.items()},
            sketches={cols: sketch for cols, (__, sketch) in self._sketches.items()},
            reservoirs=(
                {col: reservoir for col, (__, reservoir) in self._reservoirs.items()}
                if self._reservoirs
                else None
            ),
        )

    def absorb_partial(self, partial: CollectorPartial) -> None:
        """Fold one morsel's partial state into this collector.

        Counts and min/max fold associatively; distinct sketches merge
        losslessly (bitmap OR / exact-set union), so absorbing partials in
        *any* order yields the state a serial collector would have reached.
        Reservoirs (merge-mode statistics only) merge with a dedicated RNG,
        so as long as partials arrive in morsel order — which the parallel
        executor guarantees regardless of worker scheduling — the merged
        sample is deterministic.
        """
        self.row_count += partial.row_count
        minmax = self._minmax
        for name, (lo, hi) in partial.minmax.items():
            entry = minmax.get(name)
            if entry is None:
                minmax[name] = [lo, hi]
            else:
                if lo < entry[0]:
                    entry[0] = lo
                if hi > entry[1]:
                    entry[1] = hi
        for cols, sketch in partial.sketches.items():
            self._sketches[cols][1].merge(sketch)
        if partial.reservoirs:
            if self._merge_rng is None:
                self._merge_rng = random.Random(
                    _mix64(self.config.seed ^ _MERGE_RNG_SALT)
                )
            for col, reservoir in partial.reservoirs.items():
                self._reservoirs[col][1].merge(reservoir, rng=self._merge_rng)

    def replay_reservoirs(self, rows: Sequence[Row]) -> None:
        """Offer pipeline output rows to the reservoirs only (exact mode).

        Each reservoir owns an independent RNG, and its sampling stream
        consumes one draw per offered value — so feeding the rows in morsel
        order reproduces the serial collector's samples bit-for-bit while
        counts/min-max/sketches arrive pre-merged from the workers.
        """
        if not rows:
            return
        for position, reservoir in self._reservoirs.values():
            reservoir.add_batch(list(map(itemgetter(position), rows)))

    def replay_reservoir_values(self, values_by_column: dict[str, list]) -> None:
        """Offer pre-extracted column values to the reservoirs (exact mode).

        The probe-side and pre-aggregating parallel pipelines do not ship
        the collector's input rows (they ship joined rows or aggregate
        partials), so workers extract each reservoir column's values and
        ship those instead.  Each reservoir's sampling stream depends only
        on its own column's value sequence, so replaying per-morsel value
        runs in morsel order is bit-identical to the serial row stream.
        """
        for column, values in values_by_column.items():
            if values:
                self._reservoirs[column][1].add_batch(values)

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
