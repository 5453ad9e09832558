"""The statistics-collector operator's run-time machinery.

A collector examines every tuple streaming past without modifying, copying
or discarding it (paper section 2.2 / 3.1):

* cardinality and average tuple size — a running count (always on),
* min/max per numeric column — a running comparison (always on),
* histograms — a one-page reservoir sample per chosen attribute (Vitter
  [24]; one row sampler per collector places all of them), turned into a
  histogram when the input is exhausted ([19]),
* distinct counts — a Flajolet–Martin sketch per chosen attribute set [6]
  (hybridised with exact counting below a threshold, where PCSA is biased).

No I/O is performed.  The CPU overhead is charged to the clock's dedicated
``stats_cpu`` category so the overhead experiments (E5/E7) can report it.

The result is an :class:`ObservedStatistics`, which converts into a
:class:`~repro.stats.estimator.RelProfile` — *observed*, not estimated —
that the improved-estimate machinery substitutes into the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from time import perf_counter
from typing import Mapping, Sequence

from ..config import EngineConfig
from ..plans.physical import CollectorSpec, StatsCollectorNode
from ..stats.distinct import HybridDistinct
from ..stats.histogram import Histogram, HistogramKind, from_sample
from ..stats.sampling import RowSampler
from ..stats.table_stats import ColumnStats
from ..stats.estimator import RelProfile
from ..storage.schema import DataType, Schema
from ..storage.table import Row
from .chunk import Chunk, as_chunk


@dataclass(frozen=True)
class CollectorWork:
    """What one collector's statistics cost: real seconds, exact work counts."""

    wall_s: float = 0.0
    reservoir_draws: int = 0
    sketch_values_hashed: int = 0
    minmax_columns_tracked: int = 0
    #: Tracked columns a join's chunk folded as Python values, lacking an
    #: int64 / NaN-free float64 form (row lists always fold so, uncounted).
    minmax_python_columns: int = 0


@dataclass
class ObservedStatistics:
    """Run-time statistics gathered by one collector."""

    node_id: int
    row_count: int
    row_bytes: float
    minmax: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    histograms: Mapping[str, Histogram] = field(default_factory=dict)
    distincts: Mapping[tuple[str, ...], float] = field(default_factory=dict)
    #: What gathering these cost.  Not a statistic: never compared.
    work: CollectorWork = field(default_factory=CollectorWork, compare=False)

    def describe(self) -> dict:
        """Compact JSON-able summary for trace events and EXPLAIN ANALYZE."""
        return {
            "rows": self.row_count,
            "row_bytes": round(self.row_bytes, 1),
            "histograms": sorted(self.histograms),
            "distincts": {
                ", ".join(cols): round(estimate, 1)
                for cols, estimate in sorted(self.distincts.items())
            },
            "minmax_columns": sorted(self.minmax),
        }

    def merge_into_profile(self, estimated: RelProfile | None) -> RelProfile:
        """Build an observed profile, reusing estimated stats where unobserved.

        Observed cardinality always wins; estimated per-column statistics are
        rescaled to the observed row count, then observed histograms, min/max
        and distinct counts override them.
        """
        rows = float(max(self.row_count, 1))
        columns: dict[str, ColumnStats] = {}
        if estimated is not None:
            scale = rows / max(estimated.rows, 1.0)
            for name, stats in estimated.columns.items():
                if not stats.has_histogram:
                    histogram = stats.histogram
                elif scale <= 1.0:
                    # Fewer rows than estimated: rows were removed.
                    histogram = stats.histogram.scaled(scale)
                else:
                    # More rows than estimated: same shape, higher frequency
                    # per value (distincts kept) — crucial so that the
                    # observed cardinality surge propagates into downstream
                    # join-size estimates even without an observed histogram.
                    histogram = stats.histogram.scaled_counts(scale)
                columns[name] = stats._replace(
                    name=name,
                    count=rows,
                    distinct=max(1.0, min(stats.distinct, rows)),
                    histogram=histogram,
                    observed=False,
                )
        for name, (lo, hi) in self.minmax.items():
            # No estimate: distinct unknown, the estimator falls back to defaults.
            base = columns.get(name) or ColumnStats(name, DataType.FLOAT, rows, 0.0)
            columns[name] = base._replace(
                count=rows, min_value=lo, max_value=hi, observed=True
            )
        for name, histogram in self.histograms.items():
            base = columns.get(name) or ColumnStats(
                name, DataType.FLOAT if histogram.buckets else DataType.INTEGER, rows, 0.0
            )
            lo, hi = self.minmax.get(name, (histogram.min_value, histogram.max_value))
            columns[name] = base._replace(
                count=rows,
                distinct=max(1.0, histogram.total_distinct),
                min_value=lo,
                max_value=hi,
                histogram=histogram,
                observed=True,
            )
        for columns_key, estimate in self.distincts.items():
            base = columns.get(columns_key[0]) if len(columns_key) == 1 else None
            if base is not None:
                columns[columns_key[0]] = base._replace(
                    count=rows, distinct=max(1.0, min(estimate, rows)), observed=True
                )
        aliases = estimated.aliases if estimated is not None else frozenset()
        return RelProfile(
            rows=rows, row_bytes=self.row_bytes, columns=columns, aliases=aliases
        )


def _keys(chunk: Chunk, positions: tuple):
    """The scalar per row for one position, the tuple for several —
    :meth:`RuntimeCollector.observe`'s per-row extraction."""
    if len(positions) == 1:
        return chunk.values(positions[0])
    return zip(*map(chunk.values, positions))


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
        #: Seconds inside the batch entry point (per-row ``observe`` is not
        #: timed: reading the clock would cost more than the work).
        self.wall_s = 0.0
        spec: CollectorSpec = node.spec
        # Min/max only where it can change an estimate: columns SCIA found an
        # operator above still reading, plus the histogram columns.
        live = (
            None
            if spec.minmax_columns is None
            else {*spec.minmax_columns, *spec.histogram_columns}
        )
        self._numeric_positions: list[tuple[str, int]] = [
            (col.name, i)
            for i, col in enumerate(schema.columns)
            if col.dtype.is_numeric and (live is None or col.name in live)
        ]
        self._minmax: dict[str, list[float]] = {}
        self._minmax_python: set[str] = set()
        # One row sampler decides which rows enter the sample; every
        # histogram column keeps the values of exactly those rows.
        self._sampler = RowSampler(config.reservoir_sample_size, seed=config.seed)
        self._samples: dict[str, tuple[int, list]] = {
            col: (schema.index_of(col), []) for col in spec.histogram_columns
        }
        self._sketches: dict[tuple[str, ...], tuple[tuple[int, ...], HybridDistinct]] = {}
        for cols in spec.distinct_column_sets:
            positions = tuple(schema.index_of(c) for c in cols)
            self._sketches[cols] = (positions, HybridDistinct(seed=config.seed))

    def observe(self, row: Row) -> None:
        """Examine one tuple (the hot path of the collector operator)."""
        self.row_count += 1
        for name, position in self._numeric_positions:
            self._fold_minmax(name, row[position], row[position])
        self._sample_rows(as_chunk((row,), len(self.schema)))
        for positions, sketch in self._sketches.values():
            if len(positions) == 1:
                sketch.add(row[positions[0]])
            else:
                sketch.add(tuple(row[p] for p in positions))

    def _fold_minmax(self, name: str, lo, hi) -> None:
        entry = self._minmax.get(name)
        if entry is None:
            self._minmax[name] = [lo, hi]
        else:
            if lo < entry[0]:
                entry[0] = lo
            if hi > entry[1]:
                entry[1] = hi

    def _sample_rows(self, chunk: Chunk) -> None:
        """Offer rows to the sampler; read only the hit rows' values — by
        offset, so a chunk builds none of its rows."""
        if not self._samples:
            return
        fill, hits = self._sampler.offer(len(chunk))
        if not fill and not hits:
            return
        offsets = [*range(fill), *(offset for offset, __ in hits)]
        for position, sample in self._samples.values():
            values = chunk.values(position, offsets)
            sample.extend(values[:fill])
            for (__, slot), value in zip(hits, values[fill:]):
                sample[slot] = value

    def observe_batch(self, rows: Sequence[Row] | Chunk) -> None:
        """Examine one batch of tuples (the batch-path fast path).

        Produces state identical to calling :meth:`observe` per row in
        order — running counts and min/max fold over the batch, the sampler
        draws once per row in row order so its RNG stream (and therefore
        the final histogram) is bit-identical.  A join's chunk is read
        column by column — only the columns a statistic names — and none
        of its rows is built; its min/max come from typed arrays where the
        column has them (:meth:`Chunk.bounds`), the values and types
        Python's ``min`` / ``max`` would have returned.  A row list is read
        as the chunk it wraps into.  A distinct sketch builds keys only while
        its exact set may keep them, and reads hash lanes otherwise.
        """
        if not rows:
            return
        started = perf_counter()
        by_column = type(rows) is Chunk
        chunk = as_chunk(rows, len(self.schema))
        self.row_count += len(rows)
        for name, position in self._numeric_positions:
            if by_column:
                bounds = chunk.bounds(position)
                if bounds is not None:
                    self._fold_minmax(name, *bounds)
                    continue
                self._minmax_python.add(name)
            values = chunk.values(position)
            entry = self._minmax.get(name)
            if entry is None:
                self._minmax[name] = [min(values), max(values)]
            else:
                # Seeded with the running extremes: observe()'s comparisons
                # exactly, even when a NaN leads the batch.
                entry[0] = min(chain((entry[0],), values))
                entry[1] = max(chain((entry[1],), values))
        self._sample_rows(chunk)
        for positions, sketch in self._sketches.values():
            sketch.add_hashes(
                partial(chunk.hashes, positions), partial(_keys, chunk, positions)
            )
        self.wall_s += perf_counter() - started

    def finalize(self) -> ObservedStatistics:
        """Turn the accumulated state into observed statistics."""
        histograms: dict[str, Histogram] = {}
        seen = self._sampler.seen
        for column, (__, sample) in self._samples.items():
            if seen == 0:
                continue
            histograms[column] = from_sample(
                [float(v) for v in sample],
                population_count=seen,
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
            work=CollectorWork(
                wall_s=self.wall_s,
                reservoir_draws=self._sampler.draws,
                sketch_values_hashed=sum(s.hashed for __, s in self._sketches.values()),
                minmax_columns_tracked=len(self._numeric_positions),
                minmax_python_columns=len(self._minmax_python),
            ),
        )
