"""The cost formulas and histogram arithmetic as they were written before
their records became tuples, kept as the reference for the rewrite.

The join enumerator compares candidate costs float for float, so a rewrite
of a formula must reproduce every float operation in order, not merely the
mathematics.  ``tests/test_reference_costing.py`` holds the code in
``src/`` to the last bit of this module: the frozen-dataclass
:class:`OperatorCost` whose ``hash_join`` is ``build.plus(probe)``, the
per-bucket :class:`Bucket` arithmetic of :class:`Histogram`, and
``_scale_column`` through ``dataclasses.replace`` — verbatim apart from
absolute imports, with only the members those formulas use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from repro.config import CostParameters, EngineConfig
from repro.errors import StatisticsError
from repro.stats.histogram import HistogramKind
from repro.storage.schema import DataType


@dataclass(frozen=True)
class OperatorCost:
    """Resource consumption of one operator invocation."""

    seq_read_pages: float = 0.0
    rand_read_pages: float = 0.0
    write_pages: float = 0.0
    cpu_units: float = 0.0
    stats_cpu_units: float = 0.0

    def total_units(self, params: CostParameters) -> float:
        """Convert to scalar cost units."""
        return (
            self.seq_read_pages * params.seq_page_read
            + self.rand_read_pages * params.rand_page_read
            + self.write_pages * params.page_write
            + self.cpu_units
            + self.stats_cpu_units
        )

    def plus(self, other: "OperatorCost") -> "OperatorCost":
        """Component-wise sum."""
        return OperatorCost(
            seq_read_pages=self.seq_read_pages + other.seq_read_pages,
            rand_read_pages=self.rand_read_pages + other.rand_read_pages,
            write_pages=self.write_pages + other.write_pages,
            cpu_units=self.cpu_units + other.cpu_units,
            stats_cpu_units=self.stats_cpu_units + other.stats_cpu_units,
        )


class CostModel:
    """Cost formulas parameterised by the engine configuration."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.params = config.cost

    def hash_join_spill_fraction(self, build_pages: float, memory_pages: float) -> float:
        """Fraction of both inputs spilled given a memory grant."""
        need = self.config.hash_fudge_factor * max(1.0, build_pages)
        if memory_pages >= need:
            return 0.0
        return max(0.0, min(1.0, 1.0 - memory_pages / need))

    def hash_join_build(
        self, build_rows: float, build_pages: float, memory_pages: float
    ) -> OperatorCost:
        """Build phase: hash CPU plus spilling the overflow partitions."""
        spill = self.hash_join_spill_fraction(build_pages, memory_pages)
        return OperatorCost(
            write_pages=spill * build_pages,
            cpu_units=build_rows * self.params.cpu_hash_build,
        )

    def hash_join_probe(
        self,
        build_pages: float,
        probe_rows: float,
        probe_pages: float,
        output_rows: float,
        memory_pages: float,
    ) -> OperatorCost:
        """Probe phase: probe CPU, spill of probe overflow, re-read of both."""
        spill = self.hash_join_spill_fraction(build_pages, memory_pages)
        respill_io = spill * (build_pages + probe_pages)
        return OperatorCost(
            seq_read_pages=respill_io,
            write_pages=spill * probe_pages,
            cpu_units=(
                probe_rows * self.params.cpu_hash_probe
                + output_rows * self.params.cpu_per_tuple
                # Spilled build rows are re-hashed in the second pass.
                + spill * probe_rows * self.params.cpu_hash_probe
            ),
        )

    def hash_join(
        self,
        build_rows: float,
        build_pages: float,
        probe_rows: float,
        probe_pages: float,
        output_rows: float,
        memory_pages: float,
    ) -> OperatorCost:
        """Full hybrid hash join cost (build plus probe)."""
        return self.hash_join_build(build_rows, build_pages, memory_pages).plus(
            self.hash_join_probe(
                build_pages, probe_rows, probe_pages, output_rows, memory_pages
            )
        )

    def index_nl_join(
        self,
        outer_rows: float,
        height: int,
        entries_per_leaf: int,
        matches_total: float,
        clustered: bool,
        inner_table_pages: float,
        output_rows: float,
    ) -> OperatorCost:
        """One index probe per outer row plus fetches for all matches."""
        probes_rand = outer_rows * height
        leaf_pages = math.ceil(matches_total / entries_per_leaf) if matches_total > 0 else 0
        if clustered:
            fetch_seq = leaf_pages
            fetch_rand = 0.0
        else:
            fetch_seq = 0.0
            fetch_rand = min(matches_total, outer_rows * inner_table_pages)
        return OperatorCost(
            seq_read_pages=leaf_pages + fetch_seq,
            rand_read_pages=probes_rand + fetch_rand,
            cpu_units=output_rows * self.params.cpu_per_tuple
            + outer_rows * self.params.cpu_per_compare,
        )

    def block_nl_join(
        self,
        outer_rows: float,
        outer_pages: float,
        inner_rows: float,
        inner_pages: float,
        memory_pages: float,
    ) -> OperatorCost:
        """Classic block NL: rescan inner once per outer memory block."""
        block = max(1.0, memory_pages - 2)
        blocks = math.ceil(max(1.0, outer_pages) / block)
        return OperatorCost(
            seq_read_pages=blocks * inner_pages,
            cpu_units=outer_rows * inner_rows * self.params.cpu_per_compare,
        )


@dataclass(frozen=True)
class Bucket:
    """One histogram bucket over the closed interval ``[low, high]``."""

    low: float
    high: float
    count: float
    distinct: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise StatisticsError(f"bucket bounds inverted: [{self.low}, {self.high}]")

    @property
    def width(self) -> float:
        """Width of the bucket's value range."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside this bucket."""
        return self.low <= value <= self.high

    def overlap_fraction(self, low: float, high: float) -> float:
        """Fraction of this bucket's range overlapping ``[low, high]``.

        Zero-width (singleton) buckets overlap fully or not at all.
        """
        if high < self.low or low > self.high:
            return 0.0
        if self.width == 0:
            return 1.0
        lo = max(low, self.low)
        hi = min(high, self.high)
        return max(0.0, hi - lo) / self.width


class Histogram:
    """An immutable bucketised summary of one numeric attribute."""

    def __init__(self, kind: HistogramKind, buckets: Sequence[Bucket]) -> None:
        self.kind = kind
        self.buckets: tuple[Bucket, ...] = tuple(buckets)
        for prev, nxt in zip(self.buckets, self.buckets[1:]):
            if nxt.low < prev.high:
                raise StatisticsError("histogram buckets must be sorted and disjoint")
        self.total_count = sum(b.count for b in self.buckets)
        self.total_distinct = sum(b.distinct for b in self.buckets)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.kind.value}, buckets={len(self.buckets)}, "
            f"count={self.total_count:.0f}, distinct={self.total_distinct:.0f})"
        )

    @property
    def is_empty(self) -> bool:
        """Whether the histogram summarises zero rows."""
        return self.total_count <= 0 or not self.buckets

    @property
    def min_value(self) -> float | None:
        """Smallest value covered, or None when empty."""
        return self.buckets[0].low if self.buckets else None

    @property
    def max_value(self) -> float | None:
        """Largest value covered, or None when empty."""
        return self.buckets[-1].high if self.buckets else None

    # ------------------------------------------------------------------
    # Propagation operations
    # ------------------------------------------------------------------

    def scaled(self, factor: float) -> "Histogram":
        """Scale all bucket counts by ``factor`` (distincts follow Yao-style).

        Used when a predicate on a *different* attribute removes rows: value
        frequencies shrink proportionally; per-bucket distinct counts shrink
        by the probability that at least one row with each value survives.
        """
        if factor < 0:
            raise StatisticsError(f"scale factor must be non-negative, got {factor}")
        if factor >= 1.0:
            return self
        buckets = []
        for b in self.buckets:
            new_count = b.count * factor
            per_value = b.count / b.distinct if b.distinct > 0 else 0.0
            if per_value > 0:
                survive = 1.0 - (1.0 - factor) ** per_value
            else:
                survive = factor
            new_distinct = min(b.distinct * survive, new_count) if new_count > 0 else 0.0
            buckets.append(Bucket(b.low, b.high, new_count, new_distinct))
        return Histogram(self.kind, buckets)

    def restricted(self, low: float | None, high: float | None) -> "Histogram":
        """Slice the histogram to ``[low, high]`` (for predicates on this attr)."""
        if self.is_empty:
            return self
        lo = self.buckets[0].low if low is None else low
        hi = self.buckets[-1].high if high is None else high
        buckets = []
        for b in self.buckets:
            frac = b.overlap_fraction(lo, hi)
            if frac <= 0:
                continue
            new_low = max(b.low, lo)
            new_high = min(b.high, hi)
            buckets.append(
                Bucket(
                    low=new_low,
                    high=new_high,
                    count=b.count * frac,
                    distinct=max(1.0, b.distinct * frac) if b.count * frac > 0 else 0.0,
                )
            )
        return Histogram(self.kind, buckets)

    def scaled_counts(self, factor: float) -> "Histogram":
        """Scale counts keeping distincts: sample-to-population extrapolation.

        Unlike :meth:`scaled` (which models removing rows), this models the
        same value distribution observed through a uniform sample, so the
        distinct counts stay (capped at the new counts).
        """
        if factor < 0:
            raise StatisticsError(f"scale factor must be non-negative, got {factor}")
        buckets = [
            Bucket(b.low, b.high, b.count * factor, min(b.distinct, b.count * factor))
            for b in self.buckets
        ]
        return Histogram(self.kind, buckets)

    def join_cardinality(self, other: "Histogram") -> float:
        """Estimated equi-join output size against ``other``.

        Classic bucket-overlap estimation: within each overlap region assume
        uniform spread and compute ``n1 * n2 / max(d1, d2)``.
        """
        if self.is_empty or other.is_empty:
            return 0.0
        total = 0.0
        theirs = other.buckets
        first = 0  # buckets before it end below every remaining b1
        for b1 in self.buckets:
            while first < len(theirs) and theirs[first].high < b1.low:
                first += 1
            for b2 in theirs[first:]:
                if b2.low > b1.high:
                    break  # sorted and disjoint: nothing later overlaps
                lo = max(b1.low, b2.low)
                hi = min(b1.high, b2.high)
                if hi < lo:
                    continue
                f1 = b1.overlap_fraction(lo, hi)
                f2 = b2.overlap_fraction(lo, hi)
                n1 = b1.count * f1
                n2 = b2.count * f2
                d1 = max(b1.distinct * f1, 1e-9)
                d2 = max(b2.distinct * f2, 1e-9)
                if n1 > 0 and n2 > 0:
                    total += n1 * n2 / max(d1, d2)
        return total


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column of one (base or intermediate) relation."""

    name: str
    dtype: DataType
    count: float
    distinct: float
    min_value: float | None = None
    max_value: float | None = None
    histogram: Histogram | None = None
    is_key: bool = False
    #: True when the stats were *observed* at run time rather than estimated.
    observed: bool = False

    @property
    def has_histogram(self) -> bool:
        """Whether a histogram is available for this column."""
        return self.histogram is not None and not self.histogram.is_empty

    def renamed(self, name: str) -> "ColumnStats":
        """Return a copy with a different (qualified) name."""
        return replace(self, name=name)


def _scale_column(stats: ColumnStats, scale: float, new_rows: float) -> ColumnStats:
    """Scale a column's stats when rows are removed by unrelated predicates."""
    if scale >= 1.0:
        if stats.count == new_rows:
            return stats
        return replace(stats, count=new_rows)
    histogram = stats.histogram.scaled(scale) if stats.has_histogram else stats.histogram
    if stats.distinct > 0 and stats.count > 0:
        per_value = stats.count / stats.distinct
        survive = 1.0 - (1.0 - scale) ** per_value
        distinct = max(1.0, min(stats.distinct * survive, new_rows))
    else:
        distinct = min(stats.distinct, new_rows)
    return replace(stats, count=new_rows, distinct=distinct, histogram=histogram)
