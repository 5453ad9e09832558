"""Histograms and histogram-based estimation.

Paradise stored MaxDiff histograms in its catalogs [19]; the paper's
inaccuracy-potential rules additionally distinguish *serial* histograms
(low inaccuracy — MaxDiff and end-biased belong to the serial class),
equi-width / equi-depth (medium), and no histogram at all (high).  This
module implements all four builders over numeric values plus the estimation
operations the optimizer and the improved-estimate machinery need:

* equality and range selectivities (uniform spread within a bucket),
* join-size estimation by bucket overlap (containment-free, uses
  ``n1 * n2 / max(d1, d2)`` within each overlap region),
* slicing a histogram to a range and scaling it by a selectivity, both used
  when propagating statistics through plan operators.

Builders accept full value sets or reservoir samples; ``from_sample`` scales
sample frequencies back to population frequencies, mirroring the paper's
run-time histogram construction from a one-page reservoir.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import StatisticsError


class HistogramKind(enum.Enum):
    """Histogram families distinguished by the inaccuracy-potential rules."""

    EQUI_WIDTH = "equi-width"
    EQUI_DEPTH = "equi-depth"
    MAXDIFF = "maxdiff"
    END_BIASED = "end-biased"

    @property
    def is_serial_class(self) -> bool:
        """Whether this kind is in the *serial* family (low inaccuracy)."""
        return self in (HistogramKind.MAXDIFF, HistogramKind.END_BIASED)


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
        return _overlap_fraction(self.low, self.high, low, high)


def _overlap_fraction(b_low: float, b_high: float, low: float, high: float) -> float:
    """:meth:`Bucket.overlap_fraction` of the bucket ``[b_low, b_high]``."""
    if high < b_low or low > b_high:
        return 0.0
    width = b_high - b_low
    if width == 0:
        return 1.0
    lo = max(low, b_low)
    hi = min(high, b_high)
    return max(0.0, hi - lo) / width


class Histogram:
    """An immutable bucketised summary of one numeric attribute.

    Kept as one tuple of ``(low, high, count, distinct)`` rows, which the
    optimizer's loops unpack (:attr:`buckets` shows them as objects).
    Derived histograms skip the order check: each bucket stays inside its
    parent's bounds, so they are sorted and disjoint because it is.
    """

    __slots__ = ("kind", "_rows", "_buckets", "total_count", "total_distinct")

    def __init__(self, kind: HistogramKind, buckets: Sequence[Bucket]) -> None:
        buckets = tuple(buckets)
        for prev, nxt in zip(buckets, buckets[1:]):
            if nxt.low < prev.high:
                raise StatisticsError("histogram buckets must be sorted and disjoint")
        self._init(kind, tuple((b.low, b.high, b.count, b.distinct) for b in buckets))
        self._buckets: tuple[Bucket, ...] | None = buckets

    @classmethod
    def _derived(cls, kind: HistogramKind, rows: tuple) -> "Histogram":
        """A histogram over bucket rows already known to be in order."""
        hist = cls.__new__(cls)
        hist._init(kind, rows)
        hist._buckets = None
        return hist

    def _init(self, kind: HistogramKind, rows: tuple) -> None:
        self.kind = kind
        self._rows: tuple[tuple[float, float, float, float], ...] = rows
        self.total_count = sum(row[2] for row in rows)
        self.total_distinct = sum(row[3] for row in rows)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.kind.value}, buckets={len(self._rows)}, "
            f"count={self.total_count:.0f}, distinct={self.total_distinct:.0f})"
        )

    @property
    def buckets(self) -> tuple[Bucket, ...]:
        """The buckets, in value order."""
        buckets = self._buckets
        if buckets is None:
            buckets = self._buckets = tuple(Bucket(*row) for row in self._rows)
        return buckets

    @property
    def is_empty(self) -> bool:
        """Whether the histogram summarises zero rows."""
        return self.total_count <= 0 or not self._rows

    @property
    def min_value(self) -> float | None:
        """Smallest value covered, or None when empty."""
        return self._rows[0][0] if self._rows else None

    @property
    def max_value(self) -> float | None:
        """Largest value covered, or None when empty."""
        return self._rows[-1][1] if self._rows else None

    # ------------------------------------------------------------------
    # Selectivity estimation
    # ------------------------------------------------------------------

    def selectivity_eq(self, value: float) -> float:
        """Estimated selectivity of ``attr = value``."""
        if self.is_empty:
            return 0.0
        for low, high, count, distinct in self._rows:
            if low <= value <= high:
                if distinct <= 0:
                    return 0.0
                return (count / distinct) / self.total_count
        return 0.0

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        """Estimated selectivity of ``low <= attr <= high`` (open ends allowed)."""
        if self.is_empty:
            return 0.0
        lo = self._rows[0][0] if low is None else low
        hi = self._rows[-1][1] if high is None else high
        if hi < lo:
            return 0.0
        matched = sum(n * _overlap_fraction(a, b, lo, hi) for a, b, n, __ in self._rows)
        return min(1.0, matched / self.total_count)

    # ------------------------------------------------------------------
    # Propagation operations (an inlined ``max`` / ``min`` keeps the
    # builtin's tie rule, first argument wins: it decides a zero's sign)
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
        removed = 1.0 - factor
        rows = []
        for low, high, count, distinct in self._rows:
            new_count = count * factor
            per_value = count / distinct if distinct > 0 else 0.0
            survive = 1.0 - removed**per_value if per_value > 0 else factor
            if new_count > 0:
                new_distinct = distinct * survive  # min(new_distinct, new_count)
                if new_count < new_distinct:
                    new_distinct = new_count
            else:
                new_distinct = 0.0
            rows.append((low, high, new_count, new_distinct))
        return Histogram._derived(self.kind, tuple(rows))

    def restricted(self, low: float | None, high: float | None) -> "Histogram":
        """Slice the histogram to ``[low, high]`` (for predicates on this attr)."""
        if self.is_empty:
            return self
        lo = self._rows[0][0] if low is None else low
        hi = self._rows[-1][1] if high is None else high
        rows = []
        for b_low, b_high, count, distinct in self._rows:
            frac = _overlap_fraction(b_low, b_high, lo, hi)
            if frac <= 0:
                continue  # a kept bucket overlaps [lo, hi], so its slice is not inverted
            new_count = count * frac
            rows.append((
                max(b_low, lo),
                min(b_high, hi),
                new_count,
                max(1.0, distinct * frac) if new_count > 0 else 0.0,
            ))
        return Histogram._derived(self.kind, tuple(rows))

    def scaled_counts(self, factor: float) -> "Histogram":
        """Scale counts keeping distincts: sample-to-population extrapolation.

        Unlike :meth:`scaled` (which models removing rows), this models the
        same value distribution observed through a uniform sample, so the
        distinct counts stay (capped at the new counts).
        """
        if factor < 0:
            raise StatisticsError(f"scale factor must be non-negative, got {factor}")
        rows = []
        for low, high, count, distinct in self._rows:
            new_count = count * factor
            capped = new_count if new_count < distinct else distinct  # min()
            rows.append((low, high, new_count, capped))
        return Histogram._derived(self.kind, tuple(rows))

    def join_cardinality(self, other: "Histogram") -> float:
        """Estimated equi-join output size against ``other``.

        Classic bucket-overlap estimation: within each overlap region assume
        uniform spread and compute ``n1 * n2 / max(d1, d2)``.
        """
        if self.is_empty or other.is_empty:
            return 0.0
        total = 0.0
        theirs = other._rows
        end = len(theirs)
        first = 0  # buckets before it end below every remaining bucket of ours
        for low1, high1, count1, distinct1 in self._rows:
            while first < end and theirs[first][1] < low1:
                first += 1
            width1 = high1 - low1
            for low2, high2, count2, distinct2 in theirs[first:]:
                if low2 > high1:
                    break  # sorted and disjoint: nothing later overlaps
                lo = low2 if low2 > low1 else low1  # max(low1, low2)
                hi = high2 if high2 < high1 else high1  # min(high1, high2)
                if hi < lo:
                    continue
                # Each bucket's overlap_fraction(lo, hi): [lo, hi] lies
                # inside both, so it is max(0.0, hi - lo) over the width,
                # or 1.0 for a singleton bucket.
                span = hi - lo
                if not span > 0.0:
                    span = 0.0
                f1 = 1.0 if width1 == 0 else span / width1
                width2 = high2 - low2
                f2 = 1.0 if width2 == 0 else span / width2
                n1 = count1 * f1
                n2 = count2 * f2
                if n1 > 0 and n2 > 0:
                    d1 = distinct1 * f1  # max(d1, 1e-9), likewise d2
                    if 1e-9 > d1:
                        d1 = 1e-9
                    d2 = distinct2 * f2
                    if 1e-9 > d2:
                        d2 = 1e-9
                    total += n1 * n2 / (d2 if d2 > d1 else d1)
        return total


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _frequency_pairs(values: Iterable[float]) -> list[tuple[float, int]]:
    """Sorted ``(value, frequency)`` pairs for the input values."""
    freq = Counter(values)
    return sorted(freq.items())


def _bucket_from_pairs(pairs: Sequence[tuple[float, int]]) -> Bucket:
    return Bucket(
        low=float(pairs[0][0]),
        high=float(pairs[-1][0]),
        count=float(sum(f for _, f in pairs)),
        distinct=float(len(pairs)),
    )


def build_equi_width(values: Iterable[float], num_buckets: int) -> Histogram:
    """Equal-value-range buckets."""
    pairs = _frequency_pairs(values)
    if not pairs:
        return Histogram(HistogramKind.EQUI_WIDTH, [])
    lo, hi = pairs[0][0], pairs[-1][0]
    if lo == hi or num_buckets <= 1:
        return Histogram(HistogramKind.EQUI_WIDTH, [_bucket_from_pairs(pairs)])
    width = (hi - lo) / num_buckets
    buckets: list[Bucket] = []
    group: list[tuple[float, int]] = []
    boundary = lo + width
    for value, freq in pairs:
        while value > boundary and boundary < hi:
            if group:
                buckets.append(_bucket_from_pairs(group))
                group = []
            boundary += width
        group.append((value, freq))
    if group:
        buckets.append(_bucket_from_pairs(group))
    return Histogram(HistogramKind.EQUI_WIDTH, buckets)


def build_equi_depth(values: Iterable[float], num_buckets: int) -> Histogram:
    """Equal-row-count buckets."""
    pairs = _frequency_pairs(values)
    if not pairs:
        return Histogram(HistogramKind.EQUI_DEPTH, [])
    total = sum(f for _, f in pairs)
    target = total / max(1, num_buckets)
    buckets: list[Bucket] = []
    group: list[tuple[float, int]] = []
    acc = 0
    for value, freq in pairs:
        group.append((value, freq))
        acc += freq
        if acc >= target and len(buckets) < num_buckets - 1:
            buckets.append(_bucket_from_pairs(group))
            group = []
            acc = 0
    if group:
        buckets.append(_bucket_from_pairs(group))
    return Histogram(HistogramKind.EQUI_DEPTH, buckets)


def build_maxdiff(values: Iterable[float], num_buckets: int) -> Histogram:
    """MaxDiff(V, A) histogram [19]: boundaries at the largest area jumps."""
    pairs = _frequency_pairs(values)
    if not pairs:
        return Histogram(HistogramKind.MAXDIFF, [])
    if len(pairs) <= num_buckets:
        # One singleton bucket per distinct value: exact.
        buckets = [_bucket_from_pairs([p]) for p in pairs]
        return Histogram(HistogramKind.MAXDIFF, buckets)
    # Area of value i = frequency * spread to the next distinct value.
    areas = []
    for i, (value, freq) in enumerate(pairs):
        if i + 1 < len(pairs):
            spread = pairs[i + 1][0] - value
        else:
            spread = 1.0
        areas.append(freq * max(spread, 1e-12))
    diffs = [abs(areas[i + 1] - areas[i]) for i in range(len(areas) - 1)]
    # Boundaries go after positions with the num_buckets-1 largest diffs.
    cut_after = sorted(
        sorted(range(len(diffs)), key=lambda i: diffs[i], reverse=True)[: num_buckets - 1]
    )
    buckets: list[Bucket] = []
    start = 0
    for cut in cut_after:
        buckets.append(_bucket_from_pairs(pairs[start : cut + 1]))
        start = cut + 1
    buckets.append(_bucket_from_pairs(pairs[start:]))
    return Histogram(HistogramKind.MAXDIFF, buckets)


def build_end_biased(values: Iterable[float], num_buckets: int) -> Histogram:
    """End-biased (serial-class) histogram: exact top frequencies, rest uniform."""
    pairs = _frequency_pairs(values)
    if not pairs:
        return Histogram(HistogramKind.END_BIASED, [])
    if len(pairs) <= num_buckets:
        buckets = [_bucket_from_pairs([p]) for p in pairs]
        return Histogram(HistogramKind.END_BIASED, buckets)
    top = set(
        v for v, _ in sorted(pairs, key=lambda p: p[1], reverse=True)[: num_buckets - 1]
    )
    buckets: list[Bucket] = []
    rest: list[tuple[float, int]] = []
    for value, freq in pairs:
        if value in top:
            buckets.append(_bucket_from_pairs([(value, freq)]))
        else:
            rest.append((value, freq))
    if rest:
        # The "rest" bucket may interleave with singletons; merge order-safe by
        # splitting it around each singleton boundary.
        buckets.extend(_split_around(rest, sorted(top)))
    buckets.sort(key=lambda b: b.low)
    return Histogram(HistogramKind.END_BIASED, buckets)


def _split_around(
    rest: list[tuple[float, int]], boundaries: list[float]
) -> list[Bucket]:
    """Split the residual value list so buckets never straddle a singleton."""
    buckets: list[Bucket] = []
    group: list[tuple[float, int]] = []
    b_iter = iter(boundaries)
    boundary = next(b_iter, None)
    for value, freq in rest:
        while boundary is not None and value > boundary:
            if group:
                buckets.append(_bucket_from_pairs(group))
                group = []
            boundary = next(b_iter, None)
        group.append((value, freq))
    if group:
        buckets.append(_bucket_from_pairs(group))
    return buckets


_BUILDERS = {
    HistogramKind.EQUI_WIDTH: build_equi_width,
    HistogramKind.EQUI_DEPTH: build_equi_depth,
    HistogramKind.MAXDIFF: build_maxdiff,
    HistogramKind.END_BIASED: build_end_biased,
}


def build_histogram(
    values: Iterable[float], kind: HistogramKind = HistogramKind.MAXDIFF,
    num_buckets: int = 32,
) -> Histogram:
    """Build a histogram of the requested kind."""
    if num_buckets <= 0:
        raise StatisticsError(f"num_buckets must be positive, got {num_buckets}")
    return _BUILDERS[kind](values, num_buckets)


def from_sample(
    sample: Sequence[float],
    population_count: int,
    kind: HistogramKind = HistogramKind.MAXDIFF,
    num_buckets: int = 32,
) -> Histogram:
    """Build a histogram from a reservoir sample, scaled to the population.

    This is the run-time path: a statistics collector keeps a one-page
    reservoir and an exact row count; the histogram built from the sample is
    scaled so its total equals the observed cardinality.
    """
    hist = build_histogram(sample, kind=kind, num_buckets=num_buckets)
    if hist.is_empty or population_count <= 0:
        return hist
    return hist.scaled_counts(population_count / hist.total_count)
