"""Distinct-value counting.

The paper computes the number of unique values of an attribute (or attribute
set) at run time using the probabilistic bitmap approach of Flajolet and
Martin [6] (the alternative it mentions is reservoir sampling).  Two counters
are provided:

* :class:`FlajoletMartin` — the classic PCSA sketch: ``m`` bitmaps updated by
  the trailing-zero rank of a salted 64-bit hash; the estimate is
  ``m / phi * 2**mean(R)``.  Fixed memory, one pass, ~10% typical error with
  64 bitmaps.
* :class:`ExactDistinct` — a hash-set counter used for tests and for small
  inputs where exact counting is free anyway.

Both share the tiny :class:`DistinctCounter` protocol (``add`` / ``estimate``)
so statistics collectors can swap them.
"""

from __future__ import annotations

from typing import Iterable, Protocol

import numpy as np

from ..errors import StatisticsError

#: Flajolet–Martin magic constant (1/0.77351).
_PHI = 0.77351
#: 64-bit mixing constants (splitmix64 finalizer).
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit mixer."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    x ^= x >> 31
    return x


class DistinctCounter(Protocol):
    """Minimal interface shared by distinct counters."""

    def add(self, value) -> None:
        """Observe one value."""

    def add_batch(self, values) -> None:
        """Observe a batch of values (the batch execution path)."""

    def estimate(self) -> float:
        """Estimated number of distinct values observed."""


class ExactDistinct:
    """Exact distinct counting via a hash set."""

    def __init__(self) -> None:
        self._seen: set = set()

    def add(self, value) -> None:
        self._seen.add(value)

    def add_batch(self, values: Iterable) -> None:
        """Observe a batch of values at once."""
        self._seen.update(values)

    def extend(self, values: Iterable) -> None:
        """Observe every value from an iterable."""
        for value in values:
            self._seen.add(value)

    def estimate(self) -> float:
        return float(len(self._seen))


class HybridDistinct:
    """Exact counting for small cardinalities, PCSA beyond a threshold.

    PCSA over-estimates badly when the true cardinality is below a few
    multiples of the bitmap count, so the collector keeps an exact hash set
    until ``threshold`` distinct values have been seen and only then trusts
    the sketch (which has observed every value all along).  Memory stays
    bounded by the threshold.
    """

    def __init__(self, num_maps: int = 64, seed: int = 0, threshold: int = 1024) -> None:
        if threshold <= 0:
            raise StatisticsError(f"threshold must be positive, got {threshold}")
        self._sketch = FlajoletMartin(num_maps=num_maps, seed=seed)
        self._exact: set | None = set()
        self._threshold = threshold
        #: Values run through the sketch's hash so far (work counter).
        self.hashed = 0

    def add(self, value) -> None:
        self.hashed += 1
        self._sketch.add(value)
        if self._exact is not None:
            self._exact.add(value)
            if len(self._exact) > self._threshold:
                self._exact = None

    def add_batch(self, values) -> None:
        """Observe a batch of values at once.

        Only the batch's *new distinct* values are hashed — setting a bitmap
        bit is idempotent, so the sketch ends up as if it had hashed them all.
        The exact set is dropped after the batch rather than mid-batch, so
        it may transiently exceed the threshold by one batch; the final
        estimate is unchanged (the sketch observed every value either way).
        """
        fresh = set(values)
        if self._exact is not None:
            fresh -= self._exact
            self._exact |= fresh
            if len(self._exact) > self._threshold:
                self._exact = None
        self.hashed += len(fresh)
        self._sketch.add_batch(fresh)

    def extend(self, values: Iterable) -> None:
        """Observe every value from an iterable."""
        for value in values:
            self.add(value)

    def estimate(self) -> float:
        if self._exact is not None:
            return float(len(self._exact))
        return self._sketch.estimate()


class FlajoletMartin:
    """Probabilistic counting with stochastic averaging (PCSA, [6])."""

    def __init__(self, num_maps: int = 64, seed: int = 0) -> None:
        if num_maps <= 0:
            raise StatisticsError(f"num_maps must be positive, got {num_maps}")
        self.num_maps = num_maps
        self._salt = _mix64(seed ^ 0x9E3779B97F4A7C15)
        self._bitmaps = [0] * num_maps

    def add(self, value) -> None:
        h = _mix64(hash(value) ^ self._salt)
        bucket = h % self.num_maps
        h //= self.num_maps
        rank = self._trailing_zeros(h)
        self._bitmaps[bucket] |= 1 << rank

    def add_batch(self, values) -> None:
        """Observe a batch of values: :meth:`add` per value, bit for bit.

        Only Python's ``hash`` runs per value.  The salt, the SplitMix64
        finalizer, bucket, quotient and trailing-zero rank are ``uint64``
        array operations (multiplies wrap: ``& _MASK``), and each bucket's
        rank bits are OR-ed together before they reach its bitmap.
        """
        h = np.fromiter(map(hash, values), dtype=np.int64).view(np.uint64)
        if not h.size:
            return
        h ^= np.uint64(self._salt)
        h ^= h >> np.uint64(30)
        h *= np.uint64(_MIX1)
        h ^= h >> np.uint64(27)
        h *= np.uint64(_MIX2)
        h ^= h >> np.uint64(31)
        num_maps = np.uint64(self.num_maps)
        buckets = (h % num_maps).astype(np.intp)
        h //= num_maps
        # The lowest set bit is ``1 << rank``; a zero quotient ranks 63.
        bits = h & (~h + np.uint64(1))
        bits[h == 0] = np.uint64(1 << 63)
        merged = np.zeros(self.num_maps, dtype=np.uint64)
        np.bitwise_or.at(merged, buckets, bits)
        self._bitmaps = [a | b for a, b in zip(self._bitmaps, merged.tolist())]

    def extend(self, values: Iterable) -> None:
        """Observe every value from an iterable."""
        for value in values:
            self.add(value)

    def estimate(self) -> float:
        total_rank = sum(self._lowest_zero(bm) for bm in self._bitmaps)
        mean_rank = total_rank / self.num_maps
        return self.num_maps / _PHI * (2.0 ** mean_rank)

    @staticmethod
    def _trailing_zeros(x: int) -> int:
        if x == 0:
            return 63
        return (x & -x).bit_length() - 1

    @staticmethod
    def _lowest_zero(bitmap: int) -> int:
        rank = 0
        while bitmap & (1 << rank):
            rank += 1
        return rank
