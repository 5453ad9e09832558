"""Reservoir sampling (Vitter, Algorithm R).

The paper's statistics collectors keep one database page worth of sampled
attribute values per collected histogram, filled with Vitter's reservoir
sampling [24]; when the input is exhausted the reservoir is turned into a
histogram ([19]'s recommendation).  :class:`Reservoir` implements exactly
that single-pass, fixed-memory sampler with a deterministic seed.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from ..errors import StatisticsError


class RowSampler:
    """Algorithm R's slot decisions, apart from the values they place.

    Which offered row lands in which slot depends on the capacity, ``seen``
    and the RNG stream — never on the values — so one sampler places the rows
    of any number of columns: the samples equal those of as many same-seeded
    :class:`Reservoir` objects fed one column each, for one RNG stream.
    """

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise StatisticsError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        #: Random draws made so far (one per row offered past capacity).
        self.draws = 0
        self._rng = random.Random(seed)

    def offer(self, count: int) -> tuple[int, list[tuple[int, int]]]:
        """Decide the fate of the next ``count`` offered rows.

        Returns ``(fill, hits)``: the first ``fill`` rows are appended (the
        sample was not full), then each ``(offset, slot)`` of ``hits``, in
        order, puts the row at ``offset`` into ``slot``; the rest are dropped.
        The draw is ``Random._randbelow(seen)`` with its ``getrandbits``
        rejection loop inlined — same calls, same order, so slots and RNG end
        state are unchanged at a third of the price.
        """
        capacity = self.capacity
        seen = self.seen
        fill = min(max(capacity - seen, 0), count)
        seen += fill
        hits: list[tuple[int, int]] = []
        getrandbits = self._rng.getrandbits
        bits = seen.bit_length()
        for offset in range(fill, count):
            seen += 1
            if seen >> bits:
                bits += 1
            slot = getrandbits(bits)
            while slot >= seen:
                slot = getrandbits(bits)
            if slot < capacity:
                hits.append((offset, slot))
        self.seen = seen
        self.draws += count - fill
        return fill, hits


class Reservoir(RowSampler):
    """A fixed-capacity uniform random sample maintained in one pass."""

    def __init__(self, capacity: int, seed: int = 0) -> None:
        super().__init__(capacity, seed)
        self._sample: list = []

    def __len__(self) -> int:
        return len(self._sample)

    def add(self, value) -> None:
        """Offer one value to the reservoir (Algorithm R replacement step)."""
        self.add_batch((value,))

    def extend(self, values: Iterable) -> None:
        """Offer every value from an iterable."""
        self.add_batch(list(values))

    def add_batch(self, values: Sequence) -> None:
        """Offer a batch of values: one :meth:`offer`, then place the hits."""
        fill, hits = self.offer(len(values))
        sample = self._sample
        sample.extend(values[:fill])
        for offset, slot in hits:
            sample[slot] = values[offset]

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

