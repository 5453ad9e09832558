"""Reservoir sampling (Vitter, Algorithm R).

The paper's statistics collectors keep one database page worth of sampled
attribute values per collected histogram, filled with Vitter's reservoir
sampling [24]; when the input is exhausted the reservoir is turned into a
histogram ([19]'s recommendation).  :class:`Reservoir` implements exactly
that single-pass, fixed-memory sampler with a deterministic seed.

Which row lands in which slot depends only on the capacity, the seed and the
row's index in the stream — never on the values — so the draws are made
once per ``(capacity, seed)`` for the whole process (:class:`_Schedule`) and
every sampler of that pair reads its slots from the shared record.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left
from typing import Iterable, Sequence

from ..errors import StatisticsError


class _Schedule:
    """Algorithm R's slot decisions for one ``(capacity, seed)``, drawn once.

    Row ``i`` past the first ``capacity`` draws ``Random._randbelow(i + 1)``
    — its ``getrandbits`` rejection loop inlined, same calls in the same
    order — and is a *hit* when the slot is below ``capacity``.  ``rows`` /
    ``slots`` list every hit among the first ``frontier`` rows, in order;
    :meth:`extend` draws further under a lock, so samplers on any thread
    read the same decisions one stream of draws would have made.
    """

    def __init__(self, capacity: int, seed) -> None:
        self.capacity = capacity
        self.rng = random.Random(seed)
        #: Rows decided so far: the first ``capacity`` need no draw.
        self.frontier = capacity
        self.rows: list[int] = []
        self.slots: list[int] = []
        self._lock = threading.Lock()

    def extend(self, end: int) -> None:
        """Decide every row before ``end``."""
        with self._lock:
            seen = self.frontier
            if seen >= end:
                return
            capacity = self.capacity
            getrandbits = self.rng.getrandbits
            rows, slots = self.rows, self.slots
            bits = seen.bit_length()
            for row in range(seen, end):
                seen = row + 1
                if seen >> bits:
                    bits += 1
                slot = getrandbits(bits)
                while slot >= seen:
                    slot = getrandbits(bits)
                if slot < capacity:
                    rows.append(row)
                    slots.append(slot)
            # Published last: a reader that sees the frontier sees its hits.
            self.frontier = end


_schedules: dict[tuple, _Schedule] = {}
_schedules_lock = threading.Lock()


def _schedule(capacity: int, seed) -> _Schedule:
    """The process's one schedule for ``(capacity, seed)``."""
    with _schedules_lock:
        schedule = _schedules.get((capacity, seed))
        if schedule is None:
            schedule = _schedules[capacity, seed] = _Schedule(capacity, seed)
    return schedule


class RowSampler:
    """Algorithm R's slot decisions, apart from the values they place.

    Which offered row lands in which slot depends on the capacity, ``seen``
    and the RNG stream — never on the values — so one sampler places the rows
    of any number of columns: the samples equal those of as many same-seeded
    :class:`Reservoir` objects fed one column each, for one RNG stream.  The
    stream itself is the process-wide :class:`_Schedule` of the sampler's
    ``(capacity, seed)``; a pickle carries ``(capacity, seed, seen, draws)``
    and re-attaches to it.
    """

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity <= 0:
            raise StatisticsError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.seed = seed
        self.seen = 0
        #: Rows decided by a draw so far (one per row offered past capacity).
        self.draws = 0
        self._schedule = _schedule(capacity, seed)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_schedule"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._schedule = _schedule(self.capacity, self.seed)

    def offer(self, count: int) -> tuple[int, list[tuple[int, int]]]:
        """Decide the fate of the next ``count`` offered rows.

        Returns ``(fill, hits)``: the first ``fill`` rows are appended (the
        sample was not full), then each ``(offset, slot)`` of ``hits``, in
        order, puts the row at ``offset`` into ``slot``; the rest are dropped.
        The hits are the schedule's between ``seen`` and ``seen + count``:
        two bisects, once the schedule has been drawn that far.
        """
        start = self.seen
        end = start + count
        fill = min(max(self.capacity - start, 0), count)
        self.seen = end
        self.draws += count - fill
        schedule = self._schedule
        if end > schedule.frontier:
            schedule.extend(end)
        rows, slots = schedule.rows, schedule.slots
        lo = bisect_left(rows, start + fill)
        hi = bisect_left(rows, end, lo)
        return fill, [(rows[k] - start, slots[k]) for k in range(lo, hi)]


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

