"""A simulated LRU buffer pool.

Scans and index lookups route their page requests through the buffer pool;
only misses charge the :class:`~repro.storage.disk.CostClock`.  The pool is
identified-page based (``(owner_id, page_no)``), write-through, and keeps
simple hit/miss counters so experiments can report buffer behaviour.

The paper kept the Paradise buffer pool deliberately small (32 MB/node) so
that memory-management effects were visible; the default pool here is small
relative to workload sizes for the same reason.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .disk import CostClock

PageKey = tuple[int, int]


@dataclass
class BufferStats:
    """Hit/miss counters for a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total page requests served."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of requests served from the pool (0.0 when unused)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


class BufferPool:
    """LRU buffer pool over simulated pages.

    The pool stores page *identities* only — row data lives in the owning
    :class:`~repro.storage.table.Table` — because the simulation only needs to
    know whether an access is a hit (free) or a miss (charged to the clock).
    """

    def __init__(self, capacity_pages: int, clock: CostClock) -> None:
        if capacity_pages <= 0:
            raise ValueError(f"buffer pool capacity must be positive, got {capacity_pages}")
        self.capacity = capacity_pages
        self.clock = clock
        self.stats = BufferStats()
        self._pages: OrderedDict[PageKey, None] = OrderedDict()
        #: Page numbers held per owner — always exactly the keys of
        #: ``_pages`` grouped by owner.  Lets :meth:`access_run` prove a
        #: whole run misses without probing page by page, and
        #: :meth:`invalidate_owner` drop an owner without walking the pool.
        self._resident: dict[int, set[int]] = {}

    def __len__(self) -> int:
        return len(self._pages)

    def access(self, owner_id: int, page_no: int, sequential: bool = True) -> bool:
        """Request a page; charge the clock on a miss.

        Returns ``True`` on a buffer hit.  ``sequential`` selects the read
        cost charged on a miss (sequential vs random page read).
        """
        key = (owner_id, page_no)
        if key in self._pages:
            self._pages.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        if sequential:
            self.clock.charge_seq_read(1)
        else:
            self.clock.charge_rand_read(1)
        self._admit(key)
        return False

    def access_run(self, owner_id: int, first_page: int, last_page: int) -> None:
        """Request pages ``first_page .. last_page - 1`` sequentially.

        Observationally identical to one ``access(owner_id, page,
        sequential=True)`` per page in ascending order: the same LRU order,
        the same hit/miss/eviction counters, and the same float additions
        in the same order on the clock (one ``+= seq_page_read`` per miss,
        never a multiplied lump).  A scan batch whose pages are all absent
        — the common case for a table larger than the pool — is admitted
        in one pass without per-page method calls or membership probes.
        """
        count = last_page - first_page
        if count <= 0:
            return
        run = range(first_page, last_page)
        resident = self._resident.get(owner_id)
        if resident is None:
            resident = self._resident[owner_id] = set()
        elif not resident.isdisjoint(run):
            for page_no in run:
                self.access(owner_id, page_no)
            return
        breakdown = self.clock.breakdown
        per_page = 1 * self.clock.params.seq_page_read
        seq_read = breakdown.seq_read
        for __ in run:
            seq_read += per_page
        breakdown.seq_read = seq_read
        pages = self._pages
        popitem = pages.popitem
        by_owner = self._resident
        room = self.capacity - len(pages)
        self.stats.misses += count
        self.stats.evictions += max(0, count - room)
        evicted_here: list[int] = []
        for page_no in run:
            if room:
                room -= 1
            else:
                old_owner, old_page = popitem(False)[0]
                if old_owner == owner_id:
                    evicted_here.append(old_page)
                else:
                    by_owner[old_owner].discard(old_page)
            pages[(owner_id, page_no)] = None
        # A run longer than the pool evicts its own head: add, then remove.
        resident.update(run)
        resident.difference_update(evicted_here)

    def write(self, owner_id: int, page_no: int) -> None:
        """Write a page through to disk (always charged) and cache it."""
        key = (owner_id, page_no)
        self.clock.charge_write(1)
        if key in self._pages:
            self._pages.move_to_end(key)
        else:
            self._admit(key)

    def invalidate_owner(self, owner_id: int) -> None:
        """Drop every cached page belonging to ``owner_id`` (e.g. temp drop)."""
        for page_no in self._resident.pop(owner_id, ()):
            del self._pages[(owner_id, page_no)]

    def clear(self) -> None:
        """Empty the pool (counters are preserved)."""
        self._pages.clear()
        self._resident.clear()

    def _admit(self, key: PageKey) -> None:
        if len(self._pages) >= self.capacity:
            (old_owner, old_page), __ = self._pages.popitem(last=False)
            self._resident[old_owner].discard(old_page)
            self.stats.evictions += 1
        self._pages[key] = None
        self._resident.setdefault(key[0], set()).add(key[1])
