"""A simulated LRU buffer pool.

Scans route their page requests through the buffer pool; only misses charge
the :class:`~repro.storage.disk.CostClock`.  The pool is identified-page
based (``(owner_id, page_no)``), write-through, and keeps simple
hit/miss/eviction counters so experiments can report buffer behaviour.

The pool is exactly a page-level LRU, held as a list of *runs*
``[owner, first, last]`` — pages ``first .. last - 1`` of one owner, aging
in page order — least recently used first.  Requests take runs too, so a
scan batch (or a whole table scan) is a handful of list operations, not one
dictionary operation per page.

The paper kept the Paradise buffer pool deliberately small (32 MB/node) so
that memory-management effects were visible; the default pool here is small
relative to workload sizes for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

from .disk import CostClock


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
    Every request behaves exactly like its pages requested one at a time in
    ascending order: the same LRU order, the same counters, and one float
    addition of the page cost per charged page, in order (``n * cost`` is a
    different float).
    """

    def __init__(self, capacity_pages: int, clock: CostClock) -> None:
        if capacity_pages <= 0:
            raise ValueError(f"buffer pool capacity must be positive, got {capacity_pages}")
        self.capacity = capacity_pages
        self.clock = clock
        self.stats = BufferStats()
        #: The LRU order as runs ``[owner, first, last]``, least recently
        #: used first; within a run, page ``first`` is the oldest.
        self.runs: list[list[int]] = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def access_run(self, owner_id: int, first_page: int, last_page: int) -> None:
        """Read pages ``first_page .. last_page - 1``; charge one sequential
        page read per miss."""
        misses = self._request(owner_id, first_page, last_page)
        self.stats.hits += last_page - first_page - misses
        self.stats.misses += misses
        breakdown = self.clock.breakdown
        per_page = self.clock.params.seq_page_read
        seq_read = breakdown.seq_read
        for __ in range(misses):
            seq_read += per_page
        breakdown.seq_read = seq_read

    def write_run(self, owner_id: int, first_page: int, last_page: int) -> None:
        """Write pages ``first_page .. last_page - 1`` through to disk (each
        charged) and cache them; writes count neither hits nor misses."""
        self._request(owner_id, first_page, last_page)
        breakdown = self.clock.breakdown
        per_page = self.clock.params.page_write
        write = breakdown.write
        for __ in range(first_page, last_page):
            write += per_page
        breakdown.write = write

    def invalidate_owner(self, owner_id: int) -> None:
        """Drop every cached page belonging to ``owner_id`` (e.g. temp drop)."""
        self.runs[:] = [run for run in self.runs if run[0] != owner_id]
        self._size = sum(run[2] - run[1] for run in self.runs)

    def clear(self) -> None:
        """Empty the pool (counters are preserved)."""
        self.runs.clear()
        self._size = 0

    def _request(self, owner_id: int, first_page: int, last_page: int) -> int:
        """Make pages ``first_page .. last_page - 1`` the most recently used,
        in page order, evicting from the head as needed; return how many
        were absent.

        The request is served in segments.  A segment of resident pages —
        all inside one run — is cut out of that run (splitting it) and
        appended; hits never evict, so the whole segment hits.  A segment
        of absent pages (up to the next resident page) is appended and the
        pool trimmed to capacity from the head, which is where one-at-a-time
        eviction would have taken the same pages from.  Trimming may evict
        pages further along the request, so each segment looks afresh.
        """
        runs = self.runs
        misses = 0
        page = first_page
        while page < last_page:
            end = last_page
            for index, run in enumerate(runs):
                if run[0] == owner_id and run[2] > page:
                    if run[1] <= page:
                        break
                    if run[1] < end:
                        end = run[1]
            else:
                misses += end - page
                self._append(owner_id, page, end)
                self._size += end - page
                if self._size > self.capacity:
                    self._evict(self._size - self.capacity)
                page = end
                continue
            start, stop = run[1], run[2]
            end = min(stop, last_page)
            runs[index : index + 1] = [
                [owner_id, lo, hi] for lo, hi in ((start, page), (end, stop)) if lo < hi
            ]
            self._append(owner_id, page, end)
            page = end
        return misses

    def _append(self, owner_id: int, first: int, last: int) -> None:
        runs = self.runs
        if runs:
            tail = runs[-1]
            if tail[0] == owner_id and tail[2] == first:
                tail[2] = last
                return
        runs.append([owner_id, first, last])

    def _evict(self, count: int) -> None:
        self.stats.evictions += count
        self._size -= count
        runs = self.runs
        dropped = 0
        for run in runs:
            held = run[2] - run[1]
            if held > count:
                run[1] += count
                break
            count -= held
            dropped += 1
        del runs[:dropped]
