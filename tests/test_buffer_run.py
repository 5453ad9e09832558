"""``BufferPool`` against an independent oracle: a naive page-list LRU.

The pool holds its LRU order as runs ``[owner, first, last]`` and serves a
request run by run.  Nothing observable may distinguish it from the
textbook LRU below, which moves one ``(owner, page)`` at a time: the LRU
order, the hit/miss/eviction counters, and the clock's float totals *bit
for bit* — one addition of the page cost per miss and per written page, in
order (``n * cost`` is a different float).  The differential drives both
through the same random reads, writes, invalidations and clears and
compares everything after every step.

Hand mutations of ``storage/buffer.py`` this test was checked to catch:
merging a request into the newest run when it does not directly follow
it; eviction trimming one page too many; a hit's split dropping the
right-hand piece of its run; a request longer than the pool keeping
``capacity + 1`` pages; ``write_run`` charging ``n * page_write`` in one
addition; ``stats.evictions`` off by one; ``seq_read += misses *
per_page``; ``invalidate_owner`` leaving the pool's size unchanged.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CostParameters
from repro.storage import BufferPool, CostClock
from repro.storage.buffer import BufferStats

pytestmark = pytest.mark.hashseed


class NaiveLRU:
    """The oracle: a list of ``(owner, page)``, least recently used first."""

    def __init__(self, capacity: int, clock: CostClock) -> None:
        self.capacity = capacity
        self.clock = clock
        self.pages: list[tuple[int, int]] = []
        self.stats = BufferStats()

    def _touch(self, key: tuple[int, int]) -> bool:
        if key in self.pages:
            self.pages.remove(key)
            self.pages.append(key)
            return True
        if len(self.pages) >= self.capacity:
            del self.pages[0]
            self.stats.evictions += 1
        self.pages.append(key)
        return False

    def access_run(self, owner: int, first: int, last: int) -> None:
        for page in range(first, last):
            if self._touch((owner, page)):
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                self.clock.breakdown.seq_read += self.clock.params.seq_page_read

    def write_run(self, owner: int, first: int, last: int) -> None:
        for page in range(first, last):
            self.clock.breakdown.write += self.clock.params.page_write
            self._touch((owner, page))

    def invalidate_owner(self, owner: int) -> None:
        self.pages = [key for key in self.pages if key[0] != owner]

    def clear(self) -> None:
        self.pages.clear()


OWNERS = st.integers(min_value=1, max_value=3)
PAGES = st.integers(min_value=0, max_value=40)

OPERATIONS = st.one_of(
    # Reads: overlapping, empty (length 0) and longer than any capacity.
    st.tuples(st.just("read"), OWNERS, PAGES, st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("read"), OWNERS, PAGES, st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("write"), OWNERS, PAGES, st.integers(min_value=0, max_value=12)),
    st.tuples(st.just("invalidate"), OWNERS),
    st.tuples(st.just("clear")),
)


def make_clock() -> CostClock:
    # Page costs whose multiples are not their repeated sums: 6 * 0.1 is
    # 0.6000000000000001, six additions of 0.1 make 0.6.
    return CostClock(CostParameters(seq_page_read=0.1, page_write=0.1))


def make_pair(capacity: int) -> tuple[BufferPool, NaiveLRU]:
    return BufferPool(capacity, make_clock()), NaiveLRU(capacity, make_clock())


def apply(pool, op: tuple) -> None:
    kind, *args = op
    if kind == "read":
        owner, first, length = args
        pool.access_run(owner, first, first + length)
    elif kind == "write":
        owner, first, length = args
        pool.write_run(owner, first, first + length)
    elif kind == "invalidate":
        pool.invalidate_owner(*args)
    else:
        pool.clear()


def lru_order(pool: BufferPool) -> list[tuple[int, int]]:
    return [(owner, page) for owner, first, last in pool.runs for page in range(first, last)]


def assert_same(pool: BufferPool, oracle: NaiveLRU, step) -> None:
    assert lru_order(pool) == oracle.pages, step
    assert len(pool) == len(oracle.pages), step
    assert all(first < last for __, first, last in pool.runs), step
    assert pool.stats == oracle.stats, step
    assert repr(pool.clock.breakdown) == repr(oracle.clock.breakdown), step


@given(
    capacity=st.integers(min_value=1, max_value=40),
    operations=st.lists(OPERATIONS, min_size=1, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_access_run_matches_per_page_access(capacity, operations):
    pool, oracle = make_pair(capacity)
    for step, op in enumerate(operations):
        apply(pool, op)
        apply(oracle, op)
        assert_same(pool, oracle, (step, op))


def test_sequential_flood_of_a_table_larger_than_the_pool():
    # The shape every large scan has: all-miss runs, steady eviction.
    pool, oracle = make_pair(256)
    for first in range(0, 2000, 29):
        op = ("read", 7, first, min(29, 2000 - first))
        apply(pool, op)
        apply(oracle, op)
    assert_same(pool, oracle, "flood")
    assert pool.stats.misses == 2000
    assert pool.stats.evictions == 2000 - 256
    assert pool.runs == [[7, 2000 - 256, 2000]]  # the whole scan is one run
    # A re-scan of the resident tail hits page by page.
    op = ("read", 7, 1900, 100)
    apply(pool, op)
    apply(oracle, op)
    assert_same(pool, oracle, "tail")
    assert pool.stats.hits == 100
    assert pool.runs == [[7, 2000 - 256, 2000]]


def test_a_hit_splits_its_run():
    pool, __ = make_pair(10)
    pool.access_run(1, 0, 6)
    pool.access_run(1, 2, 4)
    assert pool.runs == [[1, 0, 2], [1, 4, 6], [1, 2, 4]]
    assert (pool.stats.hits, pool.stats.misses, pool.stats.evictions) == (2, 6, 0)


def test_a_request_longer_than_the_pool_keeps_its_last_pages():
    pool, __ = make_pair(4)
    pool.access_run(2, 0, 3)
    pool.access_run(1, 0, 10)
    assert pool.runs == [[1, 6, 10]]
    assert (pool.stats.misses, pool.stats.evictions) == (13, 9)


def test_run_misses_cost_one_addition_each():
    pool, __ = make_pair(8)
    pool.access_run(1, 0, 6)
    pool.write_run(2, 0, 6)
    six_additions = 0.0
    for __ in range(6):
        six_additions += 0.1
    assert pool.clock.breakdown.seq_read == six_additions != 6 * 0.1
    assert pool.clock.breakdown.write == six_additions
