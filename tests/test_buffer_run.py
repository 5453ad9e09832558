"""``BufferPool.access_run`` against its oracle: one ``access`` per page.

A scan batch's page requests go through ``access_run`` in one call; the
contract is that nothing observable distinguishes it from the per-page
loop it replaced — LRU order, hit/miss/eviction counters, and the clock's
float totals *bit for bit* (one addition of the page cost per miss, in
order; ``n * cost`` is a different float).  The differential below drives
two pools through the same random operation sequence, one with
``access_run`` and one with the loop, and compares everything after every
step, including the per-owner residency index ``access_run`` relies on to
prove a run misses.

Hand mutations of ``storage/buffer.py`` this test was checked to catch:
``stats.evictions`` off by one in the all-miss path; ``seq_read += count *
per_page`` instead of ``count`` additions; ``_resident`` not updated in
``write`` (``_admit``) or in ``invalidate_owner``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import CostParameters
from repro.storage import BufferPool, CostClock

OWNERS = st.integers(min_value=1, max_value=3)
PAGES = st.integers(min_value=0, max_value=60)

OPERATIONS = st.one_of(
    # Runs: overlapping, empty (length 0) and longer than any capacity.
    st.tuples(st.just("run"), OWNERS, PAGES, st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("access"), OWNERS, PAGES, st.booleans()),
    st.tuples(st.just("write"), OWNERS, PAGES),
    st.tuples(st.just("invalidate"), OWNERS),
    st.tuples(st.just("clear")),
)


def make_pool(capacity: int) -> BufferPool:
    # A page cost whose multiples are not its repeated sums: 6 * 0.1 is
    # 0.6000000000000001, six additions of 0.1 make 0.6.
    return BufferPool(capacity, CostClock(CostParameters(seq_page_read=0.1)))


def apply(pool: BufferPool, op: tuple, use_run: bool) -> None:
    kind = op[0]
    if kind == "run":
        __, owner, first, length = op
        if use_run:
            pool.access_run(owner, first, first + length)
        else:
            for page_no in range(first, first + length):
                pool.access(owner, page_no, sequential=True)
    elif kind == "access":
        pool.access(op[1], op[2], sequential=op[3])
    elif kind == "write":
        pool.write(op[1], op[2])
    elif kind == "invalidate":
        pool.invalidate_owner(op[1])
    else:
        pool.clear()


def residency(pool: BufferPool) -> dict[int, set[int]]:
    held: dict[int, set[int]] = {}
    for owner, page_no in pool._pages:
        held.setdefault(owner, set()).add(page_no)
    return held


def assert_same(run_pool: BufferPool, page_pool: BufferPool, step) -> None:
    assert list(run_pool._pages) == list(page_pool._pages), step
    assert run_pool.stats == page_pool.stats, step
    assert repr(run_pool.clock.breakdown) == repr(page_pool.clock.breakdown), step
    for pool in (run_pool, page_pool):
        index = {owner: pages for owner, pages in pool._resident.items() if pages}
        assert index == residency(pool), step


@given(
    capacity=st.integers(min_value=1, max_value=40),
    operations=st.lists(OPERATIONS, min_size=1, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_access_run_matches_per_page_access(capacity, operations):
    run_pool, page_pool = make_pool(capacity), make_pool(capacity)
    for step, op in enumerate(operations):
        apply(run_pool, op, use_run=True)
        apply(page_pool, op, use_run=False)
        assert_same(run_pool, page_pool, (step, op))


def test_sequential_flood_of_a_table_larger_than_the_pool():
    # The shape every large scan has: all-miss runs, steady eviction.
    run_pool, page_pool = make_pool(256), make_pool(256)
    for first in range(0, 2000, 29):
        op = ("run", 7, first, min(29, 2000 - first))
        apply(run_pool, op, use_run=True)
        apply(page_pool, op, use_run=False)
    assert_same(run_pool, page_pool, "flood")
    assert run_pool.stats.misses == 2000
    assert run_pool.stats.evictions == 2000 - 256
    # A re-scan of the resident tail hits page by page.
    op = ("run", 7, 1900, 100)
    apply(run_pool, op, use_run=True)
    apply(page_pool, op, use_run=False)
    assert_same(run_pool, page_pool, "tail")
    assert run_pool.stats.hits == 100


def test_run_misses_cost_one_addition_each():
    pool = make_pool(8)
    pool.access_run(1, 0, 6)
    six_additions = 0.0
    for __ in range(6):
        six_additions += 0.1
    assert pool.clock.breakdown.seq_read == six_additions != 6 * 0.1
