"""Pickled statistics, grant splitting and page-group geometry.

The module name is historical: there is no parallel executor (DESIGN.md
section 8).  What it tests stays on its own: a pickled ``Reservoir`` /
``HybridDistinct`` carries on like the original,
``MemoryManager.split_grant`` (the memory broker's fair shares) and
``storage.columnar.page_groups`` (the batch scan's yield boundaries).
"""

from __future__ import annotations

import pickle

import pytest

from repro import Database
from repro.bench import ExperimentConfig, build_database
from repro.errors import MemoryGrantError
from repro.executor.memory import MemoryManager
from repro.stats.distinct import HybridDistinct
from repro.stats.sampling import Reservoir
from repro.storage.columnar import page_groups


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01))


# ----------------------------------------------------------------------
# Statistics primitives survive pickling
# ----------------------------------------------------------------------


class TestPickleRoundTrip:
    def test_pickle_roundtrip_preserves_rng_stream(self):
        a = Reservoir(16, seed=3)
        a.extend(range(100))
        clone = pickle.loads(pickle.dumps(a))
        assert clone.sample == a.sample and clone.seen == a.seen
        a.extend(range(100, 200))
        clone.extend(range(100, 200))
        assert clone.sample == a.sample

    def test_hybrid_pickle_roundtrip(self):
        h = HybridDistinct(seed=11, threshold=10)
        for value in range(50):
            h.add(value)
        clone = pickle.loads(pickle.dumps(h))
        assert clone.estimate() == h.estimate()
        clone.add(999)
        h.add(999)
        assert clone.estimate() == h.estimate()


class TestSplitGrant:
    def test_shares_sum_to_grant(self):
        shares = MemoryManager.split_grant(103, 4)
        assert sum(shares) == 103
        assert max(shares) - min(shares) <= 1

    def test_zero_pages(self):
        assert MemoryManager.split_grant(0, 3) == [0, 0, 0]

    def test_invalid_partitions(self):
        with pytest.raises(MemoryGrantError):
            MemoryManager.split_grant(10, 0)


# ----------------------------------------------------------------------
# Page groups: the batch scan's yield boundaries
# ----------------------------------------------------------------------


class TestPageGroups:
    def test_groups_cover_table_exactly(self, tpcd_db):
        for name in ("lineitem", "orders", "customer"):
            table = tpcd_db.table(name)
            groups = page_groups(table, 1024)
            assert groups[0][0] == 0
            assert groups[-1][1] == table.page_count
            for (__, a_end), (b_start, __b) in zip(groups, groups[1:]):
                assert a_end == b_start

    def test_groups_match_serial_batch_boundaries(self, tpcd_db):
        table = tpcd_db.table("orders")
        batch_size = 1024
        per_page = table.rows_per_page
        groups = page_groups(table, batch_size)
        # Reconstruct the serial scan's yields from the geometry.
        serial_batches = []
        batch = 0
        for page_no in range(table.page_count):
            batch += min(per_page, table.row_count - page_no * per_page)
            if batch >= batch_size:
                serial_batches.append(batch)
                batch = 0
        if batch:
            serial_batches.append(batch)
        group_rows = [
            min(last * per_page, table.row_count) - first * per_page
            for first, last in groups
        ]
        assert group_rows == serial_batches
