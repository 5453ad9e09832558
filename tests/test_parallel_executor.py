"""Mergeable statistics, grant splitting and page-group geometry.

The module name is historical: there is no parallel executor (DESIGN.md
section 8).  What it tests stays on its own: ``Reservoir.merge`` /
``merge_samples`` and the distinct counters' ``merge`` (a merged summary
equals, or is distributed like, one built over the concatenated input),
``MemoryManager.split_grant`` (the memory broker's fair shares) and
``storage.columnar.page_groups`` (the batch scan's yield boundaries).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import Database
from repro.bench import ExperimentConfig, build_database
from repro.errors import MemoryGrantError, StatisticsError
from repro.executor.memory import MemoryManager
from repro.stats.distinct import ExactDistinct, FlajoletMartin, HybridDistinct
from repro.stats.sampling import Reservoir
from repro.storage.columnar import page_groups


@pytest.fixture(scope="module")
def tpcd_db() -> Database:
    return build_database(ExperimentConfig(scale_factor=0.01))


# ----------------------------------------------------------------------
# Mergeable statistics primitives
# ----------------------------------------------------------------------


class TestReservoirMerge:
    def test_exhaustive_merge_is_concatenation(self):
        a = Reservoir(100, seed=1)
        b = Reservoir(100, seed=2)
        a.extend(range(10))
        b.extend(range(10, 30))
        a.merge(b)
        assert a.seen == 30
        assert a.is_exhaustive
        assert sorted(a.sample) == list(range(30))

    def test_merge_into_empty_adopts_other(self):
        a = Reservoir(10, seed=1)
        b = Reservoir(10, seed=2)
        b.extend(range(50))
        a.merge(b)
        assert a.seen == 50
        assert sorted(a.sample) == sorted(b.sample)

    def test_merge_empty_other_is_noop(self):
        a = Reservoir(10, seed=1)
        a.extend(range(5))
        before = a.sample
        a.merge(Reservoir(10, seed=9))
        assert a.sample == before and a.seen == 5

    def test_merged_capacity_and_seen(self):
        a = Reservoir(64, seed=1)
        b = Reservoir(64, seed=2)
        a.extend(range(1000))
        b.extend(range(1000, 3000))
        a.merge(b)
        assert a.seen == 3000
        assert len(a.sample) == 64
        assert all(0 <= v < 3000 for v in a.sample)

    def test_capacity_mismatch_rejected(self):
        other = Reservoir(16, seed=1)
        other.extend(range(4))
        with pytest.raises(StatisticsError):
            Reservoir(8, seed=1).merge(other)

    def test_merge_is_deterministic_given_rng(self):
        def merged() -> tuple:
            a = Reservoir(32, seed=5)
            b = Reservoir(32, seed=6)
            a.extend(range(200))
            b.extend(range(200, 500))
            a.merge(b, rng=random.Random(42))
            return a.sample

        assert merged() == merged()

    def test_merge_draws_proportionally(self):
        # 3x the population on one side should yield roughly 3x the sample
        # share — a loose bound, deterministic under the fixed seed.
        rng = random.Random(7)
        from_b = 0
        for trial in range(200):
            a = Reservoir(32, seed=trial)
            b = Reservoir(32, seed=1000 + trial)
            a.extend(range(100))
            b.extend(range(1000, 1300))
            a.merge(b, rng=rng)
            from_b += sum(1 for v in a.sample if v >= 1000)
        share = from_b / (200 * 32)
        assert 0.65 < share < 0.85

    def test_pickle_roundtrip_preserves_rng_stream(self):
        a = Reservoir(16, seed=3)
        a.extend(range(100))
        clone = pickle.loads(pickle.dumps(a))
        assert clone.sample == a.sample and clone.seen == a.seen
        a.extend(range(100, 200))
        clone.extend(range(100, 200))
        assert clone.sample == a.sample


class TestDistinctMerge:
    def test_fm_merge_equals_serial(self):
        serial = FlajoletMartin(seed=9)
        left = FlajoletMartin(seed=9)
        right = FlajoletMartin(seed=9)
        values = [f"v{i}" for i in range(5000)]
        serial.extend(values)
        left.extend(values[:2000])
        right.extend(values[2000:])
        left.merge(right)
        assert left._bitmaps == serial._bitmaps
        assert left.estimate() == serial.estimate()

    def test_fm_merge_rejects_mismatched_geometry(self):
        with pytest.raises(StatisticsError):
            FlajoletMartin(num_maps=64, seed=1).merge(FlajoletMartin(num_maps=32, seed=1))
        with pytest.raises(StatisticsError):
            FlajoletMartin(seed=1).merge(FlajoletMartin(seed=2))

    def test_exact_distinct_merge(self):
        a, b = ExactDistinct(), ExactDistinct()
        a.extend([1, 2, 3])
        b.extend([3, 4])
        a.merge(b)
        assert a.estimate() == 4.0

    def test_hybrid_merge_matches_serial_exact_regime(self):
        serial = HybridDistinct(seed=4, threshold=1000)
        left = HybridDistinct(seed=4, threshold=1000)
        right = HybridDistinct(seed=4, threshold=1000)
        serial.add_batch(list(range(300)))
        left.add_batch(list(range(200)))
        right.add_batch(list(range(100, 300)))
        left.merge(right)
        assert left.estimate() == serial.estimate() == 300.0

    def test_hybrid_merge_matches_serial_sketch_regime(self):
        serial = HybridDistinct(seed=4, threshold=64)
        left = HybridDistinct(seed=4, threshold=64)
        right = HybridDistinct(seed=4, threshold=64)
        values = list(range(10_000))
        serial.add_batch(values)
        left.add_batch(values[:5000])
        right.add_batch(values[5000:])
        left.merge(right)
        # Union exceeds the threshold, so the merged counter trusts the
        # sketch — whose bitmaps equal the serial counter's exactly.
        assert left.estimate() == serial.estimate()

    def test_hybrid_pickle_roundtrip(self):
        h = HybridDistinct(seed=11, threshold=10)
        h.add_batch(list(range(50)))
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
