"""Tests for tables, the cost clock, the buffer pool, indexes and temp tables."""

import pytest

from repro.config import CostParameters, EngineConfig
from repro.errors import CatalogError, StorageError
from repro.stats.table_stats import compute_table_stats
from repro.storage import (
    BufferPool,
    Catalog,
    Column,
    CostClock,
    DataType,
    Schema,
    Table,
    TempTableManager,
    build_index,
)

from .conftest import simple_schema


class TestCostClock:
    def test_charges_accumulate_by_category(self):
        clock = CostClock(CostParameters())
        clock.charge_seq_read(10)
        clock.charge_rand_read(2)
        clock.charge_write(4)
        clock.charge_cpu(1.5)
        clock.charge_stats_cpu(0.5)
        clock.charge_optimizer(3.0)
        b = clock.breakdown
        assert b.seq_read == 10 * 1.0
        assert b.rand_read == 2 * 4.0
        assert b.write == 4 * 1.5
        assert b.cpu == 1.5
        assert b.stats_cpu == 0.5
        assert b.optimizer == 3.0
        assert clock.now == pytest.approx(b.total)

    def test_charge_tuples_uses_cpu_per_tuple(self):
        params = CostParameters()
        clock = CostClock(params)
        clock.charge_tuples(100)
        assert clock.breakdown.cpu == pytest.approx(100 * params.cpu_per_tuple)

    def test_snapshot_and_minus(self):
        clock = CostClock(CostParameters())
        clock.charge_seq_read(5)
        before = clock.breakdown.snapshot()
        clock.charge_seq_read(3)
        delta = clock.breakdown.minus(before)
        assert delta.seq_read == pytest.approx(3.0)

    def test_elapsed_since(self):
        clock = CostClock(CostParameters())
        start = clock.now
        clock.charge_cpu(7)
        assert clock.elapsed_since(start) == pytest.approx(7)


class TestBufferPool:
    def _pool(self, capacity=4):
        clock = CostClock(CostParameters())
        return BufferPool(capacity, clock), clock

    def test_miss_charges_hit_does_not(self):
        pool, clock = self._pool()
        pool.access_run(1, 0, 1)
        assert (pool.stats.hits, pool.stats.misses) == (0, 1)
        cost_after_miss = clock.now
        pool.access_run(1, 0, 1)
        assert (pool.stats.hits, pool.stats.misses) == (1, 1)
        assert clock.now == cost_after_miss

    def test_random_read_costs_more(self):
        pool, clock = self._pool()
        pool.access_run(1, 0, 1)
        seq_cost = clock.now
        clock.charge_rand_read(1)  # index probes charge random pages directly
        assert clock.now - seq_cost > seq_cost

    def test_reads_charge_sequential_pages(self):
        pool, clock = self._pool()
        pool.access_run(1, 0, 3)
        assert clock.breakdown.seq_read == 3 * clock.params.seq_page_read
        assert clock.breakdown.rand_read == 0.0

    def test_lru_eviction(self):
        pool, __ = self._pool(capacity=2)
        pool.access_run(1, 0, 3)  # page 2 evicts page 0
        assert pool.stats.evictions == 1
        pool.access_run(1, 0, 1)
        assert pool.stats.misses == 4  # page 0 was evicted

    def test_access_refreshes_lru_position(self):
        pool, __ = self._pool(capacity=2)
        pool.access_run(1, 0, 2)
        pool.access_run(1, 0, 1)  # refresh page 0
        pool.access_run(1, 2, 3)  # should evict page 1, not 0
        pool.access_run(1, 0, 1)
        assert (pool.stats.hits, pool.stats.misses) == (2, 3)
        assert pool.runs == [[1, 2, 3], [1, 0, 1]]

    def test_write_always_charges(self):
        pool, clock = self._pool()
        pool.write_run(1, 0, 1)
        first = clock.now
        pool.write_run(1, 0, 1)
        assert clock.now == pytest.approx(2 * first)
        assert pool.stats.accesses == 0

    def test_invalidate_owner(self):
        pool, __ = self._pool()
        pool.access_run(1, 0, 1)
        pool.access_run(2, 0, 1)
        pool.invalidate_owner(1)
        assert len(pool) == 1
        pool.access_run(2, 0, 1)
        pool.access_run(1, 0, 1)
        assert (pool.stats.hits, pool.stats.misses) == (1, 3)

    def test_hit_ratio(self):
        pool, __ = self._pool()
        assert pool.stats.hit_ratio == 0.0
        pool.access_run(1, 0, 1)
        pool.access_run(1, 0, 1)
        assert pool.stats.hit_ratio == pytest.approx(0.5)

    def test_invalid_capacity(self):
        clock = CostClock(CostParameters())
        with pytest.raises(ValueError):
            BufferPool(0, clock)


class TestTable:
    def test_append_and_geometry(self):
        table = Table("t", simple_schema(), page_size=4096)
        table.append_rows([(i, float(i), f"n{i}") for i in range(500)])
        assert table.row_count == 500
        assert table.page_count == simple_schema().page_count(500, 4096)
        assert table.total_bytes == 500 * simple_schema().row_bytes

    def test_arity_mismatch_raises(self):
        table = Table("t", simple_schema(), page_size=4096)
        with pytest.raises(StorageError):
            table.append_rows([(1, 2.0)])

    def test_iter_pages_covers_all_rows(self):
        table = Table("t", simple_schema(), page_size=4096)
        table.append_rows([(i, float(i), "x") for i in range(1000)])
        seen = sum(len(page) for page in table.iter_pages())
        assert seen == 1000
        sizes = [len(page) for page in table.iter_pages()]
        assert all(s == table.rows_per_page for s in sizes[:-1])

    def test_page_of_row(self):
        table = Table("t", simple_schema(), page_size=4096)
        table.append_rows([(i, float(i), "x") for i in range(300)])
        per = table.rows_per_page
        assert table.page_of_row(0) == 0
        assert table.page_of_row(per) == 1

    def test_truncate(self):
        table = Table("t", simple_schema(), page_size=4096)
        table.append_rows([(1, 1.0, "a")])
        table.truncate()
        assert table.row_count == 0


class TestIndex:
    def _table(self, n=1000):
        table = Table("t", simple_schema(), page_size=4096)
        table.append_rows([(i % 100, float(i), f"n{i}") for i in range(n)])
        return table

    def test_lookup_eq(self):
        table = self._table()
        index = build_index("ix", table, "id")
        matches = index.lookup_eq(42)
        assert len(matches) == 10
        assert all(table.rows[i][0] == 42 for i in matches)

    def test_lookup_eq_missing(self):
        index = build_index("ix", self._table(), "id")
        assert index.lookup_eq(1234) == []

    def test_lookup_range_inclusive_exclusive(self):
        table = self._table()
        index = build_index("ix", table, "id")
        inclusive = index.lookup_range(10, 12)
        assert {table.rows[i][0] for i in inclusive} == {10, 11, 12}
        exclusive = index.lookup_range(10, 12, low_inclusive=False, high_inclusive=False)
        assert {table.rows[i][0] for i in exclusive} == {11}

    def test_lookup_range_open_ended(self):
        table = self._table(100)
        index = build_index("ix", table, "id")
        assert len(index.lookup_range(None, None)) == 100
        low_only = index.lookup_range(95, None)
        assert all(table.rows[i][0] >= 95 for i in low_only)

    def test_empty_range(self):
        index = build_index("ix", self._table(), "id")
        assert index.lookup_range(50, 40) == []

    def test_geometry(self):
        index = build_index("ix", self._table(5000), "id")
        assert index.leaf_pages >= 1
        assert index.height >= 1
        assert index.leaf_pages_for(0) == 0
        assert index.leaf_pages_for(1) == 1

    def test_fetch_page_reads_clustered_vs_not(self):
        table = self._table()
        clustered = build_index("c", table, "id", clustered=True)
        unclustered = build_index("u", table, "value")
        seq, rand = clustered.fetch_page_reads(50)
        assert rand == 0 and seq >= 1
        seq2, rand2 = unclustered.fetch_page_reads(50)
        assert seq2 == 0 and rand2 == min(50, table.page_count)

    def test_unclustered_fetch_capped_at_table_pages(self):
        table = self._table()
        index = build_index("u", table, "value")
        __, rand = index.fetch_page_reads(10_000_000)
        assert rand == table.page_count

    def test_unknown_column_raises(self):
        with pytest.raises(StorageError):
            build_index("ix", self._table(), "missing")

    def test_rebuild_after_load(self):
        table = self._table(10)
        index = build_index("ix", table, "id")
        table.append_rows([(999, 0.0, "new")])
        index.rebuild()
        assert len(index.lookup_eq(999)) == 1


class TestCatalog:
    def test_create_and_lookup(self, catalog):
        table = catalog.create_table("t", simple_schema(), key_columns=["id"])
        assert "t" in catalog
        assert catalog.table("T") is table  # case-insensitive

    def test_duplicate_rejected(self, catalog):
        catalog.create_table("t", simple_schema())
        with pytest.raises(CatalogError):
            catalog.create_table("t", simple_schema())

    def test_unknown_key_column_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_table("t", simple_schema(), key_columns=["nope"])

    def test_drop(self, catalog):
        catalog.create_table("t", simple_schema())
        catalog.drop_table("t")
        assert "t" not in catalog
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_analyze_stores_stats(self, catalog):
        table = catalog.create_table("t", simple_schema(), key_columns=["id"])
        table.append_rows([(i, float(i), "x") for i in range(100)])
        stats = catalog.analyze("t")
        assert stats.row_count == 100
        assert catalog.stats_for("t").row_count == 100
        assert catalog.stats_for("t").column("id").is_key

    def test_stats_fallback_when_unanalyzed(self, catalog):
        catalog.create_table("t", simple_schema())
        stats = catalog.stats_for("t")
        assert stats.row_count > 0  # schema-only default
        assert stats.columns == {}

    def test_index_registration(self, catalog):
        table = catalog.create_table("t", simple_schema())
        table.append_rows([(i, float(i), "x") for i in range(10)])
        catalog.create_index("ix", "t", "id")
        assert catalog.index_on("t", "id") is not None
        assert catalog.index_on("t", "value") is None
        with pytest.raises(CatalogError):
            catalog.create_index("ix2", "t", "id")

    def test_is_key_column(self, catalog):
        catalog.create_table("t", simple_schema(), key_columns=["id"])
        assert catalog.is_key_column("t", "id")
        assert not catalog.is_key_column("t", "value")
        assert not catalog.is_key_column("t", "missing")


class TestTempTableManager:
    def _manager(self):
        config = EngineConfig()
        catalog = Catalog(config.page_size)
        clock = CostClock(config.cost)
        pool = BufferPool(config.buffer_pool_pages, clock)
        return TempTableManager(catalog, pool), catalog, clock

    def test_fill_registers_and_charges(self):
        manager, catalog, clock = self._manager()
        rows = [(i, float(i), "x") for i in range(200)]
        table = manager.create_empty(simple_schema())
        manager.fill(table, rows)
        assert table.name in catalog
        assert table.row_count == 200
        assert clock.breakdown.write > 0

    def test_fill_with_stats(self):
        manager, catalog, __ = self._manager()
        source = Table("src", simple_schema(), 4096)
        source.append_rows([(i, float(i), "x") for i in range(50)])
        stats = compute_table_stats(source)
        table = manager.create_empty(simple_schema(), stats=stats)
        manager.fill(table, source.rows)
        assert catalog.stats_for(table.name).row_count == 50

    def test_create_empty_then_fill(self):
        manager, catalog, __ = self._manager()
        table = manager.create_empty(simple_schema())
        assert table.row_count == 0
        assert table.name in catalog
        table.append_rows([(1, 1.0, "a")])
        assert catalog.table(table.name).row_count == 1

    def test_fill_holds_rows_until_read(self):
        manager, __, clock = self._manager()
        table = manager.create_empty(simple_schema())
        held = [[i, float(i), "x"] for i in range(300)]
        manager.fill(table, held)
        # Geometry and the write charge come from what is held ...
        assert table.held is held and table.row_count == 300
        assert table.page_count == simple_schema().page_count(300, 4096)
        assert clock.breakdown.write > 0
        # ... the tuples from the first read.
        assert table.rows[7] == (7, 7.0, "x")
        assert table.held is None and table.row_count == 300
        with pytest.raises(StorageError):
            manager.fill(table, [(1, 1.0, "a")])
        table.truncate()
        assert table.row_count == 0 and table.held is None

    def test_names_are_unique(self):
        manager, __, __c = self._manager()
        names = {manager.next_name() for __ in range(10)}
        assert len(names) == 10

    def test_drop_all(self):
        manager, catalog, __ = self._manager()
        manager.fill(manager.create_empty(simple_schema()), [])
        manager.create_empty(simple_schema())
        assert len(manager.active_names) == 2
        manager.drop_all()
        assert manager.active_names == []
        assert all(name not in catalog for name in ("__temp_1", "__temp_2"))
